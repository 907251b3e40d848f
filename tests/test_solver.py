import random
from dataclasses import fields
from fractions import Fraction

import pytest

import schedexact as sx
from schedexact import ContradictoryBranch, EpsilonConfig, Infeasible
from schedexact import dp as dp_module
from schedexact import paper
from schedexact.gen import MODELS, generate, to_instance
from schedexact.instance import bits
from schedexact.paper import QUARTER_NAMES, _w_refinements, quarter_case_filter
from schedexact.structure import comparability_graph, greedy_maximal_matching

from conftest import consistent_setup, labeled_trace, mask, random_instance


class TestEpsilonConfig:
    def test_defaults_are_exact(self):
        cfg = EpsilonConfig.default()
        assert cfg.eps1 == Fraction("2.677001953125e-10")
        assert cfg.eps2 == Fraction("0.00002724628851234912872314453125")
        assert cfg.eps3 == Fraction("0.007010121770270753069780766963958740234375")
        assert cfg.eps4 == Fraction(
            "0.016526753505895047409353537659626454114913940429688"
        )
        assert cfg.dispatch_warnings() == ()

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            EpsilonConfig.make(0.3, 0.2, 0.4, 0.5)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            EpsilonConfig.make(0, 0.1, 0.2, 0.3)

    def test_default_is_built_once(self):
        assert EpsilonConfig.default() is EpsilonConfig.default()
        _, _, rep = sx.solve(sx.build_instance([2, 1], [(0, 1)]))
        assert rep.warnings == ()

    @pytest.mark.parametrize("raw", [0.3, "0.3", "3/10", Fraction(3, 10)])
    def test_values_parse_exactly(self, raw):
        assert EpsilonConfig.make(raw, raw, raw, raw).eps1 == Fraction(3, 10)

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="epsilon 1/0 has a zero denominator"):
            EpsilonConfig.make("1/0", 0.3, 0.3, 0.3)

    def test_forced_config_warns_but_loads(self):
        cfg = EpsilonConfig.make(0.2, 0.22, 0.24, 0.26)
        assert cfg.eps1 == Fraction(1, 5)
        assert cfg.dispatch_warnings()  # outside the provable regime


class TestQuarterAssignments:
    def test_endpoints_only(self):
        inst = sx.normalize(sx.build_instance([1, 2, 3, 4], [])).base
        var = next(sx.endpoint_variants(sx.normalize(sx.build_instance([1, 2, 3, 4], []))))
        got = list(sx.enumerate_quarter_assignments(var.base, [var.v_begin, var.v_end], var.v_begin, var.v_end))
        assert len(got) == 1
        qa = got[0]
        masks = qa.masks()
        assert masks[0] == 1 << var.v_begin
        assert masks[3] == 1 << var.v_end

    def test_pair_count_is_ten(self):
        # one comparable pair unrelated to the pinned endpoints: the pair has
        # C(4,2) + 4 = 10 order-consistent quarter placements
        inst = sx.build_instance([1] * 6, [(2, 3)])
        norm = sx.normalize(inst)
        var = next(v for v in sx.endpoint_variants(norm) if v.v_begin == 0 and v.v_end == 1)
        got = list(
            sx.enumerate_quarter_assignments(var.base, [0, 1, 2, 3], 0, 1)
        )
        assert len(got) == 10
        for qa in got:
            q = dict(zip(qa.members, qa.quarters))
            assert q[2] <= q[3]

    def test_free_member_four_options(self):
        inst = sx.build_instance([1] * 5, [])
        norm = sx.normalize(inst)
        var = next(v for v in sx.endpoint_variants(norm) if v.v_begin == 0 and v.v_end == 1)
        got = list(sx.enumerate_quarter_assignments(var.base, [0, 1, 2], 0, 1))
        assert len(got) == 4

    def test_assignments_respect_order(self):
        inst = random_instance(3, 8, 0.3)
        norm = sx.normalize(inst)
        var = next(sx.endpoint_variants(norm))
        vinst = var.base
        res = greedy_maximal_matching(comparability_graph(vinst))
        members = sorted(
            set(bits(res.matched)) | {var.v_begin, var.v_end}
        )
        seen = set()
        for qa in sx.enumerate_quarter_assignments(vinst, members, var.v_begin, var.v_end):
            seen.add(qa.quarters)
            q = dict(zip(qa.members, qa.quarters))
            for u in members:
                for v in members:
                    if u != v and (vinst.succ_masks[u] >> v) & 1:
                        assert q[u] <= q[v]
        assert len(seen) == len(set(seen))


class TestWHalf:
    def test_no_cross_constraints(self):
        inst = sx.build_instance([1] * 4, [])
        assert sx.compute_w_half(inst, 0b1100, 0b0001, 0b0010) == (0, 0)

    def test_forced_first_half(self):
        # 0 < 1 with 1 guessed into the first half forces 0 there as well
        inst = sx.transitive_closure([(0, 1)], 3)
        w_ab, w_cd = sx.compute_w_half(inst, mask(0, 2), mask(1), 0)
        assert w_ab == mask(0)
        assert w_cd == 0

    def test_contradiction(self):
        # 1 < 0 < 2 with 1 in the second half and 2 in the first half
        inst = sx.transitive_closure([(1, 0), (0, 2)], 3)
        with pytest.raises(ContradictoryBranch):
            sx.compute_w_half(inst, mask(0), mask(2), mask(1))


class TestPPartitions:
    def test_no_constraints(self):
        inst = sx.build_instance([1] * 6, [])
        i2 = mask(2, 3, 4, 5)
        p_a, p_na, p_nd, p_d = sx.compute_p_partitions(inst, i2, mask(0), mask(1))
        assert p_a == p_d == i2
        assert p_na == p_nd == 0

    def test_barred_from_first_quarter(self):
        inst = sx.transitive_closure([(0, 2)], 4)
        i2 = mask(2, 3)
        p_a, p_na, _, _ = sx.compute_p_partitions(inst, i2, mask(0), 0)
        assert p_na == mask(2)
        assert p_a == mask(3)

    def test_barred_from_last_quarter(self):
        inst = sx.transitive_closure([(2, 0)], 4)
        i2 = mask(2, 3)
        _, _, p_nd, p_d = sx.compute_p_partitions(inst, i2, 0, mask(0))
        assert p_nd == mask(2)
        assert p_d == mask(3)


class TestHalfCase:
    def test_bad_side(self):
        vinst, ctx, _, _ = consistent_setup(sx.build_instance([3, 1, 4, 1, 5, 9, 2, 6], []))
        with pytest.raises(ValueError, match="side must be 'AB' or 'CD'"):
            sx.half_case_filter(vinst, ctx, "BC")

    def test_vacuous_window_equals_branch_optimum(self):
        inst = sx.build_instance([3, 1, 4, 1, 5, 9, 2, 6], [])
        vinst, ctx, vo, vc = consistent_setup(inst)
        o, c, stats = sx.solve_half_case(vinst, ctx, "AB")
        assert c == vc and o.positions == vo.positions

    def test_nonempty_window_matches_oracle(self):
        # two antichain jobs forced before a matched hub
        inst = sx.build_instance([5, 1, 1, 9, 8, 7, 6, 4], [(1, 0), (2, 0)])
        vinst, ctx, vo, vc = consistent_setup(inst)
        assert ctx.whalf_ab or ctx.whalf_cd
        side = "AB" if ctx.whalf_ab else "CD"
        o, c, _ = sx.solve_half_case(vinst, ctx, side)
        assert c == vc and o.positions == vo.positions

    def test_rejects_overfull_prefix(self):
        inst = sx.build_instance([5, 1, 1, 9, 8, 7, 6, 4], [(1, 0), (2, 0)])
        vinst, ctx, vo, vc = consistent_setup(inst)
        acc = sx.half_case_filter(vinst, ctx, "AB")
        n = vinst.n
        w = ctx.whalf_ab
        if w:
            missing = w & -w
            # a half-sized prefix omitting one forced job must be rejected
            x = 0
            for v in range(n):
                if x.bit_count() == n // 2:
                    break
                if not (missing >> v) & 1:
                    x |= 1 << v
            assert not acc(x)


def hub_out_instance(seed):
    """Hub precedes two heavy jobs; cheap lead-ins park the hub in quarter B
    and the heaviest free job takes the last slot."""
    rng = random.Random(seed)
    times = [rng.randint(5, 8), rng.randint(25, 30), rng.randint(31, 40),
             1, 2, rng.randint(10, 12), rng.randint(13, 15), rng.randint(45, 50)]
    return sx.build_instance(times, [(0, 1), (0, 2)])


def hub_in_instance(seed):
    """Two cheap jobs precede the hub; heavy tails park the hub in quarter C."""
    rng = random.Random(seed)
    times = [rng.randint(8, 10), 1, 2, rng.randint(3, 4), rng.randint(5, 6),
             rng.randint(6, 7), rng.randint(20, 25), rng.randint(30, 40)]
    return sx.build_instance(times, [(1, 0), (2, 0)])


class TestQuarterCases:
    @pytest.mark.parametrize("case", list(QUARTER_NAMES))
    def test_consistent_branch_matches_oracle(self, case):
        rng = random.Random(17)
        hit = 0
        for seed in range(20):
            if case in ("A", "D"):
                n = 6 + (seed % 3)
                times = [rng.randint(0, 9) for _ in range(n)]
                edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
                try:
                    inst = sx.build_instance(times, edges)
                except sx.CyclicPrecedence:
                    continue
            elif case == "B":
                inst = hub_out_instance(seed)
            else:
                inst = hub_in_instance(seed)
            vinst, ctx, vo, vc = consistent_setup(inst)
            o, c, _ = sx.solve_quarter_case(vinst, ctx, case)
            assert c == vc and o.positions == vo.positions
            if ctx.p_sets[paper.QUARTER_NAMES.index(case)]:
                hit += 1
        assert hit > 3

    def test_empty_domain_degenerates(self):
        inst = sx.build_instance([4, 2, 7, 1, 3, 6, 5, 8], [])
        vinst, ctx, vo, vc = consistent_setup(inst)
        # quarter B draws from jobs barred from the first quarter; with no
        # matched hub there are none, yet the case still finds the optimum
        assert ctx.p_sets[1] == 0
        o, c, _ = sx.solve_quarter_case(vinst, ctx, "B")
        assert c == vc

    def test_filter_rejects_exchangeable_state(self):
        # crafted: domain jobs with distinct times sharing one successor, so
        # only time-sorted bottom sets survive past the freeze point; swapping
        # a scheduled cheap job for an unscheduled pricier one must be rejected
        inst = sx.build_instance([1, 2, 3, 4, 5, 6, 7, 20], [(i, 7) for i in range(4)])
        vinst, ctx, vo, vc = consistent_setup(inst)
        acc, domain, freeze, target, reverse = quarter_case_filter(vinst, ctx, "A")
        assert not reverse and target >= 1
        mutated = 0
        for state, lab in labeled_trace(vo, domain, freeze, reverse=reverse):
            if state.bit_count() <= freeze or (1 << 7) & state:
                continue
            k = domain & ~lab
            inside = state & k
            outside = k & ~state
            if not inside or not outside:
                continue
            cheap_in = min(bits(inside), key=lambda v: vinst.times[v])
            pricey_out = max(bits(outside), key=lambda v: vinst.times[v])
            if vinst.times[pricey_out] <= vinst.times[cheap_in]:
                continue
            swapped = state & ~(1 << cheap_in) | (1 << pricey_out)
            assert sx.is_succ_exchangeable(vinst, swapped & k, k)
            assert acc(state, lab) and not acc(swapped, lab)
            mutated += 1
        assert mutated >= 1


class TestIndependentCase:
    def test_consistent_guesses_reproduce_optimum(self):
        rng = random.Random(5)
        for seed in range(12):
            n = rng.choice([6, 7, 8])
            times = [rng.randint(0, 9) for _ in range(n)]
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15]
            try:
                inst = sx.build_instance(times, edges)
            except sx.CyclicPrecedence:
                continue
            vinst, ctx, vo, vc = consistent_setup(inst)
            o, c, _ = sx.solve_independent_case(vinst, ctx)
            assert c == vc and o.positions == vo.positions

    def test_quarter_restriction_consistency(self):
        # the optimum restricted to a quarter is optimal for that quarter's content
        from schedexact.dp import SubsetDP, subsets_of_size
        from schedexact.paper import quarter_bounds

        inst = sx.build_instance([3, 1, 4, 1, 5, 9, 2, 6], [(0, 5)])
        vinst, ctx, vo, vc = consistent_setup(inst)
        n = vinst.n
        bounds = quarter_bounds(n)
        w_masks = ctx.w_masks(include_quarter_guesses=True)
        grounds = ctx.q_sets()
        pos = vo.positions
        for g in range(4):
            lo, hi = bounds[g]
            content = 0
            for v in range(n):
                if lo < pos[v] <= hi:
                    content |= 1 << v
            y = content & ~w_masks[g]
            quota = n // 4 - w_masks[g].bit_count()
            assert y.bit_count() == quota
            assert y in set(subsets_of_size(grounds[g], quota))
            got = SubsetDP(vinst, offset=lo).visit(y | w_masks[g])
            expected = sum((n - pos[v] + 1) * vinst.times[v] for v in bits(content))
            assert got == expected

    def test_infeasible_when_quarter_cannot_fill(self):
        inst = sx.build_instance([4, 2, 7, 1, 3, 6, 5, 8], [])
        vinst, ctx, vo, vc = consistent_setup(inst)
        from dataclasses import replace

        starved = replace(ctx, wq_b=0, wq_c=0, p_sets=(0, 0, 0, 0))
        with pytest.raises(Infeasible):
            sx.solve_independent_case(vinst, starved)


class TestPinnedCounts:
    """Exact DpStats of each strategy on the branch matching the optimum."""

    INSTANCES = {
        "one-pair": ([3, 1, 4, 1, 5, 9, 2, 6], [(0, 5)]),
        "two-before-hub": ([5, 1, 1, 9, 8, 7, 6, 4], [(1, 0), (2, 0)]),
    }
    # (cost, {strategy: (states_expanded, states_rejected, peak_table_size)})
    PINNED = {
        "one-pair": (327770572514, {
            "independent": (13, 0, 17),
            "A": (42, 45, 87), "B": (49, 17, 66), "C": (49, 11, 60), "D": (42, 55, 97),
            "AB": (50, 16, 66), "CD": (50, 16, 66),
        }),
        "two-before-hub": (467260124954, {
            "independent": (10, 0, 14),
            "A": (10, 9, 20), "B": (24, 15, 39), "C": (24, 10, 34), "D": (34, 40, 74),
            "AB": (28, 11, 39), "CD": (28, 11, 39),
        }),
    }

    @staticmethod
    def _stats(result):
        s = result[2]
        return result[1], (s.states_expanded, s.states_rejected, s.peak_table_size)

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_strategy_stats(self, name):
        vinst, ctx, vo, vc = consistent_setup(sx.build_instance(*self.INSTANCES[name]))
        cost, pinned = self.PINNED[name]
        assert vc == cost
        got = {"independent": self._stats(sx.solve_independent_case(vinst, ctx))}
        for case in QUARTER_NAMES:
            got[case] = self._stats(sx.solve_quarter_case(vinst, ctx, case))
        for side in ("AB", "CD"):
            got[side] = self._stats(sx.solve_half_case(vinst, ctx, side))
        assert got == {k: (cost, v) for k, v in pinned.items()}

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_shared_memos_report_only_new_states(self, name):
        # the four per-quarter memos count the empty state from construction;
        # a second identical call adds no state but reports the full tables
        vinst, ctx, _, _ = consistent_setup(sx.build_instance(*self.INSTANCES[name]))
        expanded, _, peak = self.PINNED[name][1]["independent"]
        memos = paper._quarter_memos(vinst)
        assert sum(len(m.cost) for m in memos) == 4
        first = sx.solve_independent_case(vinst, ctx, memos)[2]
        second = sx.solve_independent_case(vinst, ctx, memos)[2]
        assert (first.states_expanded, first.peak_table_size) == (expanded, peak)
        assert (second.states_expanded, second.peak_table_size) == (0, peak)


class TestSolve:
    def test_forced_chain(self):
        inst = sx.build_instance([4, 3, 2, 1], [(0, 1), (1, 2), (2, 3)])
        o, c, rep = sx.solve(inst)
        assert c == 30
        assert o.sequence == (0, 1, 2, 3)

    def test_antichain_shortest_first(self):
        inst = sx.build_instance([1, 2, 3, 4], [])
        o, c, rep = sx.solve(inst)
        assert c == 20
        assert o.positions == (1, 2, 3, 4)

    def test_empty_instance(self):
        o, c, rep = sx.solve(sx.build_instance([], []))
        assert c == 0 and len(o) == 0

    def test_single_job(self):
        o, c, rep = sx.solve(sx.build_instance([7], []))
        assert c == 7 and o.positions == (1,)

    @pytest.mark.parametrize("cfg", [None, EpsilonConfig.make(0.2, 0.22, 0.24, 0.26)])
    def test_tiny_instances(self, cfg):
        cases = [
            ([5, 1], []),
            ([5, 1], [(0, 1)]),
            ([0, 0], [(1, 0)]),
            ([2, 2, 2], []),
            ([4, 0, 4], [(0, 1), (0, 2)]),
        ]
        for times, edges in cases:
            inst = sx.build_instance(times, edges)
            _, bc = sx.brute_force_optimal(inst)
            o, c, _ = sx.solve(inst, cfg)
            assert c == bc and sx.validate_ordering(inst, o)

    @pytest.mark.parametrize(
        "cfg",
        [
            None,
            EpsilonConfig.make(0.2, 0.22, 0.24, 0.26),
            EpsilonConfig.make(0.2, 0.21, 0.22, 0.23),
        ],
    )
    def test_oracle_equivalence_random(self, cfg):
        # 200 random instances, half with 4 jobs, half with 8
        for seed in range(200):
            n = 4 if seed % 2 == 0 else 8
            inst = random_instance(seed, n, (seed % 4) * 0.25, tmax=9)
            bo, bc = sx.brute_force_optimal(inst)
            o, c, rep = sx.solve(inst, cfg)
            assert c == bc, (seed, rep.chosen_path)
            assert sx.validate_ordering(inst, o)

    def test_oracle_equivalence_all_small_posets(self):
        # every DAG over index-increasing edges at n = 4, three time vectors
        from itertools import combinations

        pairs = list(combinations(range(4), 2))
        cfg = EpsilonConfig.make(0.2, 0.22, 0.24, 0.26)
        seen = set()
        for pattern in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (pattern >> i) & 1]
            inst0 = sx.transitive_closure(edges, 4)
            key = inst0.pred_masks
            if key in seen:
                continue
            seen.add(key)
            for times in ((3, 1, 4, 1), (0, 0, 0, 0), (9, 2, 2, 5)):
                inst = sx.build_instance(list(times), edges)
                _, bc = sx.brute_force_optimal(inst)
                for config in (None, cfg):
                    _, c, _ = sx.solve(inst, config)
                    assert c == bc, (edges, times)
        # distinct closed relations with index-increasing edges on 4 jobs
        assert len(seen) == 40

    def test_both_halves_forced_runs_the_larger_half(self, monkeypatch):
        # three free jobs are forced into each half (eps2 * n = 3 after
        # padding to 12), so the tie goes to the AB side
        inst = sx.build_instance(
            [0, 24, 0, 8, 4, 7, 4, 4, 5, 2],
            [(0, 1), (2, 3), (4, 0), (5, 0), (6, 0), (3, 7), (3, 8), (3, 9)],
        )
        real = paper.solve_half_case
        sides = set()

        def spy(vinst, ctx, side):
            sides.add((ctx.whalf_ab.bit_count(), ctx.whalf_cd.bit_count(), side))
            return real(vinst, ctx, side)

        monkeypatch.setattr(paper, "solve_half_case", spy)
        o, c, rep = sx.solve(inst, EpsilonConfig.make("0.21", "0.25", "0.26", "0.27"))
        assert (3, 3, "AB") in sides
        assert c == 211 == sx.brute_force_optimal(inst)[1]
        assert rep.chosen_path == "half" and sx.validate_ordering(inst, o)

    def test_normalized_ordering_identity(self):
        for seed in range(10):
            inst = random_instance(seed + 100, 5, 0.3)
            norm = sx.normalize(inst)
            bo, bc = sx.brute_force_optimal(norm.base)
            o, c, rep = sx.solve(norm.base, EpsilonConfig.make(0.2, 0.22, 0.24, 0.26))
            assert o.positions == bo.positions

    def test_branch_cover_consistent_branch_exists(self):
        # the enumeration yields the branch matching the optimum's placements
        # (seeds 5 and 11 force a job into a half, 6 and 10 bar one from A)
        for seed in (2, 5, 6, 9, 10, 11):
            inst = random_instance(seed, 6, 0.25)
            norm = sx.normalize(inst)
            base = norm.base
            bo, _ = sx.brute_force_optimal(base)
            vb, ve = bo.sequence[0], bo.sequence[-1]
            variants = [
                v for v in sx.endpoint_variants(norm) if v.v_begin == vb and v.v_end == ve
            ]
            assert len(variants) == 1
            vinst = variants[0].base
            vo, _ = sx.brute_force_optimal(vinst)
            res = greedy_maximal_matching(comparability_graph(base))
            ctx = sx.consistent_context(vinst, vb, ve, res.matched, vo)
            members = sorted(set(bits(ctx.m_set)))
            target = tuple((vo.positions[v] - 1) // (vinst.n // 4) for v in members)
            found = [
                qa
                for qa in sx.enumerate_quarter_assignments(vinst, members, vb, ve)
                if qa.quarters == target
            ]
            assert len(found) == 1
            # ... and the search's constructors build consistent_context's branch
            # from it, up to the counts and windows only the ordering knows
            qa = found[0]
            m_ab, m_cd = qa.half_masks()
            ctx_half = paper._half_split(vinst, ctx.m_set, m_ab, m_cd)
            w_half_q = [0, 0, 0, 0]
            for v in bits(ctx_half.whalf_ab | ctx_half.whalf_cd):
                w_half_q[(vo.positions[v] - 1) // (vinst.n // 4)] |= 1 << v
            w_half_q = tuple(w_half_q)
            m_quarter_of = dict(zip(qa.members, qa.quarters))
            assert w_half_q in set(
                _w_refinements(vinst, ctx_half.whalf_ab, ctx_half.whalf_cd, m_quarter_of)
            )
            built = paper._refine(vinst, ctx_half, qa.masks(), w_half_q)
            for f in fields(sx.BranchContext):
                if f.name not in ("p_counts", "wq_b", "wq_c"):
                    assert getattr(built, f.name) == getattr(ctx, f.name), (seed, f.name)
            assert built.p_counts[0::3] == ctx.p_counts[0::3]

    def test_dispatch_soundness_branch_results_upper_bound(self):
        # every strategy result on any consistent-or-not branch is a real
        # schedule, hence never beats the oracle
        inst = random_instance(4, 7, 0.2)
        vinst, ctx, vo, vc = consistent_setup(inst)
        for case in QUARTER_NAMES:
            o, c, _ = sx.solve_quarter_case(vinst, ctx, case)
            assert c >= vc
        o, c, _ = sx.solve_half_case(vinst, ctx, "AB")
        assert c >= vc

    def test_report_fields(self):
        inst = sx.build_instance([1, 2, 3, 4], [])
        o, c, rep = sx.solve(inst, EpsilonConfig.make(0.2, 0.22, 0.24, 0.26))
        assert rep.chosen_path in {
            "dcdp", "half", "independent",
            "quarters0-A", "quarters0-B", "quarters0-C", "quarters0-D",
        }
        assert rep.variants_total == 12
        assert rep.branches_explored >= 1
        assert rep.wall_ms >= 0
        js = rep.to_json()
        assert "chosen_path" in js
        row = rep.as_csv_row()
        assert row.count(",") == sx.SolveReport.CSV_HEADER.count(",")

    def test_solve_deterministic_across_runs(self):
        inst = random_instance(12, 7, 0.2)
        cfg = EpsilonConfig.make(0.2, 0.22, 0.24, 0.26)
        o1, c1, r1 = sx.solve(inst, cfg)
        o2, c2, r2 = sx.solve(inst, cfg)
        assert (o1.positions, c1, r1.chosen_path) == (o2.positions, c2, r2.chosen_path)
        assert r1.branches_explored == r2.branches_explored

    def test_wq_cap_fallback_still_exact(self):
        # a cap of zero forbids quarter-window guessing entirely; the safety
        # net must still deliver the exact optimum
        inst = random_instance(8, 6, 0.0)
        bo, bc = sx.brute_force_optimal(inst)
        o, c, rep = sx.solve(inst, EpsilonConfig.make(0.45, 0.46, 0.47, 0.48), wq_cap=0)
        assert c == bc

    def test_negative_wq_cap_rejected(self):
        inst = random_instance(8, 6, 0.0)
        with pytest.raises(ValueError, match="wq_cap must be at least 0, got -3"):
            sx.solve(inst, wq_cap=-3)


def _forced_instances():
    """Small instances of the three generators, with and without precedences."""
    for model in MODELS:
        for n in (6, 8):
            for density in (0.1, 0.3, 0.7):
                for seed in range(4):
                    yield to_instance(generate(model, n, density, 9, seed))


class TestBranchInvariants:
    """Invariants the branch code relies on instead of checking them, on
    every branch a forced solve reaches."""

    # These thresholds send most of the instances below to the quarter
    # cases A and D, and to the independent split, respectively.
    QUARTERS = EpsilonConfig.make(0.2, 0.21, 0.22, 0.23)
    SPLIT = EpsilonConfig.make(0.3, 0.3, 0.3, 0.3)

    def test_assignments_agree_with_forced_halves(self):
        # compute_w_half never raises and every forced-half job keeps at
        # least one quarter, because the assignments are order-consistent
        checked = 0
        for inst in _forced_instances():
            matched = greedy_maximal_matching(comparability_graph(inst)).matched
            for var in sx.endpoint_variants(sx.normalize(inst)):
                vinst = var.base
                m_set = matched | 1 << var.v_begin | 1 << var.v_end
                for qa in sx.enumerate_quarter_assignments(
                    vinst, list(bits(m_set)), var.v_begin, var.v_end
                ):
                    m_ab, m_cd = qa.half_masks()
                    w_ab, w_cd = sx.compute_w_half(vinst, vinst.full_mask ^ m_set, m_ab, m_cd)
                    quarter_of = dict(zip(qa.members, qa.quarters))
                    assert list(_w_refinements(vinst, w_ab, w_cd, quarter_of))
                    checked += 1
        assert checked > 10_000

    def test_quarter_labels_keep_their_size(self, monkeypatch):
        # the labeled engine's keys carry exactly p_val label jobs above the
        # freeze size and at most p_val at or below it
        engines = []

        class RecordingDP(dp_module.SubsetDP):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(dp_module, "SubsetDP", RecordingDP)
        real = paper.solve_quarter_case
        checked = 0

        def checked_case(inst, ctx, case):
            nonlocal checked
            _, _, freeze, p_val, _ = quarter_case_filter(inst, ctx, case)
            engines.clear()
            try:
                return real(inst, ctx, case)
            finally:
                (engine,) = engines
                for key in engine.cost:
                    labels = (key >> inst.n).bit_count()
                    if (key & inst.full_mask).bit_count() > freeze:
                        assert labels == p_val
                    else:
                        assert labels <= p_val
                checked += 1

        monkeypatch.setattr(paper, "solve_quarter_case", checked_case)
        for inst in _forced_instances():
            sx.solve(inst, self.QUARTERS)
        assert checked > 80

    def test_independent_pools_fill_the_quotas(self, monkeypatch):
        # the four pools partition the jobs not pinned to a quarter, so the
        # pool sizes sum to the four quotas
        real = paper.solve_independent_case
        checked = 0

        def checked_case(inst, ctx, memos=None):
            nonlocal checked
            w_masks = ctx.w_masks(include_quarter_guesses=True)
            qa, qna, qnd, qd = ctx.q_sets()
            pools = (qa & qnd, qa & qd, qna & qnd, qna & qd)
            pinned = w_masks[0] | w_masks[1] | w_masks[2] | w_masks[3]
            assert pools[0] | pools[1] | pools[2] | pools[3] == inst.full_mask & ~pinned
            quotas = [inst.n // 4 - w.bit_count() for w in w_masks]
            assert sum(p.bit_count() for p in pools) == sum(quotas)
            checked += 1
            return real(inst, ctx, memos)

        monkeypatch.setattr(paper, "solve_independent_case", checked_case)
        for inst in _forced_instances():
            sx.solve(inst, self.SPLIT)
        assert checked > 1000


def _reversed(ordering):
    return sx.Ordering.from_sequence(ordering.sequence[::-1])


class TestBugTraps:
    """Each InternalInconsistency raise fires when the code it guards is
    made to misbehave."""

    CHAIN = sx.build_instance([3, 1, 1], [(0, 1), (1, 2)])  # one Sidney block

    def test_blocks_reject_an_invalid_schedule(self, monkeypatch):
        real = dp_module.SubsetDP.sequence
        monkeypatch.setattr(
            dp_module.SubsetDP, "sequence", lambda self, x, lab=0: real(self, x, lab)[::-1]
        )
        with pytest.raises(sx.InternalInconsistency, match="violate a precedence"):
            sx.solve(self.CHAIN)

    def test_blocks_reject_a_wrong_cost(self, monkeypatch):
        real = dp_module.SubsetDP.visit
        monkeypatch.setattr(
            dp_module.SubsetDP, "visit", lambda self, x, lab=0: real(self, x, lab) + 1
        )
        with pytest.raises(sx.InternalInconsistency, match="do not add up"):
            sx.solve(self.CHAIN)

    @staticmethod
    def _chain_split():
        vinst, ctx, _, _ = consistent_setup(
            sx.build_instance([5, 3, 8, 1, 4, 2, 7, 6], [(i, i + 1) for i in range(7)])
        )
        return vinst, ctx, paper._quarter_memos(vinst)

    def test_split_rejects_an_invalid_schedule(self):
        vinst, ctx, memos = self._chain_split()
        for memo in memos:
            memo.sequence = lambda x, lab=0, real=memo.sequence: real(x, lab)[::-1]
        with pytest.raises(sx.InternalInconsistency, match="violate precedence"):
            sx.solve_independent_case(vinst, ctx, memos)

    def test_split_rejects_a_wrong_cost(self):
        vinst, ctx, memos = self._chain_split()
        for memo in memos:
            memo.visit = lambda x, lab=0, real=memo.visit: real(x, lab) + 1
        with pytest.raises(sx.InternalInconsistency, match="disagrees with table total"):
            sx.solve_independent_case(vinst, ctx, memos)

    def test_search_rejects_an_invalid_ordering(self, monkeypatch):
        real = paper.solve_quarter_case

        def bad(inst, ctx, case):
            o, c, stats = real(inst, ctx, case)
            return _reversed(o), c, stats

        monkeypatch.setattr(paper, "solve_quarter_case", bad)
        with pytest.raises(sx.InternalInconsistency, match="produced an invalid ordering"):
            sx.solve(hub_out_instance(0), TestBranchInvariants.QUARTERS)

    def test_search_rejects_a_wrong_cost(self, monkeypatch):
        real = paper.solve_quarter_case

        def bad(inst, ctx, case):
            o, c, stats = real(inst, ctx, case)
            return o, c + 1, stats

        monkeypatch.setattr(paper, "solve_quarter_case", bad)
        with pytest.raises(sx.InternalInconsistency, match="misreported its cost"):
            sx.solve(hub_out_instance(0), TestBranchInvariants.QUARTERS)

    def test_search_without_a_schedule(self, monkeypatch):
        def infeasible(*args):
            raise Infeasible("forced")

        for name in ("solve_half_case", "solve_quarter_case", "solve_independent_case", "solve_filtered"):
            monkeypatch.setattr(paper, name, infeasible)
        with pytest.raises(sx.InternalInconsistency, match="no endpoint variant produced a schedule"):
            sx.solve(hub_out_instance(0), TestBranchInvariants.QUARTERS)

    def test_projection_is_revalidated(self, monkeypatch):
        real = paper.restrict_to_origin
        monkeypatch.setattr(paper, "restrict_to_origin", lambda norm, o: _reversed(real(norm, o)))
        with pytest.raises(sx.InternalInconsistency, match="projected optimum violates"):
            sx.solve(hub_out_instance(0), TestBranchInvariants.QUARTERS)
