import gc
import tracemalloc
from itertools import permutations

import pytest

import schedexact as sx
from schedexact import Infeasible, Ordering
from schedexact.dp import SubsetDP
from schedexact.instance import bits, mirror

from conftest import all_subset_ideals, labeled_trace, mask, prefix_trace, random_instance


class TestSetPrimitives:
    def test_downward_closed(self):
        inst = sx.transitive_closure([(0, 1)], 2)
        assert sx.is_downward_closed(inst, 0)
        assert sx.is_downward_closed(inst, mask(0))
        assert not sx.is_downward_closed(inst, mask(1))


class TestSolveFiltered:
    def test_always_accept_antichain(self):
        inst = sx.build_instance([1, 2, 3], [])
        o, c, stats = sx.solve_filtered(inst)
        assert c == 10
        assert stats.states_expanded == 8

    def test_downward_closed_chain_states(self):
        inst = sx.transitive_closure([(0, 1), (1, 2)], 3)
        inst = sx.build_instance([3, 2, 1], [(0, 1), (1, 2)])
        o, c, stats = sx.solve_filtered(inst, lambda x: sx.is_downward_closed(inst, x))
        assert o.sequence == (0, 1, 2)
        assert c == 3 * 3 + 2 * 2 + 1 * 1
        assert stats.states_expanded == 4

    def test_rejecting_all_singletons_infeasible(self):
        inst = sx.build_instance([1, 2], [])
        with pytest.raises(Infeasible):
            sx.solve_filtered(inst, lambda x: x.bit_count() != 1)

    def test_matches_brute_force(self):
        for seed in range(10):
            inst = random_instance(seed, 7, 0.3)
            bo, bc = sx.brute_force_optimal(inst)
            o, c, _ = sx.solve_filtered(inst)
            assert c == bc
            o2, c2, _ = sx.solve_filtered(inst, lambda x: sx.is_downward_closed(inst, x))
            assert c2 == bc

    def test_normalized_orderings_identical(self):
        for seed in range(6):
            norm = sx.normalize(random_instance(seed, 6, 0.3))
            inst = norm.base
            bo, _ = sx.brute_force_optimal(inst)
            o, _, _ = sx.solve_filtered(inst)
            o2, _, _ = sx.solve_filtered(inst, lambda x: sx.is_downward_closed(inst, x))
            assert o.positions == bo.positions == o2.positions

    def test_states_equal_ideal_count(self):
        for seed, n, dens in ((0, 8, 0.3), (1, 10, 0.2), (2, 9, 0.5)):
            inst = random_instance(seed, n, dens)
            _, _, stats = sx.solve_filtered(inst, lambda x: sx.is_downward_closed(inst, x))
            assert stats.states_expanded == len(all_subset_ideals(inst))
            assert stats.states_expanded == sx.count_order_ideals(inst)

    def test_states_equal_ideal_count_n16(self):
        inst = random_instance(5, 16, 0.25)
        _, _, stats = sx.solve_filtered(inst, lambda x: sx.is_downward_closed(inst, x))
        assert stats.states_expanded == sx.count_order_ideals(inst)

    def test_filter_monotonicity(self):
        # a laxer filter can only do as well or better
        inst = random_instance(31, 6, 0.2)
        full = inst.full_mask
        blocked = mask(1, 3)

        def tight(x):
            return x in (0, full) or x.bit_count() % 2 == 0 or not x & blocked

        def lax(x):
            return True

        _, c_lax, _ = sx.solve_filtered(inst, lax)
        try:
            _, c_tight, _ = sx.solve_filtered(inst, tight)
        except Infeasible:
            c_tight = None
        assert c_tight is None or c_lax <= c_tight

    def test_mirror_matches_forward(self):
        # the DP on the mirror, shifted by (n + 1) * sum(t) and read
        # backwards, is an optimum of the instance
        for seed in range(6):
            inst = random_instance(seed + 60, 6, 0.4)
            _, c_fwd, _ = sx.solve_filtered(inst)
            dp = SubsetDP(mirror(inst))
            c_mir = dp.visit(inst.full_mask) + (inst.n + 1) * sum(inst.times)
            o_mir = Ordering.from_sequence(dp.sequence(inst.full_mask)[::-1])
            assert c_fwd == c_mir
            assert sx.validate_ordering(inst, o_mir)
            assert sx.ordering_cost(inst, o_mir) == c_fwd

    def test_does_not_hard_fail_at_moderate_n(self):
        chain = sx.build_instance(list(range(40, 0, -1)), [(i, i + 1) for i in range(39)])
        o, c, stats = sx.solve_filtered(chain, lambda x: sx.is_downward_closed(chain, x))
        assert o.sequence == tuple(range(40))
        assert stats.states_expanded == 41


def _extensions(inst, z):
    """Orders of the jobs of z that respect every precedence among them."""
    jobs = [v for v in range(inst.n) if z >> v & 1]
    for perm in permutations(jobs):
        pos = {v: i for i, v in enumerate(perm)}
        if all(not inst.pred_masks[v] >> u & 1 for u in jobs for v in jobs if pos[u] > pos[v]):
            yield perm


class TestSubsetDP:
    def test_offset_cost_is_the_coefficient_form(self):
        # a subset z placed from absolute position offset + 1: the i-th job
        # of z costs (n - offset - i + 1) * t
        inst = random_instance(7, 8, 0.3)
        n, z, offset = inst.n, mask(0, 2, 3, 5, 6), 2
        first = offset + 1
        brute = min(
            sum((n - (first + i) + 1) * inst.times[v] for i, v in enumerate(perm))
            for perm in _extensions(inst, z)
        )
        dp = SubsetDP(inst, offset=offset)
        assert dp.visit(z) == brute
        seq = dp.sequence(z)
        assert tuple(seq) in set(_extensions(inst, z))
        assert sum((n - (first + i) + 1) * inst.times[v] for i, v in enumerate(seq)) == brute

    @pytest.mark.parametrize("offset", [0, 2])
    def test_mirror_cost_is_the_shifted_suffix_form(self, offset):
        # a subset z ending at absolute position n - offset: the i-th job of
        # z costs (offset + |z| - i + 1) * t. The engine on the mirror
        # reports that minimum minus (n + 1) * t(z), and its sequence,
        # read backwards, orders z
        inst = random_instance(7, 8, 0.3)
        n, z = inst.n, mask(0, 2, 3, 5, 6)
        first = n - offset - z.bit_count() + 1
        brute = min(
            sum((n - (first + i) + 1) * inst.times[v] for i, v in enumerate(perm))
            for perm in _extensions(inst, z)
        )
        dp = SubsetDP(mirror(inst), offset=offset)
        assert dp.visit(z) + (n + 1) * sum(inst.times[v] for v in bits(z)) == brute
        seq = dp.sequence(z)[::-1]
        assert tuple(seq) in set(_extensions(inst, z))
        assert sum((n - (first + i) + 1) * inst.times[v] for i, v in enumerate(seq)) == brute

    def test_unfiltered_tables_count_the_empty_state_from_the_start(self):
        inst = random_instance(3, 6, 0.3)
        dp = SubsetDP(inst)
        assert dp.stats() == sx.DpStats(1, 0, 1)
        dp.visit(mask(0, 1))
        after_first = dp.stats()
        # a second top state reuses the tables and only adds its new states
        dp.visit(mask(0, 1, 2))
        assert dp.stats().states_expanded > after_first.states_expanded
        assert SubsetDP(inst, lambda x, lab: True).stats() == sx.DpStats(0, 0, 0)


class TestStats:
    def test_add_sums_states_and_keeps_the_largest_peak(self):
        total = sx.DpStats()
        total.add(sx.DpStats(5, 1, 6))
        total.add(sx.DpStats(3, 0, 3))
        assert (total.states_expanded, total.states_rejected, total.peak_table_size) == (8, 1, 6)


class TestTablesFreed:
    @pytest.mark.parametrize(
        "run",
        [
            lambda inst: sx.solve_filtered(inst),
            lambda inst: sx.solve_filtered_labeled(inst, 0b1111),
        ],
    )
    def test_nothing_held_after_return_without_gc(self, run):
        # 2^12 states: about half a megabyte if the tables outlived the call
        inst = sx.build_instance(list(range(1, 13)), [])
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(inst)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert held < 20_000


class TestSolveFilteredLabeled:
    def test_empty_domain_degenerates(self):
        for seed in range(4):
            inst = random_instance(seed + 10, 6, 0.3)
            _, c_plain, _ = sx.solve_filtered(inst)
            o, c, _ = sx.solve_filtered_labeled(inst, 0, None, freeze_size=inst.n // 4, label_target=0)
            assert c == c_plain

    def test_full_domain_accept_all_matches_plain(self):
        inst = sx.build_instance([4, 1, 3, 2], [])
        bo, bc = sx.brute_force_optimal(inst)
        o, c, _ = sx.solve_filtered_labeled(inst, inst.full_mask, None)
        assert c == bc

    def test_label_cap_filter_hurts_or_kills(self):
        # optimum puts both label-domain jobs into the first quarter of an
        # 8-job instance; capping |L| at 1 must lose exactly that schedule
        times = [1, 2, 30, 40, 50, 60, 70, 80]
        inst = sx.build_instance(times, [])
        domain = mask(0, 1)
        bo, bc = sx.brute_force_optimal(inst, cap=8)
        assert {bo.sequence[0], bo.sequence[1]} == {0, 1}

        def accept(x, lab):
            return lab.bit_count() <= 1

        got = None
        best = None
        for target in (0, 1):
            try:
                _, c, _ = sx.solve_filtered_labeled(
                    inst, domain, accept, freeze_size=2, label_target=target
                )
            except Infeasible:
                continue
            best = c if best is None else min(best, c)
        assert best is None or best > bc

    def test_labeled_equals_brute_on_quarter_split(self):
        for seed in range(5):
            inst = random_instance(seed + 70, 8, 0.25)
            domain = mask(0, 2, 5)
            bo, bc = sx.brute_force_optimal(inst)
            best = None
            for target in range(0, 4):
                try:
                    _, c, _ = sx.solve_filtered_labeled(
                        inst, domain, None, freeze_size=2, label_target=target
                    )
                except Infeasible:
                    continue
                best = c if best is None else min(best, c)
            assert best == bc

    def test_mirror_labeled_equals_brute(self):
        # labels over schedule suffixes: the labeled DP on the mirror, its
        # positions flipped and its cost shifted by (n + 1) * sum(t)
        for seed in range(5):
            inst = random_instance(seed + 90, 8, 0.25)
            n, domain = inst.n, mask(1, 4, 6)
            shift = (n + 1) * sum(inst.times)
            bo, bc = sx.brute_force_optimal(inst)
            best = None
            for target in range(0, 4):
                try:
                    o, c, _ = sx.solve_filtered_labeled(
                        mirror(inst), domain, None, freeze_size=2, label_target=target
                    )
                except Infeasible:
                    continue
                flipped = Ordering(tuple(n + 1 - p for p in o.positions))
                assert sx.validate_ordering(inst, flipped)
                assert sx.ordering_cost(inst, flipped) == c + shift
                best = c + shift if best is None else min(best, c + shift)
            assert best == bc

    def test_label_target_required_when_frozen(self):
        inst = sx.build_instance([1, 2, 3, 4], [])
        with pytest.raises(ValueError):
            sx.solve_filtered_labeled(inst, mask(0), None, freeze_size=1)


class TestTraces:
    def test_prefix_trace_shapes(self):
        o = Ordering.from_sequence((2, 0, 1))
        assert prefix_trace(o) == [0, 0b100, 0b101, 0b111]

    def test_labeled_trace_freeze(self):
        o = Ordering.from_sequence((2, 0, 1, 3))
        domain = mask(0, 1)
        trace = labeled_trace(o, domain, 2)
        assert trace == [(0, 0), (0b0100, 0), (0b0101, 0b0001), (0b0111, 0b0001), (0b1111, 0b0001)]
