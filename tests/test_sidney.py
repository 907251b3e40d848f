"""Sidney decomposition: block structure and differential checks of the
dcdp route, which solves each block on its own, against brute and plain dp."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedexact as sx
from schedexact.gen import MODELS, generate, to_instance

from conftest import mask, random_instance

MIXED = [
    (model, n, density, tmax)
    for model in MODELS
    for n in (0, 1, 5, 9)
    for density in (0.0, 0.3, 0.6, 0.9)
    for tmax in (0, 1, 3, 20)
    if n < 9 or density > 0  # brute on a 9-job antichain is slow
]


def _ratio_key(inst, s: int):
    """|s| / t(s) as a sortable key; a zero-time set ranks above all."""
    t = sum(inst.times[v] for v in range(inst.n) if s >> v & 1)
    return (1, 0) if t == 0 else (0, Fraction(s.bit_count(), t))


def _closed_in(inst, x: int, rest: int) -> bool:
    return all(
        not inst.pred_masks[v] & rest & ~x for v in range(inst.n) if x >> v & 1
    )


def _check_blocks(inst):
    blocks = sx.sidney_blocks(inst)
    assert sum(blocks) == inst.full_mask
    assert all(b for b in blocks)
    rest = inst.full_mask
    for block in blocks:
        assert not block & ~rest
        assert _closed_in(inst, block, rest)
        ideals = _all_rest_ideals(inst, rest)
        # ratio-maximal among the ideals of what is left ...
        best = max(_ratio_key(inst, x) for x in ideals)
        assert _ratio_key(inst, block) == best
        # ... and no proper nonempty sub-ideal attains that ratio
        for x in ideals:
            if x != block and not x & ~block:
                assert _ratio_key(inst, x) < best
        rest &= ~block


def _block_instance(inst, jobs: list[int]):
    """The instance on the listed jobs alone, built afresh; its job i is jobs[i]."""
    index = {v: i for i, v in enumerate(jobs)}
    edges = [(index[u], index[v]) for u in jobs for v in jobs if inst.pred_masks[v] >> u & 1]
    return sx.build_instance([inst.times[v] for v in jobs], edges)


def _all_rest_ideals(inst, rest: int) -> list[int]:
    out = []
    sub = rest
    while sub:
        if _closed_in(inst, sub, rest):
            out.append(sub)
        sub = (sub - 1) & rest
    return out


class TestBlocks:
    def test_pinned_decomposable(self):
        # 2 has t=0 and goes first; {0, 1} has ratio 2/3; of {4} and {4, 5}
        # (both 1/3) the smaller is the block; then 5 (1/3) before 3 (1/6).
        inst = sx.build_instance([2, 1, 0, 6, 3, 3], [(0, 1), (2, 3), (4, 5)])
        assert sx.sidney_blocks(inst) == [mask(2), mask(0, 1), mask(4), mask(5), mask(3)]
        o, c, rep = sx.solve(inst)
        assert o.sequence == (2, 0, 1, 4, 5, 3)
        assert c == sx.brute_force_optimal(inst)[1] == 35
        assert (rep.chosen_path, rep.blocks, rep.max_block) == ("dcdp", 5, 2)
        # four one-job blocks of 2 states each, a two-job chain of 3
        assert rep.stats_total.states_expanded == 11
        assert rep.stats_total.peak_table_size == 3

    def test_pinned_indecomposable(self):
        # {0}: 1/5, {0, 1}: 2/6, {0, 1, 2}: 3/7 -- the whole set is the only block
        inst = sx.build_instance([5, 1, 1], [(0, 1), (0, 2)])
        assert sx.sidney_blocks(inst) == [mask(0, 1, 2)]
        o, c, rep = sx.solve(inst)
        assert c == 18
        assert (rep.blocks, rep.max_block) == (1, 3)
        assert rep.stats_total.states_expanded == sx.count_order_ideals(inst) == 5

    def test_smallest_of_tied_candidates(self):
        # {0, 1} and {2} both have ratio 1/2; the block is the smaller one
        inst = sx.build_instance([3, 1, 2], [(0, 1)])
        assert sx.sidney_blocks(inst) == [mask(2), mask(0, 1)]

    def test_report_json_has_blocks(self):
        inst = sx.build_instance([4, 3, 2, 1], [(0, 1), (1, 2)])
        _, _, rep = sx.solve(inst)
        js = rep.to_json()
        assert '"blocks": 2' in js and '"max_block": 3' in js

    def test_empty_instance(self):
        assert sx.sidney_blocks(sx.build_instance([], [])) == []

    def test_antichain_is_shortest_first(self):
        times = [5, 2, 9, 2, 0, 7]
        inst = sx.build_instance(times, [])
        blocks = sx.sidney_blocks(inst)
        seq = [b.bit_length() - 1 for b in blocks]
        assert all(b.bit_count() == 1 for b in blocks)
        assert seq == [4, 1, 3, 0, 5, 2]  # ties in index order

    def test_zero_time_jobs_come_first_one_by_one(self):
        # 2 has t=0 but waits on 3, and {3, 2} (2/4) beats {3} (1/4)
        inst = sx.build_instance([0, 0, 0, 4], [(0, 1), (3, 2)])
        assert sx.sidney_blocks(inst) == [mask(0), mask(1), mask(2, 3)]

    def test_single_chain(self):
        # rising ratio along the chain keeps it whole; falling splits it
        rising = sx.build_instance([9, 1, 1, 1], [(0, 1), (1, 2), (2, 3)])
        assert sx.sidney_blocks(rising) == [rising.full_mask]
        falling = sx.build_instance([1, 2, 3, 4], [(0, 1), (1, 2), (2, 3)])
        assert sx.sidney_blocks(falling) == [mask(0), mask(1), mask(2), mask(3)]

    @pytest.mark.parametrize("model,n,density,tmax", [c for c in MIXED if 0 < c[1] <= 7])
    def test_blocks_are_minimal_ratio_maximal_ideals(self, model, n, density, tmax):
        for seed in range(3):
            _check_blocks(to_instance(generate(model, n, density, tmax, seed)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.0, 0.2, 0.5, 0.8]),
        st.sampled_from([0, 1, 2, 9]),
    )
    def test_blocks_hypothesis(self, n, seed, density, tmax):
        _check_blocks(random_instance(seed, n, density, tmax))


class TestDifferential:
    @pytest.mark.parametrize("model,n,density,tmax", MIXED)
    def test_cost_equals_brute_and_dp(self, model, n, density, tmax):
        for seed in range(4):
            inst = to_instance(generate(model, n, density, tmax, seed))
            o, c, rep = sx.solve(inst)
            assert sx.validate_ordering(inst, o)
            assert sx.ordering_cost(inst, o) == c
            assert c == sx.solve_filtered(inst)[1] == sx.brute_force_optimal(inst)[1]

    def test_larger_instances_match_plain_dp(self):
        rng = random.Random(11)
        for _ in range(12):
            model = rng.choice(MODELS)
            inst = to_instance(generate(model, rng.randint(10, 13), 0.5, rng.choice([1, 20]), rng.randrange(10**6)))
            o, c, rep = sx.solve(inst)
            assert c == sx.solve_filtered(inst)[1]
            if rep.chosen_path == "dcdp":
                assert 1 <= rep.max_block <= inst.n

    def test_normalized_orderings_equal_plain_dp(self):
        # perturbed times make the optimum unique, so the block route must
        # return exactly plain dp's ordering
        for seed in range(30):
            inst = random_instance(seed + 300, 1 + seed % 10, 0.4, tmax=seed % 4)
            base = sx.normalize(inst).base
            o, _, rep = sx.solve(base)
            if rep.chosen_path != "dcdp":
                continue
            assert o.positions == sx.solve_filtered(base)[0].positions

    def test_tied_times(self):
        for seed in range(10):
            inst = random_instance(seed + 500, 8, 0.3, tmax=1)
            o, c, _ = sx.solve(inst)
            assert c == sx.brute_force_optimal(inst)[1]

    @pytest.mark.parametrize("tmax", [0, 1, 20])  # all zero, many ties, spread
    @pytest.mark.parametrize("model", MODELS)
    def test_each_block_is_plain_dp_on_its_own_instance(self, model, tmax):
        # the block route's slice of the schedule, and its state counts, are
        # those of plain dp on an instance built from the block's jobs alone
        checked = 0
        for n in (2, 5, 8, 11):
            for density in (0.1, 0.3, 0.6):
                for seed in range(3):
                    inst = to_instance(generate(model, n, density, tmax, seed))
                    o, _, rep = sx.solve(inst)
                    if rep.chosen_path != "dcdp":
                        continue
                    start = 0
                    summed = sx.DpStats()
                    for block in sx.sidney_blocks(inst):
                        jobs = [v for v in range(inst.n) if block >> v & 1]
                        sub_o, _, stats = sx.solve_filtered(_block_instance(inst, jobs))
                        assert o.sequence[start:start + len(jobs)] == tuple(jobs[i] for i in sub_o.sequence)
                        start += len(jobs)
                        summed.add(stats)
                    assert rep.stats_total == summed
                    checked += 1
        assert checked >= 10

    def test_states_bounded_by_plain_dp(self):
        # earlier blocks plus an ideal of block i is an ideal of the whole
        # instance; consecutive blocks share one such set, hence the bound
        for seed in range(10):
            inst = random_instance(seed + 700, 10, 0.3, tmax=9)
            _, _, rep = sx.solve(inst)
            if rep.chosen_path == "dcdp":
                plain = sx.solve_filtered(inst)[2].states_expanded
                assert rep.stats_total.states_expanded <= plain + rep.blocks - 1
