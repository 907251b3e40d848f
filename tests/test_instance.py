import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedexact as sx
from schedexact import (
    CyclicPrecedence,
    IndexOutOfRange,
    NotABijection,
    Ordering,
    PositionOutOfRange,
)
from schedexact.instance import submasks

from conftest import mask, min_cost_by_permutations, random_instance


class TestTransitiveClosure:
    def test_chain_closure_forced(self):
        inst = sx.transitive_closure([(0, 1), (1, 2)], 3)
        assert inst.precedence_pairs() == [(0, 1), (0, 2), (1, 2)]

    def test_empty_relation(self):
        inst = sx.transitive_closure([], 4)
        assert inst.precedence_pairs() == []

    def test_two_cycle_rejected(self):
        with pytest.raises(CyclicPrecedence) as err:
            sx.transitive_closure([(0, 1), (1, 0)], 2)
        assert set(err.value.cycle) == {0, 1}

    def test_self_loop_rejected(self):
        with pytest.raises(CyclicPrecedence):
            sx.transitive_closure([(1, 1)], 2)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            sx.transitive_closure([(0, 5)], 3)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative processing time -1"):
            sx.build_instance([2, -1], [])

    def test_first_cycle_in_dfs_order_is_named(self):
        # the DFS starts at job 0, so it names that cycle, not the one
        # listed first
        with pytest.raises(CyclicPrecedence) as err:
            sx.transitive_closure([(2, 3), (3, 2), (0, 1), (1, 0)], 4)
        assert str(err.value) == "precedence cycle: 0 -> 1 -> 0"

    def test_long_chain_closes_without_recursion(self):
        # far deeper than the default recursion limit
        n = 3000
        inst = sx.transitive_closure([(i, i + 1) for i in range(n - 1)], n)
        full = (1 << n) - 1
        assert inst.succ_masks[0] == full ^ 1
        assert inst.pred_masks[n - 1] == full ^ (1 << (n - 1))
        assert inst.succ_masks[n - 1] == 0 and inst.pred_masks[0] == 0

    def test_duplicate_edges_ignored(self):
        a = sx.transitive_closure([(0, 1), (0, 1)], 2)
        b = sx.transitive_closure([(0, 1)], 2)
        assert a == b

    def test_idempotent(self):
        inst = random_instance(5, 7, 0.4)
        again = sx.transitive_closure(inst.precedence_pairs(), inst.n)
        assert again.pred_masks == inst.pred_masks
        assert again.succ_masks == inst.succ_masks


class TestPredSuccSets:
    def test_chain_top(self):
        inst = sx.transitive_closure([(0, 1), (1, 2)], 3)
        assert sx.pred_set(inst, mask(2)) == mask(0, 1)

    def test_chain_bottom(self):
        inst = sx.transitive_closure([(0, 1), (1, 2)], 3)
        assert sx.pred_set(inst, mask(0)) == 0

    def test_two_preds(self):
        inst = sx.transitive_closure([(0, 2), (1, 2)], 3)
        assert sx.pred_set(inst, mask(2)) == mask(0, 1)

    def test_succ_mirror(self):
        inst = sx.transitive_closure([(0, 1), (1, 2)], 3)
        assert sx.succ_set(inst, mask(0)) == mask(1, 2)

    @given(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, u, v):
        inst = random_instance(17, 6, 0.4)
        small = u & v
        assert sx.pred_set(inst, small) & ~sx.pred_set(inst, u | v) == 0
        assert sx.succ_set(inst, small) & ~sx.succ_set(inst, u | v) == 0


class TestSubmasks:
    @pytest.mark.parametrize("m", [0, 0b1, 0b1011_0100, 0b1_0000_0000_0110])
    def test_every_subset_once_increasing(self, m):
        subs = list(submasks(m))
        assert subs == sorted(set(subs))
        assert len(subs) == 2 ** m.bit_count()
        assert all(sub & ~m == 0 for sub in subs)
        assert subs[0] == 0 and subs[-1] == m

    def test_empty_mask(self):
        assert list(submasks(0)) == [0]


class TestCosts:
    def test_job_cost_first(self):
        inst = sx.build_instance([0, 0, 3, 0], [])
        assert sx.job_cost(inst, 2, 1) == 12

    def test_job_cost_last(self):
        inst = sx.build_instance([0, 0, 3, 0], [])
        assert sx.job_cost(inst, 2, 4) == 3

    def test_job_cost_zero_time(self):
        inst = sx.build_instance([0, 5, 0], [])
        assert sx.job_cost(inst, 0, 2) == 0

    def test_job_cost_bad_position(self):
        inst = sx.build_instance([1, 1], [])
        with pytest.raises(PositionOutOfRange):
            sx.job_cost(inst, 0, 3)

    def test_ordering_cost_identity(self):
        inst = sx.build_instance([3, 5], [])
        assert sx.ordering_cost(inst, Ordering((1, 2))) == 11
        assert sx.ordering_cost(inst, Ordering((2, 1))) == 13

    def test_ordering_cost_shortest_first(self):
        inst = sx.build_instance([1, 2, 3], [])
        assert sx.ordering_cost(inst, Ordering((1, 2, 3))) == 10

    def test_ordering_cost_rejects_non_bijection(self):
        inst = sx.build_instance([1, 2], [])
        with pytest.raises(NotABijection):
            sx.ordering_cost(inst, Ordering((1, 1)))


class TestValidateOrdering:
    def test_respects_constraint(self):
        inst = sx.transitive_closure([(0, 1)], 2)
        assert sx.validate_ordering(inst, Ordering((1, 2)))

    def test_violates_constraint(self):
        inst = sx.transitive_closure([(0, 1)], 2)
        assert not sx.validate_ordering(inst, Ordering((2, 1)))

    def test_unconstrained_always_valid(self):
        inst = sx.build_instance([1, 1, 1], [])
        for seq in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            assert sx.validate_ordering(inst, Ordering.from_sequence(seq))


class TestNormalize:
    def test_pads_to_multiple_of_four(self):
        inst = sx.build_instance([1, 2, 3], [(0, 1)])
        norm = sx.normalize(inst)
        assert norm.base.n == 4
        assert norm.origin_map == (0, 1, 2, None)
        # the dummy has no constraints
        assert norm.base.pred_masks[3] == 0
        assert norm.base.succ_masks[3] == 0

    def test_zero_times_perturb_to_powers(self):
        inst = sx.build_instance([0, 0, 0, 0], [])
        norm = sx.normalize(inst)
        assert norm.base.times == (1, 5, 25, 125)

    def test_no_padding_when_divisible(self):
        inst = sx.build_instance([1] * 4, [])
        norm = sx.normalize(inst)
        assert norm.base.n == 4

    def test_times_pairwise_distinct(self):
        inst = sx.build_instance([7, 7, 7, 7, 7], [(0, 1)])
        norm = sx.normalize(inst)
        assert len(set(norm.base.times)) == norm.base.n

    def test_all_orderings_distinct_costs_exhaustive(self):
        # every valid ordering of a normalized instance has its own cost
        from schedexact import linear_extensions

        for seed, n, dens in ((1, 5, 0.0), (2, 6, 0.3), (3, 4, 0.6), (4, 6, 0.0)):
            inst = random_instance(seed, n, dens, tmax=3)
            norm = sx.normalize(inst)
            costs = [sx.ordering_cost(norm.base, o) for o in linear_extensions(norm.base)]
            assert len(costs) == len(set(costs))

    def test_perturbation_preserves_optimum(self):
        for seed in range(12):
            inst = random_instance(seed, 6, 0.3)
            norm = sx.normalize(inst)
            opt_norm, _ = sx.brute_force_optimal(norm.base)
            projected = sx.restrict_to_origin(norm, opt_norm)
            assert sx.validate_ordering(inst, projected)
            assert sx.ordering_cost(inst, projected) == min_cost_by_permutations(inst)


class TestEndpointVariants:
    def test_antichain_all_pairs(self):
        norm = sx.normalize(sx.build_instance([1, 2, 3, 4], []))
        assert sum(1 for _ in sx.endpoint_variants(norm)) == 12

    def test_chain_single_variant(self):
        norm = sx.normalize(sx.transitive_closure([(0, 1), (1, 2), (2, 3)], 4))
        variants = list(sx.endpoint_variants(norm))
        assert len(variants) == 1
        assert variants[0].v_begin == 0 and variants[0].v_end == 3

    def test_partial_order_variant_count(self):
        # one constraint 0 < 1, jobs 2 and 3 free: count by pair enumeration
        inst = sx.transitive_closure([(0, 1)], 4)
        begins = [v for v in range(4) if inst.pred_masks[v] == 0]
        ends = [v for v in range(4) if inst.succ_masks[v] == 0]
        expected = sum(1 for b in begins for e in ends if b != e)
        assert expected == 7
        norm = sx.normalize(inst)
        got = list(sx.endpoint_variants(norm))
        assert len(got) == expected

    def test_variant_pins_endpoints(self):
        norm = sx.normalize(sx.build_instance([1, 2, 3, 4], []))
        for var in sx.endpoint_variants(norm):
            vinst = var.base
            for v in range(vinst.n):
                if v not in (var.v_begin, var.v_end):
                    assert vinst.pred_masks[v] & (1 << var.v_begin)
                    assert vinst.succ_masks[v] & (1 << var.v_end)

    def test_variants_cover_global_optimum(self):
        for seed in range(6):
            inst = random_instance(seed + 40, 5, 0.3)
            norm = sx.normalize(inst)
            _, best = sx.brute_force_optimal(norm.base)
            variant_best = min(
                sx.brute_force_optimal(v.base)[1] for v in sx.endpoint_variants(norm)
            )
            assert variant_best == best


class TestJsonInterface:
    def test_roundtrip(self):
        text = sx.instance_to_json(3, [4, 3, 2], [(0, 1), (1, 2)])
        inst = sx.instance_from_json(text)
        assert inst.times == (4, 3, 2)
        assert inst.precedence_pairs() == [(0, 1), (0, 2), (1, 2)]

    def test_duplicate_edges_tolerated(self):
        text = json.dumps({"n": 2, "times": [1, 1], "precedences": [[0, 1], [0, 1]]})
        inst = sx.instance_from_json(text)
        assert inst.precedence_pairs() == [(0, 1)]

    def test_cycle_diagnostic_names_cycle(self):
        text = json.dumps({"n": 3, "times": [1, 1, 1], "precedences": [[0, 1], [1, 2], [2, 0]]})
        with pytest.raises(CyclicPrecedence) as err:
            sx.instance_from_json(text)
        assert len(err.value.cycle) >= 3

    def test_long_cycle_is_named_without_recursion(self):
        # far deeper than the default recursion limit
        n = 3000
        edges = [[i, (i + 1) % n] for i in range(n)]
        text = json.dumps({"n": n, "times": [1] * n, "precedences": edges})
        with pytest.raises(CyclicPrecedence) as err:
            sx.instance_from_json(text)
        assert err.value.cycle == list(range(n)) + [0]

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            '{"n": 2, "times": [1], "precedences": []}',
            '{"n": 2, "times": [1, -1], "precedences": []}',
            '{"n": 2, "times": [1, 1], "precedences": [[0]]}',
            '{"n": "x", "times": [], "precedences": []}',
            '{"n": true, "times": [1], "precedences": []}',
            '{"n": 1, "times": [true], "precedences": []}',
            '{"n": 2, "times": [1, 1], "precedences": [[false, true]]}',
            '{"n": 2, "times": [1, 1], "precedences": {"0": 1}}',
            "not json",
            '{"n": 1, "times": [1]}',
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(ValueError):
            sx.instance_from_json(payload)
