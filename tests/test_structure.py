import pytest

import schedexact as sx
from schedexact import InstanceTooLarge

from conftest import all_subset_ideals, mask, random_instance


class TestComparabilityGraph:
    def test_chain_closure_triangle(self):
        inst = sx.transitive_closure([(0, 1), (1, 2)], 3)
        g = sx.comparability_graph(inst)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_antichain_edgeless(self):
        g = sx.comparability_graph(sx.build_instance([1] * 5, []))
        assert g.edges == ()

    def test_two_disjoint_pairs(self):
        g = sx.comparability_graph(sx.transitive_closure([(0, 1), (2, 3)], 4))
        assert g.edges == ((0, 1), (2, 3))


class TestGreedyMatching:
    def test_edgeless(self):
        res = sx.greedy_maximal_matching(sx.comparability_graph(sx.build_instance([1] * 3, [])))
        assert res.pairs == ()
        assert res.matched == 0
        assert res.antichain == 0b111

    def test_single_edge(self):
        res = sx.greedy_maximal_matching(sx.comparability_graph(sx.transitive_closure([(0, 1)], 3)))
        assert res.pairs == ((0, 1),)
        assert res.matched == mask(0, 1)

    def test_path_greedy_scan(self):
        # comparability path 0-1-2: scanning sorted edges takes (0,1), leaves 2
        inst = sx.transitive_closure([(0, 1), (1, 2)], 3)
        # drop the closure edge to get a genuine path graph
        from schedexact.structure import ComparabilityGraph, greedy_maximal_matching

        g = ComparabilityGraph(3, ((0, 1), (1, 2)))
        res = greedy_maximal_matching(g)
        assert res.pairs == ((0, 1),)
        assert res.antichain == mask(2)

    def test_pairs_comparable_and_disjoint(self):
        for seed in range(8):
            inst = random_instance(seed, 8, 0.3)
            res = sx.greedy_maximal_matching(sx.comparability_graph(inst))
            seen = 0
            for u, v in res.pairs:
                assert (inst.pred_masks[v] >> u) & 1 or (inst.succ_masks[v] >> u) & 1
                assert not seen & mask(u, v)
                seen |= mask(u, v)
            assert seen == res.matched
            assert res.matched | res.antichain == inst.full_mask

    def test_antichain_property(self):
        # maximality: no comparable pair survives inside the remainder
        for seed in range(8):
            inst = random_instance(seed + 50, 9, 0.4)
            res = sx.greedy_maximal_matching(sx.comparability_graph(inst))
            m = res.antichain
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                assert not inst.pred_masks[v] & res.antichain
                assert not inst.succ_masks[v] & res.antichain


class TestOrderIdeals:
    def test_antichain_power_set(self):
        assert sx.count_order_ideals(sx.build_instance([1] * 6, [])) == 64

    def test_chain_n_plus_one(self):
        inst = sx.transitive_closure([(i, i + 1) for i in range(6)], 7)
        assert sx.count_order_ideals(inst) == 8

    def test_two_disjoint_pairs_product(self):
        inst = sx.transitive_closure([(0, 1), (2, 3)], 4)
        assert sx.count_order_ideals(inst) == 9
        assert len(all_subset_ideals(inst)) == 9

    def test_lowest_job_not_minimal(self):
        # job 0 is the lowest but has a predecessor: ideals {}, {1}, {0, 1}
        assert sx.count_order_ideals(sx.transitive_closure([(1, 0)], 2)) == 3

    def test_matches_enumeration(self):
        for seed in range(10):
            inst = random_instance(seed + 7, 9, 0.35)
            assert sx.count_order_ideals(inst) == len(all_subset_ideals(inst))

    def test_cap(self):
        with pytest.raises(InstanceTooLarge):
            sx.count_order_ideals(sx.build_instance([1] * 25, []))


class TestIdealBound:
    def test_empty_matching_bound_tight(self):
        inst = sx.build_instance([1] * 4, [])
        res = sx.greedy_maximal_matching(sx.comparability_graph(inst))
        assert sx.count_order_ideals(inst) == sx.ideal_count_bound(4, res.num_pairs) == 16

    def test_two_pairs_bound_tight(self):
        inst = sx.transitive_closure([(0, 1), (2, 3)], 4)
        res = sx.greedy_maximal_matching(sx.comparability_graph(inst))
        assert res.num_pairs == 2
        assert sx.ideal_count_bound(4, 2) == 9

    def test_bound_holds_randomly(self):
        for seed in range(30):
            n = 6 + seed % 9
            inst = random_instance(seed, n, 0.1 + (seed % 5) * 0.2)
            res = sx.greedy_maximal_matching(sx.comparability_graph(inst))
            assert sx.count_order_ideals(inst) <= sx.ideal_count_bound(n, res.num_pairs)
