import random

import pytest

import schedexact as sx
from schedexact import NotASubset, SetTooLarge
from schedexact.instance import bits

from conftest import mask, random_instance


def two_succ_instance():
    # x=0, y=1 both precede w=2; t(x)=2 > t(y)=1
    return sx.build_instance([2, 1, 5], [(0, 2), (1, 2)])


def two_pred_instance():
    # w=2 precedes x=0 and y=1; t(x)=2 > t(y)=1
    return sx.build_instance([2, 1, 5], [(2, 0), (2, 1)])


K2 = mask(0, 1)


class TestDefinitions:
    def test_succ_witness(self):
        inst = two_succ_instance()
        assert sx.is_succ_exchangeable(inst, mask(0), K2)

    def test_succ_no_witness(self):
        inst = two_succ_instance()
        assert not sx.is_succ_exchangeable(inst, mask(1), K2)

    def test_succ_empty_label(self):
        inst = two_succ_instance()
        assert not sx.is_succ_exchangeable(inst, 0, K2)

    def test_pred_full_label(self):
        inst = two_pred_instance()
        assert not sx.is_pred_exchangeable(inst, K2, K2)

    def test_pred_witness(self):
        inst = two_pred_instance()
        assert sx.is_pred_exchangeable(inst, mask(0), K2)

    def test_pred_no_witness(self):
        inst = two_pred_instance()
        assert not sx.is_pred_exchangeable(inst, mask(1), K2)

    def test_not_a_subset(self):
        inst = two_succ_instance()
        with pytest.raises(NotASubset):
            sx.is_succ_exchangeable(inst, mask(2), K2)

    def test_no_successors_edge_case(self):
        # a member with no successors satisfies the witness condition vacuously
        inst = sx.build_instance([3, 1], [])
        assert sx.is_succ_exchangeable(inst, mask(0), mask(0, 1))


class TestEncodeDecode:
    def test_encode_succ_full_is_empty(self):
        inst = two_succ_instance()
        assert sx.encode_succ(inst, K2, K2) == 0

    def test_encode_succ_picks_cheapest(self):
        inst = two_succ_instance()
        assert sx.encode_succ(inst, 0, K2) == mask(1)
        assert sx.encode_succ(inst, mask(1), K2) == mask(0)

    def test_decode_succ_vacuous(self):
        inst = two_succ_instance()
        assert sx.decode_succ(inst, 0, K2) == K2

    def test_decode_succ_cases(self):
        inst = two_succ_instance()
        assert sx.decode_succ(inst, mask(0), K2) == mask(1)
        assert sx.decode_succ(inst, mask(1), K2) == 0

    def test_encode_pred_empty(self):
        inst = two_pred_instance()
        assert sx.encode_pred(inst, 0, K2) == 0

    def test_encode_pred_picks_priciest(self):
        inst = two_pred_instance()
        assert sx.encode_pred(inst, K2, K2) == mask(0)

    def test_decode_pred_contains_fingerprint(self):
        inst = two_pred_instance()
        # every x in Z certifies itself, and cheaper jobs ride along
        assert sx.decode_pred(inst, mask(0), K2) == mask(0, 1)
        assert sx.decode_pred(inst, mask(1), K2) == mask(1)

    def test_disjointness_and_containment(self):
        for seed in range(40):
            inst, k = _random_config(seed)
            for y in range(k + 1):
                if y & ~k:
                    continue
                f = sx.encode_succ(inst, y, k)
                assert f & y == 0
                g = sx.decode_succ(inst, f, k)
                assert g & f == 0
                fp = sx.encode_pred(inst, y, k)
                assert fp & ~y == 0
                gp = sx.decode_pred(inst, fp, k)
                assert fp & ~gp == 0


def _random_config(seed, max_k=6, max_m=3):
    rng = random.Random(seed)
    while True:
        kk = rng.randint(1, max_k)
        mm = rng.randint(1, max_m)
        n = kk + mm
        times = rng.sample(range(1, 300), n)
        edges = []
        for i in range(kk):
            for j in range(kk, n):
                r = rng.random()
                if r < 0.35:
                    edges.append((i, j))
                elif r < 0.6:
                    edges.append((j, i))
        try:
            return sx.build_instance(times, edges), (1 << kk) - 1
        except sx.CyclicPrecedence:
            seed += 10007


class TestRoundtrip:
    @pytest.mark.parametrize("mode", ["succ", "pred"])
    def test_iff_law_exhaustive(self, mode):
        enc = sx.encode_succ if mode == "succ" else sx.encode_pred
        dec = sx.decode_succ if mode == "succ" else sx.decode_pred
        exch = sx.is_succ_exchangeable if mode == "succ" else sx.is_pred_exchangeable
        for seed in range(60):
            inst, k = _random_config(seed)
            sub = k
            while True:
                non_exch = not exch(inst, sub, k)
                roundtrip = dec(inst, enc(inst, sub, k), k) == sub
                assert non_exch == roundtrip, (seed, mode, bin(sub))
                if sub == 0:
                    break
                sub = (sub - 1) & k

    def test_sandwich_laws(self):
        for seed in range(40):
            inst, k = _random_config(seed + 300)
            sub = k
            while True:
                assert sx.decode_succ(inst, sx.encode_succ(inst, sub, k), k) & ~sub == 0
                assert sub & ~sx.decode_pred(inst, sx.encode_pred(inst, sub, k), k) == 0
                if sub == 0:
                    break
                sub = (sub - 1) & k


class TestEnumeration:
    def test_worked_example(self):
        inst = two_succ_instance()
        got = sx.enumerate_non_exchangeable(inst, K2, "succ")
        assert sorted(got) == [0, mask(1), mask(0, 1)]
        assert sx.non_exchangeable_bound(inst, K2, "succ") == 3

    def test_empty_ground(self):
        inst = sx.build_instance([1], [])
        assert sx.enumerate_non_exchangeable(inst, 0, "succ") == [0]

    def test_counting_bound(self):
        for seed in range(40):
            inst, k = _random_config(seed + 900, max_k=8, max_m=4)
            for mode in ("succ", "pred"):
                count = len(sx.enumerate_non_exchangeable(inst, k, mode))
                assert count <= sx.non_exchangeable_bound(inst, k, mode)

    def test_cap(self):
        inst = sx.build_instance([1] * 17, [])
        with pytest.raises(SetTooLarge):
            sx.enumerate_non_exchangeable(inst, inst.full_mask, "succ")

    def test_bad_mode(self):
        inst = sx.build_instance([1], [])
        with pytest.raises(ValueError):
            sx.enumerate_non_exchangeable(inst, 0, "both")

    def test_bad_mode_bound(self):
        inst = sx.build_instance([1], [])
        with pytest.raises(ValueError, match="mode must be 'succ' or 'pred'"):
            sx.non_exchangeable_bound(inst, 0, "both")


class TestPredSideOracle:
    """The pred-side functions against set restatements of their docstrings."""

    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_docstrings_on_every_subset(self, tied):
        checked = 0
        for seed in range(200):
            inst, k = _random_config(seed + 70_000)
            if tied:  # few distinct times, so the tie-breaks decide
                inst = sx.Instance(tuple(t % 3 for t in inst.times), inst.pred_masks, inst.succ_masks)
            t = inst.times
            pred = [set(bits(m)) for m in inst.pred_masks]
            succ = [set(bits(m)) for m in inst.succ_masks]
            kset = set(bits(k))
            outside_preds = set().union(*(pred[v] for v in kset))
            for sub in range(k + 1):
                if sub & ~k:
                    continue
                s = set(bits(sub))
                exch = any(
                    all(any(t[u] > t[v] for u in s & succ[w]) for w in pred[v])
                    for v in kset - s
                )
                enc = {
                    max(s & succ[w], key=lambda v: (t[v], -v))
                    for w in outside_preds
                    if s & succ[w]
                }
                dec = {
                    v for v in kset
                    if all(any(t[x] >= t[v] for x in s & succ[w]) for w in pred[v])
                }
                assert sx.is_pred_exchangeable(inst, sub, k) == exch, (seed, bin(sub))
                assert set(bits(sx.encode_pred(inst, sub, k))) == enc, (seed, bin(sub))
                assert set(bits(sx.decode_pred(inst, sub, k))) == dec, (seed, bin(sub))
                checked += 1
        assert checked > 2000


class TestPrefixLaw:
    def test_optimal_prefixes_non_exchangeable(self):
        # after endpoint pinning, every ground set whose outside predecessors
        # (successors) are scheduled strictly before (after) it has all its
        # optimal-prefix intersections non-exchangeable
        from schedexact.structure import comparability_graph, greedy_maximal_matching

        checked = 0
        for seed in range(25):
            inst = random_instance(seed, 6, 0.3)
            norm = sx.normalize(inst)
            bo, _ = sx.brute_force_optimal(norm.base)
            vb, ve = bo.sequence[0], bo.sequence[-1]
            var = next(
                v for v in sx.endpoint_variants(norm) if v.v_begin == vb and v.v_end == ve
            )
            vinst = var.base
            vo, _ = sx.brute_force_optimal(vinst)
            pos = vo.positions
            res = greedy_maximal_matching(comparability_graph(vinst))
            i1 = res.antichain & ~mask(vb, ve)
            sub = i1
            while True:
                k = sub
                if k:
                    preds = sx.pred_set(vinst, k)
                    succs = sx.succ_set(vinst, k)
                    k_first = min(pos[v] for v in bits(k))
                    k_last = max(pos[v] for v in bits(k))
                    if preds == 0 or max(pos[v] for v in bits(preds)) < k_first:
                        for x in _prefixes(vo, k):
                            assert not sx.is_succ_exchangeable(vinst, x, k)
                        checked += 1
                    if succs == 0 or min(pos[v] for v in bits(succs)) > k_last:
                        for x in _prefixes(vo, k):
                            assert not sx.is_pred_exchangeable(vinst, x, k)
                        checked += 1
                if sub == 0:
                    break
                sub = (sub - 1) & i1
        assert checked > 50


def _prefixes(ordering, k):
    x = 0
    out = [0 & k]
    for v in ordering.sequence:
        x |= 1 << v
        out.append(x & k)
    return out
