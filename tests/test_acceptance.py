"""Acceptance suite: every criterion runs at its stated tolerance (exact
integer comparisons throughout) and prints one PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time

import pytest

import schedexact as sx
from schedexact.gen import generate, to_instance
from schedexact.paper import CASE_DELTA, half_case_filter, quarter_case_filter
from schedexact.structure import comparability_graph, greedy_maximal_matching

from conftest import labeled_trace, prefix_trace

CONFIG_DEFAULT = None
CONFIG_FORCED = sx.EpsilonConfig.make(0.2, 0.22, 0.24, 0.26)
CONFIG_QUARTER = sx.EpsilonConfig.make(0.2, 0.21, 0.22, 0.23)

SWEEP_COMBOS = list(itertools.product(range(3, 10), (0.0, 0.2, 0.5, 0.9)))


def _sweep_instance(seed: int):
    n, density = SWEEP_COMBOS[(seed - 1) % len(SWEEP_COMBOS)]
    return to_instance(generate("random-dag", n, density, 9, seed))


def _consistent_setup(inst):
    norm = sx.normalize(inst)
    base = norm.base
    bo, _ = sx.brute_force_optimal(base)
    vb, ve = bo.sequence[0], bo.sequence[-1]
    var = next(v for v in sx.endpoint_variants(norm) if v.v_begin == vb and v.v_end == ve)
    vo, vc = sx.brute_force_optimal(var.base)
    res = greedy_maximal_matching(comparability_graph(base))
    ctx = sx.consistent_context(var.base, vb, ve, res.matched, vo)
    return var.base, ctx, vo, vc


# crafted families with deterministic dispatch under the configs above


def hub_out_instance(seed):
    rng = random.Random(seed)
    times = [rng.randint(5, 8), rng.randint(25, 30), rng.randint(31, 40),
             1, 2, rng.randint(10, 12), rng.randint(13, 15), rng.randint(45, 50)]
    return sx.build_instance(times, [(0, 1), (0, 2)])


def hub_in_instance(seed):
    rng = random.Random(seed)
    times = [rng.randint(8, 10), 1, 2, rng.randint(3, 4), rng.randint(5, 6),
             rng.randint(6, 7), rng.randint(20, 25), rng.randint(30, 40)]
    return sx.build_instance(times, [(1, 0), (2, 0)])


def hub_mixed_instance(seed):
    rng = random.Random(seed)
    times = [rng.randint(0, 9) for _ in range(8)]
    succs = rng.sample(range(1, 8), rng.randint(2, 3))
    for s in succs:
        times[s] = rng.randint(20, 40)
    times[0] = rng.randint(3, 9)
    return sx.build_instance(times, [(0, s) for s in succs])


def w_heavy_instance(seed):
    rng = random.Random(seed)
    times = [rng.randint(4, 6), 1, 2, 3] + [rng.randint(20, 40) for _ in range(4)]
    return sx.build_instance(times, [(1, 0), (2, 0), (3, 0)])


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    paths = {}
    configs = [CONFIG_DEFAULT, CONFIG_FORCED, CONFIG_QUARTER]
    for seed in range(1, 501):
        inst = _sweep_instance(seed)
        bo, bc = sx.brute_force_optimal(inst)
        _, c_dp, _ = sx.solve_filtered(inst)
        _, c_dc, _ = sx.solve_filtered(inst, lambda x: sx.is_downward_closed(inst, x))
        assert c_dp == bc and c_dc == bc, f"seed {seed}"

        norm = sx.normalize(inst)
        o_dp, _, _ = sx.solve_filtered(norm.base)
        o_dc, _, _ = sx.solve_filtered(
            norm.base, lambda x: sx.is_downward_closed(norm.base, x)
        )
        assert o_dp.positions == o_dc.positions, f"seed {seed}"
        if norm.base.n <= 8:
            o_bn, _ = sx.brute_force_optimal(norm.base)
            assert o_bn.positions == o_dp.positions, f"seed {seed}"
        for cfg in configs:
            o_full, _, rep = sx.solve(norm.base, cfg)
            assert o_full.positions == o_dp.positions, (seed, rep.chosen_path)
            projected = sx.restrict_to_origin(norm, o_full)
            assert sx.ordering_cost(inst, projected) == bc, (seed, rep.chosen_path)
            paths[rep.chosen_path] = paths.get(rep.chosen_path, 0) + 1
    # forced-path coverage on crafted families, exact cost checks included
    forced_runs = [
        ("half", w_heavy_instance, CONFIG_QUARTER),
        ("quarters0-B", hub_out_instance, CONFIG_QUARTER),
        ("quarters0-C", hub_in_instance, CONFIG_QUARTER),
        ("independent", hub_out_instance, CONFIG_FORCED),
    ]
    for expected, builder, cfg in forced_runs:
        for seed in range(6):
            inst = builder(seed)
            _, bc = sx.brute_force_optimal(inst)
            o, c, rep = sx.solve(inst, cfg)
            assert c == bc and rep.chosen_path == expected, (expected, seed, rep.chosen_path)
        paths[expected] = paths.get(expected, 0) + 6
    hits = 0
    for seed in range(40):
        inst = hub_mixed_instance(seed)
        _, bc = sx.brute_force_optimal(inst)
        o, c, rep = sx.solve(inst, CONFIG_QUARTER)
        assert c == bc
        if rep.chosen_path == "quarters0-D":
            hits += 1
    assert hits >= 20
    paths["quarters0-D"] = paths.get("quarters0-D", 0) + hits
    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE 1: PASS oracle equivalence on 500 sweep instances x "
        f"{2 + len(configs)} algorithms plus forced-path families "
        f"({elapsed:.0f}s, paths {sorted(paths.items())})"
    )


def test_criterion_2_ideal_count_bound():
    checked = 0
    for seed in range(200):
        n = 4 + seed % 13  # 4..16
        density = (0.0, 0.15, 0.3, 0.6, 0.9)[seed % 5]
        inst = to_instance(generate("random-dag", n, density, 9, 10_000 + seed))
        res = sx.greedy_maximal_matching(sx.comparability_graph(inst))
        count = sx.count_order_ideals(inst)
        bound = sx.ideal_count_bound(n, res.num_pairs)
        assert count <= bound, (seed, count, bound)
        checked += 1
    assert checked >= 200
    print(f"\nACCEPTANCE 2: PASS ideal-count bound on {checked} instances, n up to 16")


def _k_side_config(seed: int, max_k: int, max_m: int):
    rng = random.Random(seed)
    while True:
        kk = rng.randint(2, max_k)
        mm = rng.randint(1, max_m)
        n = kk + mm
        times = rng.sample(range(1, 10 * n + 10), n)
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
            seed += 65537


def test_criterion_3_non_exchangeable_count_bound():
    checked = 0
    for seed in range(200):
        # skew sizes small, occasionally large, capped at 14
        max_k = 14 if seed % 25 == 0 else 10
        inst, k = _k_side_config(20_000 + seed, max_k=max_k, max_m=4)
        for mode in ("succ", "pred"):
            count = len(sx.enumerate_non_exchangeable(inst, k, mode))
            bound = sx.non_exchangeable_bound(inst, k, mode)
            assert count <= bound, (seed, mode, count, bound)
        checked += 1
    # the worked two-job example: count 3, bound 3
    inst = sx.build_instance([2, 1, 5], [(0, 2), (1, 2)])
    count = len(sx.enumerate_non_exchangeable(inst, 0b011, "succ"))
    bound = sx.non_exchangeable_bound(inst, 0b011, "succ")
    assert count == 3 and bound == 3
    print(
        f"\nACCEPTANCE 3: PASS non-exchangeable count bound on {checked} "
        f"configurations, both modes, worked example count=3 bound=3"
    )


def test_criterion_4_roundtrip_iff_law():
    checked = 0
    for seed in range(80):
        max_k = 12 if seed % 16 == 0 else 9
        inst, k = _k_side_config(40_000 + seed, max_k=max_k, max_m=4)
        for mode, enc, dec, exch in (
            ("succ", sx.encode_succ, sx.decode_succ, sx.is_succ_exchangeable),
            ("pred", sx.encode_pred, sx.decode_pred, sx.is_pred_exchangeable),
        ):
            sub = k
            while True:
                non_exch = not exch(inst, sub, k)
                roundtrip = dec(inst, enc(inst, sub, k), k) == sub
                assert non_exch == roundtrip, (seed, mode, bin(sub))
                if sub == 0:
                    break
                sub = (sub - 1) & k
        checked += 1
    print(
        f"\nACCEPTANCE 4: PASS roundtrip iff-law exhaustive over all label "
        f"subsets on {checked} configurations, both modes"
    )


def test_criterion_5_optimal_prefixes_non_exchangeable():
    checked_instances = 0
    checked_sets = 0
    for seed in range(100):
        n = 4 + seed % 5  # 4..8
        density = (0.0, 0.2, 0.4)[seed % 3]
        inst = to_instance(generate("random-dag", n, density, 9, 50_000 + seed))
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
        i1 = res.antichain & ~((1 << vb) | (1 << ve))
        sub = i1
        while True:
            k = sub
            if k and k.bit_count() <= 8:
                k_positions = [pos[v] for v in _bits(k)]
                preds = sx.pred_set(vinst, k)
                succs = sx.succ_set(vinst, k)
                if not preds or max(pos[v] for v in _bits(preds)) < min(k_positions):
                    for x in _prefix_intersections(vo, k):
                        assert not sx.is_succ_exchangeable(vinst, x, k), (seed, bin(k))
                    checked_sets += 1
                if not succs or min(pos[v] for v in _bits(succs)) > max(k_positions):
                    for x in _prefix_intersections(vo, k):
                        assert not sx.is_pred_exchangeable(vinst, x, k), (seed, bin(k))
                    checked_sets += 1
            if sub == 0:
                break
            sub = (sub - 1) & i1
        checked_instances += 1
    assert checked_instances >= 100 and checked_sets > 500
    print(
        f"\nACCEPTANCE 5: PASS optimal-prefix non-exchangeability on "
        f"{checked_instances} instances, {checked_sets} hypothesis-satisfying sets"
    )


def _bits(m):
    while m:
        b = m & -m
        m ^= b
        yield b.bit_length() - 1


def _prefix_intersections(ordering, k):
    out = [0]
    x = 0
    for v in ordering.sequence:
        x |= 1 << v
        out.append(x & k)
    return out


def test_criterion_6_pruning_instrumentation():
    for n in (3, 6, 10, 13):
        chain = sx.build_instance(list(range(n, 0, -1)), [(i, i + 1) for i in range(n - 1)])
        _, _, stats = sx.solve_filtered(chain, lambda x: sx.is_downward_closed(chain, x))
        assert stats.states_expanded == n + 1, (n, stats)
    for n in (4, 8, 12):
        anti = sx.build_instance(list(range(1, n + 1)), [])
        _, _, stats = sx.solve_filtered(anti, lambda x: sx.is_downward_closed(anti, x))
        assert stats.states_expanded == 2 ** n, (n, stats)
    pairs = sx.build_instance([4, 3, 2, 1], [(0, 1), (2, 3)])
    _, _, stats = sx.solve_filtered(pairs, lambda x: sx.is_downward_closed(pairs, x))
    assert stats.states_expanded == 9
    print(
        "\nACCEPTANCE 6: PASS state counts exact: chains n+1, antichains 2^n, "
        "two disjoint pairs 9"
    )


def _counting_filter(accept):
    rejected_on_trace = []

    def wrapped(*args):
        ok = accept(*args)
        if not ok:
            rejected_on_trace.append(args)
        return ok

    return wrapped, rejected_on_trace


def test_criterion_7_no_false_pruning():
    # half window
    for seed in range(20):
        inst = w_heavy_instance(seed)
        vinst, ctx, vo, _ = _consistent_setup(inst)
        assert ctx.whalf_ab or ctx.whalf_cd, seed
        side = "AB" if ctx.whalf_ab.bit_count() >= ctx.whalf_cd.bit_count() else "CD"
        accept, log = _counting_filter(half_case_filter(vinst, ctx, side))
        for x in prefix_trace(vo):
            accept(x)
        assert not log, (seed, side)
    # one crafted family per quarter case, nonvacuous ground sets
    families = {
        "A": lambda s: to_instance(generate("random-dag", 8, 0.15, 9, 60_000 + s)),
        "B": hub_out_instance,
        "C": hub_in_instance,
        "D": hub_mixed_instance,
    }
    for case, builder in families.items():
        nonvacuous = 0
        for seed in range(20):
            inst = builder(seed)
            vinst, ctx, vo, _ = _consistent_setup(inst)
            accept, log = _counting_filter(quarter_case_filter(vinst, ctx, case)[0])
            _, domain, freeze, _, reverse = quarter_case_filter(vinst, ctx, case)
            for state, lab in labeled_trace(vo, domain, freeze, reverse=reverse):
                accept(state, lab)
            assert not log, (case, seed, log[:3])
            if domain:
                nonvacuous += 1
        assert nonvacuous >= 10, case
    # independent split: consistent guesses rebuild the optimum exactly
    for seed in range(20):
        inst = hub_out_instance(seed)
        vinst, ctx, vo, vc = _consistent_setup(inst)
        o, c, _ = sx.solve_independent_case(vinst, ctx)
        assert c == vc and o.positions == vo.positions, seed
    print(
        "\nACCEPTANCE 7: PASS zero rejections of the optimum's trace in the "
        "consistent branch: half, quarter cases A-D, independent split "
        "(20 crafted instances each)"
    )


def test_criterion_8_cli_determinism(tmp_path):
    d = tmp_path / "instances"
    d.mkdir()
    cli = [sys.executable, "-m", "schedexact.cli"]
    for i, (model, dens) in enumerate(
        [("random-dag", 0.3), ("antichain-plus-matching", 0.5), ("chain-mix", 0.4),
         ("random-dag", 0.0)]
    ):
        subprocess.run(
            cli + ["gen", "--n", "7", "--model", model, "--density", str(dens),
                   "--seed", str(i), "--out", str(d / f"i{i}.json")],
            check=True,
        )

    def run(args):
        proc = subprocess.run(cli + args, capture_output=True, check=False)
        return proc.returncode, proc.stdout

    # gen twice, byte-identical
    a = subprocess.run(
        cli + ["gen", "--n", "9", "--model", "random-dag", "--density", "0.5", "--seed", "7"],
        capture_output=True, check=True,
    ).stdout
    b = subprocess.run(
        cli + ["gen", "--n", "9", "--model", "random-dag", "--density", "0.5", "--seed", "7"],
        capture_output=True, check=True,
    ).stdout
    assert a == b

    solve_args = ["solve", "--input", str(d / "i0.json"), "--algo", "full",
                  "--eps1", "0.2", "--eps2", "0.22", "--eps3", "0.24", "--eps4", "0.26"]
    r1, out1 = run(solve_args)
    r2, out2 = run(solve_args)
    assert r1 == r2 == 0 and out1 == out2

    bench_args = ["bench", "--dir", str(d), "--algos", "brute,dp,dcdp,full",
                  "--no-timing", "--jobs", "4"]
    r1, out1 = run(bench_args)
    r2, out2 = run(bench_args)
    assert r1 == r2 == 0 and out1 == out2
    seq_r, seq_out = run(
        ["bench", "--dir", str(d), "--algos", "brute,dp,dcdp,full", "--no-timing"]
    )
    assert seq_r == 0 and seq_out == out1
    print(
        "\nACCEPTANCE 8: PASS byte-identical CLI output across repeated runs, "
        "including parallel bench"
    )
