"""Golden `bench --no-timing` output on a fixed generated directory.

The two CSVs under tests/data/ pin the cost, the DP state count and the
chosen path of every algo on 27 generated instances, once with the default
dispatch thresholds and once with all four at 0.3. Both runs reach the
plain DP and the forced run also wins with the labeled quarter DP and the
independent split, so a drift in any of them shows up here byte for byte.
Each CSV is checked in-process (--jobs 1) and through two worker processes
(--jobs 2), which receive the instances the parent loaded, pickled.

tests/data/solve_reports.jsonl pins, per solve() call, the ordering and the
whole report but its wall time, so the branch and prune counts of every
route are exact too.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from schedexact import EpsilonConfig, cli, solve
from schedexact.cli import main
from schedexact.gen import MODELS, generate, to_instance
from test_acceptance import hub_in_instance, hub_mixed_instance, hub_out_instance, w_heavy_instance

DATA = Path(__file__).parent / "data"
FORCED_EPS = ["--eps1", "0.3", "--eps2", "0.3", "--eps3", "0.3", "--eps4", "0.3"]


def write_instances(directory: Path) -> None:
    """The three models x n in {6, 8, 9} x density in {0, 0.3, 0.6}, seeds 0..26."""
    seed = 0
    for model in MODELS:
        for n in (6, 8, 9):
            for density in ("0.0", "0.3", "0.6"):
                out = directory / f"{seed:02d}-{model}-n{n}-d{density}.json"
                args = ["gen", "--n", str(n), "--model", model, "--density", density,
                        "--seed", str(seed), "--out", str(out)]
                assert main(args) == 0
                seed += 1


def bench_csv(directory: Path, out: Path, forced: bool, jobs: str = "1") -> str:
    args = ["bench", "--dir", str(directory), "--algos", "dp,dcdp,full",
            "--no-timing", "--jobs", jobs, "--out", str(out)]
    assert main(args + (FORCED_EPS if forced else [])) == 0
    return out.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_instances(directory)
    return directory


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name,forced", [("bench_default.csv", False), ("bench_forced.csv", True)])
def test_bench_matches_golden(instance_dir, tmp_path, monkeypatch, name, forced, jobs):
    # two CPUs, so that --jobs 2 takes the worker pool on any machine
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    got = bench_csv(instance_dir, tmp_path / name, forced, jobs)
    assert got == (DATA / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Golden solve reports: the exact search counters of the paper route.

REPORTS = DATA / "solve_reports.jsonl"
FORCED = EpsilonConfig.make(0.2, 0.22, 0.24, 0.26)
# config name -> (eps config, wq_cap)
REPORT_CONFIGS = {
    "default": (None, 3),
    "forced": (FORCED, 3),
    "forced-cap0": (FORCED, 0),
    "quarter": (EpsilonConfig.make(0.2, 0.21, 0.22, 0.23), 3),
    "all-0.3": (EpsilonConfig.make(0.3, 0.3, 0.3, 0.3), 3),
}
FAMILIES = {
    "w_heavy": w_heavy_instance,
    "hub_out": hub_out_instance,
    "hub_in": hub_in_instance,
    "hub_mixed": hub_mixed_instance,
}


def report_cases():
    """(case label, config name, instance) for every row of solve_reports.jsonl:
    the three models at n 4..9 and densities 0, 0.3, 0.6 under the default
    and the two forcing configs, and the acceptance families, which reach
    the half split and the B, C and D quarter cases, under the forcing
    configs, one of them with quarter-window guessing capped to nothing."""
    for model in MODELS:
        for n in range(4, 10):
            for density in (0.0, 0.3, 0.6):
                seed = 100 * n + int(10 * density)
                inst = to_instance(generate(model, n, density, 9, seed))
                for cfg in ("default", "forced", "quarter"):
                    yield f"{model} n={n} d={density} seed={seed}", cfg, inst
    for family, builder in FAMILIES.items():
        for seed in range(6):
            for cfg in ("forced", "forced-cap0", "quarter", "all-0.3"):
                yield f"{family} seed={seed}", cfg, builder(seed)


def report_row(case: str, cfg: str, inst) -> dict:
    config, wq_cap = REPORT_CONFIGS[cfg]
    ordering, cost, report = solve(inst, config, wq_cap=wq_cap)
    fields = json.loads(report.to_json())
    del fields["wall_ms"]
    return {"case": case, "config": cfg, "positions": list(ordering.positions),
            "cost": cost, "report": fields}


def test_solve_reports_match_golden():
    want = [json.loads(line) for line in REPORTS.read_text(encoding="utf-8").splitlines()]
    got = [report_row(*case) for case in report_cases()]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    # Rewrites the golden file: python tests/test_golden.py (from the repo root,
    # with src/ on PYTHONPATH).
    with REPORTS.open("w", encoding="utf-8") as fh:
        for case in report_cases():
            fh.write(json.dumps(report_row(*case), sort_keys=True) + "\n")
