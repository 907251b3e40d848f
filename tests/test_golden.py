"""Golden `bench --no-timing` output on a fixed generated directory.

The two CSVs under tests/data/ pin the cost, the DP state count and the
chosen path of every algo on 27 generated instances, once with the default
dispatch thresholds and once with all four at 0.3. Both runs reach the
plain DP and the forced run also wins with the labeled quarter DP and the
independent split, so a drift in any of them shows up here byte for byte.
Each CSV is checked in-process (--jobs 1) and through two worker processes
(--jobs 2), which receive the instances the parent loaded, pickled.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from schedexact import cli
from schedexact.cli import main
from schedexact.gen import MODELS

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
