"""Self-tests of the benchmark: seeded inputs, exact counts, the gate, the
metric names.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

from gate import check  # noqa: E402
from run import PUBLISHED_END_TO_END, tail  # noqa: E402
from workloads import WORKLOADS, build_pool  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts the program computes; they must not depend on timing.
EXACT = (
    "dp.calls",
    "dp.states_expanded",
    "dp.states_rejected",
    "dp.table_peak",
    "dp.table_entries",
    "dp.dc_check_calls",
    "solver.branches_explored",
    "solver.branches_pruned",
    "solver.independent_calls",
    "exchange.calls",
    "exchange.hit_ratio",
    "instance.variants",
    "instance.revalidate_calls",
    "oracle.calls",
)


def pool_bytes(pool: list[dict]) -> bytes:
    return json.dumps(pool, sort_keys=True).encode()


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_instances(name):
    first = pool_bytes(build_pool(WORKLOADS[name], 7))
    assert first == pool_bytes(build_pool(WORKLOADS[name], 7))
    code = (
        f"import sys; sys.path[:0] = [{str(PERFBENCH)!r}, {str(ROOT / 'src')!r}]; "
        f"import json; from workloads import WORKLOADS, build_pool; "
        f"sys.stdout.buffer.write(json.dumps(build_pool(WORKLOADS[{name!r}], 7), sort_keys=True).encode())"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    other = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True).stdout
    assert other == first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_gives_other_instances_from_the_same_mix(name):
    a, b = build_pool(WORKLOADS[name], 1), build_pool(WORKLOADS[name], 2)
    assert pool_bytes(a) != pool_bytes(b)
    shape = lambda pool: [(p["model"], p["density"], p["n"]) for p in pool]  # noqa: E731
    assert shape(a) == shape(b) == [tuple(s) for s in WORKLOADS[name].slots]


def test_positive_density_instances_have_a_precedence():
    for name, workload in WORKLOADS.items():
        for item in build_pool(workload, 3):
            assert item["density"] == 0 or item["precedences"], name


@pytest.fixture(scope="module")
def traced():
    """Two short traced runs of every workload on one seed."""
    return {
        name: [_result(_run("--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", "1")) for _ in range(2)]
        for name in sorted(WORKLOADS)
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_across_runs_of_one_seed(traced, name):
    first, second = traced[name]
    assert first["correct"] and second["correct"]
    counts = lambda r: {k: r["metrics"][k]["value"] for k in EXACT}  # noqa: E731
    assert counts(first) == counts(second)


def test_each_workload_loads_its_layer(traced):
    m = {name: runs[0]["metrics"] for name, runs in traced.items()}
    v = lambda name, key: m[name][key]["value"]  # noqa: E731
    self_ms = ("dp.self_ms", "solver.self_ms", "instance.self_ms", "exchange.ms", "oracle.ms", "cli.self_ms")
    assert max(self_ms, key=lambda k: v("dense-dcdp", k)) == "dp.self_ms"
    assert v("dense-dcdp", "exchange.calls") == 0
    assert v("antichain-paper", "dp.dc_check_calls") == 0
    assert v("antichain-paper", "dp.states_rejected") > 0
    assert v("antichain-paper", "instance.variants") > 0
    assert max(self_ms, key=lambda k: v("cli-bench", k)) == "oracle.ms"
    assert v("cli-bench", "instance.parse_ms") > 0
    assert v("cli-bench", "exchange.calls") > 0
    assert v("forced-ladder", "solver.branches_explored") > 1


def test_metric_names_match_benchmark_json(traced):
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for runs in traced.values():
        assert {k: v["unit"] for k, v in runs[0]["metrics"].items()} == per_layer
    result = _result(_run("--workload", "cli-bench", "--seed", "5", "--seconds", "0.1", "--trace", "0"))
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
    assert set(end_to_end) == set(PUBLISHED_END_TO_END)
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_benchmark_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def test_gate_counts_a_wrong_cost_as_failed():
    workload = WORKLOADS["forced-ladder"]
    pool = build_pool(workload, 1)[:1]
    from schedexact import solve
    from schedexact.gen import to_instance
    from schedexact.solver import EpsilonConfig

    ordering, cost, _ = solve(to_instance(pool[0]), EpsilonConfig.make("0.3", "0.3", "0.3", "0.3"))
    good = json.dumps([0, [list(ordering.positions), cost], None])
    bad = json.dumps([0, [list(ordering.positions), cost + 1], None])
    assert check(workload, pool, [[good, 3]]) == (3, 0, [])
    attempted, failed, _ = check(workload, pool, [[good, 3], [bad, 2]])
    assert (attempted, failed) == (5, 2)
    raised = json.dumps([0, None, "Infeasible: boom"])
    assert check(workload, pool, [[raised, 1]])[1] == 1
    not_a_bijection = json.dumps([0, [[1] * len(ordering.positions), cost], None])
    assert check(workload, pool, [[not_a_bijection, 1]])[1] == 1


def test_gate_checks_cli_rows_and_exit_code():
    workload = WORKLOADS["cli-bench"]
    pool = build_pool(workload, 1)
    from gate import reference_cost
    from workloads import CLI_ALGOS, cli_file_name

    header = "instance,n,matching_size,algo,cost,states_expanded,wall_ms,chosen_path"
    rows = [
        f"{cli_file_name(s, item)},{item['n']},0,{algo},{reference_cost(item)},0,0.0,{algo}"
        for s, item in enumerate(pool)
        for algo in CLI_ALGOS.split(",")
    ]
    text = "\n".join([header, *rows]) + "\n"
    assert check(workload, pool, [[json.dumps([0, [0, text], None]), 1]])[1] == 0
    assert check(workload, pool, [[json.dumps([0, [5, text], None]), 1]])[1] == 1
    short = "\n".join([header, *rows[:-1]]) + "\n"
    assert check(workload, pool, [[json.dumps([0, [0, short], None]), 1]])[1] == 1


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(1 for x in range(100) if x > value) == 10
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "dense-dcdp", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
