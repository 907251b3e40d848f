import json
import multiprocessing
import os
import signal
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedexact import build_instance, ordering_cost, validate_ordering
from schedexact import cli
from schedexact.cli import main
from schedexact.solver import EpsilonConfig, solve

from test_golden import write_instances


FORCED = EpsilonConfig.make("0.3", "0.3", "0.3", "0.3")
FORCED_FLAGS = ["--eps1", "0.3", "--eps2", "0.3", "--eps3", "0.3", "--eps4", "0.3"]


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def write_instance(tmp_path: Path, name: str, n, times, precedences) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "times": times, "precedences": precedences}))
    return path


class TestSolve:
    def test_chain_brute(self, tmp_path, capsys):
        path = write_instance(tmp_path, "c.json", 3, [4, 3, 2], [[0, 1], [1, 2]])
        code, out, _ = run_cli(["solve", "--input", str(path), "--algo", "brute"], capsys)
        assert code == 0
        assert out == "cost=20 order=0,1,2\n"

    def test_chain_full_same_line(self, tmp_path, capsys):
        path = write_instance(tmp_path, "c.json", 3, [4, 3, 2], [[0, 1], [1, 2]])
        code, out, _ = run_cli(["solve", "--input", str(path), "--algo", "full"], capsys)
        assert code == 0
        assert out == "cost=20 order=0,1,2\n"

    def test_cyclic_exit_2_names_cycle(self, tmp_path, capsys):
        path = write_instance(tmp_path, "cyc.json", 2, [1, 1], [[0, 1], [1, 0]])
        code, out, err = run_cli(["solve", "--input", str(path)], capsys)
        assert code == 2
        assert "cycle" in err

    def test_long_cycle_exit_2(self, tmp_path, capsys):
        n = 3000
        path = write_instance(tmp_path, "ring.json", n, [1] * n, [[i, (i + 1) % n] for i in range(n)])
        code, out, err = run_cli(["solve", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("infeasible instance: precedence cycle: 0 -> 1 -> 2 -> ")

    def test_seed_is_not_a_solve_flag(self, tmp_path, capsys):
        # solve is deterministic; only gen takes a seed
        path = write_instance(tmp_path, "c.json", 3, [4, 3, 2], [[0, 1], [1, 2]])
        code, _, err = run_cli(["solve", "--input", str(path), "--seed", "1"], capsys)
        assert code == 1
        assert "--seed" in err

    def test_malformed_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run_cli(["solve", "--input", str(path)], capsys)
        assert code == 1

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(["solve", "--input", "/nonexistent.json"], capsys)
        assert code == 1

    def test_brute_over_cap_exit_1(self, tmp_path, capsys):
        path = write_instance(tmp_path, "big.json", 13, [1] * 13, [])
        code, out, err = run_cli(["solve", "--input", str(path), "--algo", "brute"], capsys)
        assert code == 1
        assert out == ""
        assert err == "instance too large for brute: n=13 exceeds enumeration cap 12\n"

    def test_stats_written(self, tmp_path, capsys):
        path = write_instance(tmp_path, "c.json", 4, [1, 2, 3, 4], [])
        stats = tmp_path / "stats.csv"
        code, _, _ = run_cli(
            ["solve", "--input", str(path), "--algo", "full", "--stats", str(stats)], capsys
        )
        assert code == 0
        lines = stats.read_text().splitlines()
        assert lines[0].startswith("algo,chosen_path")
        assert lines[1].startswith("full,")

    @pytest.mark.parametrize("algo,row", [
        ("dp", "dp,12,0,12"),  # 12 ideals: the 16 sets minus the 4 holding 2 without 0
        ("dcdp", "dcdp,12,0,12"),
        ("brute", "brute,0,0,0"),
    ])
    def test_dp_stats_bytes(self, tmp_path, capsys, algo, row):
        path = write_instance(tmp_path, "d.json", 4, [4, 1, 3, 2], [[0, 2]])
        stats = tmp_path / "stats.csv"
        code, out, _ = run_cli(
            ["solve", "--input", str(path), "--algo", algo, "--stats", str(stats)], capsys
        )
        assert code == 0
        assert out == "cost=21 order=2,0,3,1\n"
        assert stats.read_bytes() == (
            "algo,states_expanded,states_rejected,peak_table_size\n" + row + "\n"
        ).encode()

    def test_eps_flags(self, tmp_path, capsys):
        path = write_instance(tmp_path, "c.json", 4, [1, 2, 3, 4], [])
        code, out, _ = run_cli(
            ["solve", "--input", str(path), "--eps1", "0.2", "--eps2", "0.22",
             "--eps3", "0.24", "--eps4", "0.26"],
            capsys,
        )
        assert code == 0
        assert out.startswith("cost=20 ")

    def test_eps_flags_print_every_warning(self, tmp_path, capsys):
        # the thresholds of test_eps_flags break all four dispatch premises
        path = write_instance(tmp_path, "c.json", 4, [1, 2, 3, 4], [])
        code, out, err = run_cli(
            ["solve", "--input", str(path), "--eps1", "0.2", "--eps2", "0.22",
             "--eps3", "0.24", "--eps4", "0.26"],
            capsys,
        )
        assert (code, out) == (0, "cost=20 order=0,1,2,3\n")
        assert err == (
            "warning: eps4=13/50 is not below 1/4\n"
            "warning: 2*eps1 < 1/4 + eps3/2 fails; the size-based quarter dispatch may not cover\n"
            "warning: eps4 > (2*eps1 + 2*eps2 + eps3)/2 fails; the count-based quarter dispatch"
            " may not cover\n"
            "warning: 2*eps1 + 2*eps2 + eps4 < 1/4 fails; the independent split may exceed its budget\n"
        )

    @pytest.mark.parametrize("algo", ["brute", "dp", "dcdp", "full"])
    def test_default_solve_prints_nothing_to_stderr(self, tmp_path, capsys, algo):
        path = write_instance(tmp_path, "c.json", 4, [1, 2, 3, 4], [[0, 2]])
        code, out, err = run_cli(["solve", "--input", str(path), "--algo", algo], capsys)
        assert code == 0
        assert out.startswith("cost=")
        assert err == ""

    @pytest.mark.parametrize("wq_cap,hit", [("0", True), ("3", False)])
    def test_wq_cap_hit_warning(self, tmp_path, capsys, wq_cap, hit):
        # on this instance a forced quarter-window guess needs one job
        path = tmp_path / "dag.json"
        assert main(["gen", "--n", "6", "--model", "random-dag", "--density", "0",
                     "--seed", "0", "--out", str(path)]) == 0
        forced = ["--eps1", "0.3", "--eps2", "0.3", "--eps3", "0.3", "--eps4", "0.3"]
        code, out, err = run_cli(["solve", "--input", str(path), "--wq-cap", wq_cap] + forced, capsys)
        _, default_out, _ = run_cli(["solve", "--input", str(path)], capsys)
        assert (code, out) == (0, default_out)
        lines = err.splitlines()
        assert len(lines) == 4 + hit
        assert all(line.startswith("warning: ") for line in lines)
        wq_line = (
            f"warning: a quarter-window set needed more than --wq-cap={wq_cap} jobs;"
            " its subcase ran the dcdp fallback"
        )
        assert (wq_line in lines) == hit

    def test_bad_eps_exit_1(self, tmp_path, capsys):
        path = write_instance(tmp_path, "c.json", 2, [1, 1], [])
        code, _, err = run_cli(["solve", "--input", str(path), "--eps1", "0.9"], capsys)
        assert code == 1

    @pytest.mark.parametrize("algo", ["brute", "full"])
    def test_negative_wq_cap_exit_1(self, tmp_path, capsys, algo):
        path = write_instance(tmp_path, "c.json", 2, [1, 1], [])
        code, out, err = run_cli(
            ["solve", "--input", str(path), "--algo", algo, "--wq-cap", "-4"], capsys
        )
        assert (code, out, err) == (1, "", "--wq-cap must be at least 0, got -4\n")

    @pytest.mark.parametrize("algo", ["brute", "dp", "dcdp", "full"])
    def test_negative_cap_exit_1(self, tmp_path, capsys, algo):
        path = write_instance(tmp_path, "c.json", 3, [1, 2, 3], [])
        code, out, err = run_cli(
            ["solve", "--input", str(path), "--algo", algo, "--cap", "-1"], capsys
        )
        assert (code, out, err) == (1, "", "--cap must be at least 0, got -1\n")

    def test_zero_wq_cap_accepted(self, tmp_path, capsys):
        path = write_instance(tmp_path, "c.json", 2, [1, 1], [])
        code, out, _ = run_cli(["solve", "--input", str(path), "--wq-cap", "0"], capsys)
        assert (code, out) == (0, "cost=3 order=0,1\n")


class TestVerify:
    def test_valid(self, tmp_path, capsys):
        path = write_instance(tmp_path, "v.json", 2, [3, 5], [[0, 1]])
        code, out, _ = run_cli(["verify", "--input", str(path), "--order", "0,1"], capsys)
        assert code == 0
        assert out == "cost=11 valid=true\n"

    def test_invalid_exit_3(self, tmp_path, capsys):
        path = write_instance(tmp_path, "v.json", 2, [3, 5], [[0, 1]])
        code, out, _ = run_cli(["verify", "--input", str(path), "--order", "1,0"], capsys)
        assert code == 3
        assert "valid=false" in out

    def test_not_permutation_exit_1(self, tmp_path, capsys):
        path = write_instance(tmp_path, "v.json", 2, [3, 5], [])
        code, _, err = run_cli(["verify", "--input", str(path), "--order", "0,0"], capsys)
        assert code == 1

    def test_malformed_ordering_exit_1(self, tmp_path, capsys):
        path = write_instance(tmp_path, "v.json", 2, [3, 5], [])
        code, out, err = run_cli(["verify", "--input", str(path), "--order", "0,x"], capsys)
        assert code == 1
        assert out == ""
        assert err == "malformed ordering '0,x'\n"

    @pytest.mark.parametrize("order", ["0,,1,2", "0,1,2,", ",0,1,2", "0,1,,2,", ","])
    def test_empty_token_exit_1(self, tmp_path, capsys, order):
        path = write_instance(tmp_path, "v.json", 3, [3, 5, 1], [])
        code, out, err = run_cli(["verify", "--input", str(path), "--order", order], capsys)
        assert (code, out, err) == (1, "", f"malformed ordering {order!r}\n")

    def test_empty_order_of_empty_instance(self, tmp_path, capsys):
        path = write_instance(tmp_path, "v.json", 0, [], [])
        code, out, _ = run_cli(["verify", "--input", str(path), "--order", ""], capsys)
        assert (code, out) == (0, "cost=0 valid=true\n")

    def test_cost_agreement_with_solve(self, tmp_path, capsys):
        path = write_instance(tmp_path, "v.json", 4, [4, 1, 3, 2], [[0, 2]])
        code, out, _ = run_cli(["solve", "--input", str(path)], capsys)
        cost = out.split()[0].split("=")[1]
        order = out.split()[1].split("=")[1]
        code2, out2, _ = run_cli(["verify", "--input", str(path), "--order", order], capsys)
        assert code2 == 0
        assert out2.split()[0] == f"cost={cost}"


class TestGen:
    def test_antichain_density_zero(self, tmp_path, capsys):
        out_path = tmp_path / "i.json"
        code, _, _ = run_cli(
            ["gen", "--n", "4", "--model", "antichain-plus-matching", "--density", "0",
             "--seed", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["precedences"] == []

    def test_chain_mix_density_one_is_chain(self, tmp_path, capsys):
        out_path = tmp_path / "i.json"
        code, _, _ = run_cli(
            ["gen", "--n", "4", "--model", "chain-mix", "--density", "1",
             "--seed", "3", "--out", str(out_path)],
            capsys,
        )
        payload = json.loads(out_path.read_text())
        assert len(payload["precedences"]) == 3
        import schedexact as sx

        inst = sx.build_instance(payload["times"], payload["precedences"])
        assert len(inst.precedence_pairs()) == 6  # closed 4-chain

    def test_deterministic_per_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(
                ["gen", "--n", "7", "--model", "random-dag", "--density", "0.5",
                 "--seed", "42", "--out", str(path)],
                capsys,
            )
        assert a.read_bytes() == b.read_bytes()

    def test_bad_flags_exit_1(self, capsys):
        code, _, _ = run_cli(["gen", "--n", "4", "--model", "bogus"], capsys)
        assert code == 1
        code, _, _ = run_cli(["gen", "--n", "4", "--model", "random-dag", "--density", "2"], capsys)
        assert code == 1
        code, out, err = run_cli(["gen", "--n", "-1", "--model", "random-dag"], capsys)
        assert code == 1
        assert out == ""
        assert err == "n and tmax must be nonnegative\n"


class TestCount:
    def test_ideals_antichain(self, tmp_path, capsys):
        path = write_instance(tmp_path, "i.json", 4, [1, 1, 1, 1], [])
        code, out, _ = run_cli(["count", "--input", str(path), "--what", "ideals"], capsys)
        assert code == 0
        assert out == "count=16 bound=16\n"

    def test_ideals_two_pairs(self, tmp_path, capsys):
        path = write_instance(tmp_path, "i.json", 4, [1, 1, 1, 1], [[0, 1], [2, 3]])
        code, out, _ = run_cli(["count", "--input", str(path), "--what", "ideals"], capsys)
        assert code == 0
        assert out == "count=9 bound=9\n"

    def test_non_exch_worked_example(self, tmp_path, capsys):
        path = write_instance(tmp_path, "i.json", 3, [2, 1, 5], [[0, 2], [1, 2]])
        code, out, _ = run_cli(
            ["count", "--input", str(path), "--what", "non-exch-succ", "--K", "0,1"], capsys
        )
        assert code == 0
        assert out == "count=3 bound=3\n"

    def test_missing_k_exit_1(self, tmp_path, capsys):
        path = write_instance(tmp_path, "i.json", 2, [1, 1], [])
        code, _, _ = run_cli(["count", "--input", str(path), "--what", "non-exch-succ"], capsys)
        assert code == 1

    @pytest.mark.parametrize("jobs,message", [
        ("0,a", "malformed job list '0,a'"),
        ("0,2", "job 2 out of range"),
        ("-1", "job -1 out of range"),
    ])
    def test_bad_k_exit_1(self, tmp_path, capsys, jobs, message):
        path = write_instance(tmp_path, "i.json", 2, [1, 1], [])
        code, out, err = run_cli(
            ["count", "--input", str(path), "--what", "non-exch-pred", "--K", jobs], capsys
        )
        assert code == 1
        assert out == ""
        assert err == message + "\n"


    @pytest.mark.parametrize("jobs,message", [
        ("0,2", "--K is not an antichain: job 0 precedes job 2"),
        ("1,2,0", "--K is not an antichain: job 0 precedes job 2"),
        ("0,0,1", "job 0 listed twice"),
    ])
    @pytest.mark.parametrize("what", ["non-exch-succ", "non-exch-pred"])
    def test_k_not_an_antichain_exit_1(self, tmp_path, capsys, what, jobs, message):
        path = write_instance(tmp_path, "i.json", 3, [2, 1, 5], [[0, 2]])
        code, out, err = run_cli(["count", "--input", str(path), "--what", what, "--K", jobs], capsys)
        assert code == 1
        assert out == ""
        assert err == message + "\n"

    def test_ideals_over_cap_exit_1(self, tmp_path, capsys):
        path = write_instance(tmp_path, "i.json", 30, [1] * 30, [])
        code, out, err = run_cli(["count", "--input", str(path), "--what", "ideals"], capsys)
        assert code == 1
        assert out == ""
        assert err == "instance too large: n=30 exceeds ideal counting cap 24\n"


class TestBench:
    def _populate(self, tmp_path):
        d = tmp_path / "inst"
        d.mkdir()
        write_instance(d, "a.json", 3, [4, 3, 2], [[0, 1], [1, 2]])
        write_instance(d, "b.json", 4, [1, 2, 3, 4], [])
        return d

    def test_rows_and_equal_costs(self, tmp_path, capsys):
        d = self._populate(tmp_path)
        out_path = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            ["bench", "--dir", str(d), "--algos", "brute,dcdp", "--out", str(out_path),
             "--no-timing"],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "instance,n,matching_size,algo,cost,states_expanded,wall_ms,chosen_path"
        assert len(lines) == 5
        costs = {}
        for line in lines[1:]:
            cells = line.split(",")
            costs.setdefault(cells[0], set()).add(cells[4])
        assert all(len(v) == 1 for v in costs.values())

    def test_negative_wq_cap_exit_1(self, tmp_path, capsys):
        d = self._populate(tmp_path)
        code, out, err = run_cli(
            ["bench", "--dir", str(d), "--algos", "full", "--wq-cap", "-4"], capsys
        )
        assert (code, out, err) == (1, "", "--wq-cap must be at least 0, got -4\n")

    @pytest.mark.parametrize("algos", ["brute", "dp", "brute,dp,dcdp,full"])
    def test_negative_cap_exit_1(self, tmp_path, capsys, algos):
        d = self._populate(tmp_path)
        code, out, err = run_cli(
            ["bench", "--dir", str(d), "--algos", algos, "--cap", "-1"], capsys
        )
        assert (code, out, err) == (1, "", "--cap must be at least 0, got -1\n")

    def test_chain_state_counts(self, tmp_path, capsys):
        d = tmp_path / "inst"
        d.mkdir()
        write_instance(d, "chain.json", 5, [5, 4, 3, 2, 1], [[i, i + 1] for i in range(4)])
        out_path = tmp_path / "bench.csv"
        run_cli(
            ["bench", "--dir", str(d), "--algos", "dcdp", "--out", str(out_path), "--no-timing"],
            capsys,
        )
        row = out_path.read_text().splitlines()[1].split(",")
        assert row[5] == "6"  # states on a closed 5-chain: ideals = n + 1

    def test_empty_dir(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        code, out, _ = run_cli(["bench", "--dir", str(d), "--algos", "brute"], capsys)
        assert code == 0
        assert out == "instance,n,matching_size,algo,cost,states_expanded,wall_ms,chosen_path\n"

    def test_unknown_algo_exit_1(self, tmp_path, capsys):
        d = self._populate(tmp_path)
        code, out, err = run_cli(["bench", "--dir", str(d), "--algos", "dp,fast"], capsys)
        assert code == 1
        assert out == ""
        assert err == "unknown algorithm 'fast'\n"

    def test_not_a_directory_exit_1(self, tmp_path, capsys):
        path = write_instance(tmp_path, "a.json", 2, [1, 1], [])
        code, out, err = run_cli(["bench", "--dir", str(path), "--algos", "dp"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"not a directory: {path}\n"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        d = self._populate(tmp_path)
        code, out, err = run_cli(["bench", "--dir", str(d), "--algos", "dp", "--jobs", jobs], capsys)
        assert code == 1
        assert out == ""
        assert err == f"--jobs must be at least 1, got {jobs}\n"

    def test_cost_mismatch_exit_5(self, tmp_path, capsys, monkeypatch):
        d = self._populate(tmp_path)
        real = cli.solve

        def off_by_one(*args, **kwargs):
            ordering, cost, report = real(*args, **kwargs)
            return ordering, cost + 1, report

        monkeypatch.setattr(cli, "solve", off_by_one)
        code, out, err = run_cli(
            ["bench", "--dir", str(d), "--algos", "dp,full", "--no-timing", "--jobs", "1"], capsys
        )
        assert code == 5
        # the rows are written before the check; the first mismatch is reported
        assert len(out.splitlines()) == 1 + 2 * 2
        assert err == "cost mismatch on a.json: [20, 21]\n"

    def test_parallel_deterministic(self, tmp_path, capsys):
        d = self._populate(tmp_path)
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        run_cli(["bench", "--dir", str(d), "--algos", "brute,dp,dcdp,full", "--out", str(seq),
                 "--no-timing"], capsys)
        run_cli(["bench", "--dir", str(d), "--algos", "brute,dp,dcdp,full", "--out", str(par),
                 "--no-timing", "--jobs", "4"], capsys)
        assert seq.read_bytes() == par.read_bytes()


class TestBenchWarnings:
    """bench prints the dispatch warnings of `full` once per run and the
    --wq-cap line once per `full` task that hit it; a default bench prints
    nothing (TestBenchForkedHelpers.test_golden_directory_same_bytes)."""

    DISPATCH = (
        "warning: eps4=13/50 is not below 1/4",
        "warning: 2*eps1 < 1/4 + eps3/2 fails; the size-based quarter dispatch may not cover",
        "warning: eps4 > (2*eps1 + 2*eps2 + eps3)/2 fails; the count-based quarter dispatch may not cover",
        "warning: 2*eps1 + 2*eps2 + eps4 < 1/4 fails; the independent split may exceed its budget",
    )

    @pytest.fixture
    def golden(self, tmp_path, monkeypatch):
        # two CPUs, so that --jobs 2 forks a helper on any machine
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        d = tmp_path / "golden"
        d.mkdir()
        write_instances(d)
        return d

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_dispatch_warnings_once_per_run(self, tmp_path, capsys, golden, jobs):
        code, _, err = run_cli(
            ["bench", "--dir", str(golden), "--algos", "full", "--eps1", "0.2", "--eps2", "0.22",
             "--eps3", "0.24", "--eps4", "0.26", "--no-timing", "--jobs", jobs,
             "--out", str(tmp_path / "out.csv")],
            capsys,
        )
        assert code == 0
        assert err.splitlines() == list(self.DISPATCH)

    def test_dispatch_warnings_only_with_full(self, tmp_path, capsys, golden):
        code, _, err = run_cli(
            ["bench", "--dir", str(golden), "--algos", "brute,dp,dcdp", "--eps4", "0.26",
             "--no-timing", "--out", str(tmp_path / "out.csv")],
            capsys,
        )
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_wq_cap_hit_names_each_file(self, tmp_path, capsys, golden, jobs):
        # the flag of a task run by a forked helper travels back with its row
        hits = [
            path.name
            for path in sorted(golden.iterdir())
            if solve(cli._load(str(path)), FORCED, wq_cap=0)[2].wq_cap_hit
        ]
        assert len(hits) > 1
        code, _, err = run_cli(
            ["bench", "--dir", str(golden), "--algos", "dp,full", "--wq-cap", "0", "--no-timing",
             "--jobs", jobs, "--out", str(tmp_path / "out.csv")] + FORCED_FLAGS,
            capsys,
        )
        assert code == 0
        lines = err.splitlines()
        # the four dispatch warnings of the 0.3 thresholds come first
        assert len(lines) == 4 + len(hits)
        assert lines[4:] == [
            f"warning: {name}: a quarter-window set needed more than --wq-cap=0 jobs;"
            " its subcase ran the dcdp fallback"
            for name in hits
        ]


class TestBenchWorkers:
    """bench --jobs N runs its tasks in worker processes."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        # so that --jobs 2 takes the pool path on any machine
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)

    @pytest.fixture
    def pool_tasks(self):
        return []

    @pytest.fixture
    def pool_sizes(self, monkeypatch, pool_tasks):
        sizes = []

        def recording_run_tasks(run, tasks, workers):
            # records the worker count and the tasks in the order the workers
            # claim them (list order), and runs them here, forking nothing
            sizes.append(workers)
            pool_tasks.extend(tasks)
            return [run(t) for t in tasks]

        monkeypatch.setattr(cli, "_run_tasks", recording_run_tasks)
        return sizes

    def _populate(self, tmp_path, count):
        d = tmp_path / "inst"
        d.mkdir()
        for i in range(count):
            write_instance(d, f"{i}.json", 3, [4, 3, i], [[0, 1]])
        return d

    def test_golden_directory_same_bytes(self, tmp_path, capsys, two_cpus):
        d = tmp_path / "golden"
        d.mkdir()
        write_instances(d)
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            code, _, _ = run_cli(["bench", "--dir", str(d), "--algos", "brute,dp,dcdp,full",
                                  "--no-timing", "--jobs", jobs, "--out", str(out)], capsys)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 1 + 27 * 4

    def test_cyclic_exit_2(self, tmp_path, capsys, two_cpus):
        d = self._populate(tmp_path, 2)
        write_instance(d, "cyc.json", 2, [1, 1], [[0, 1], [1, 0]])
        code, _, _ = run_cli(["bench", "--dir", str(d), "--algos", "dp,dcdp", "--jobs", "2"], capsys)
        assert code == 2

    def test_malformed_exit_1(self, tmp_path, capsys, two_cpus):
        d = self._populate(tmp_path, 2)
        (d / "bad.json").write_text("{")
        code, _, _ = run_cli(["bench", "--dir", str(d), "--algos", "dp,dcdp", "--jobs", "2"], capsys)
        assert code == 1

    def test_malformed_one_message(self, tmp_path, capfd, two_cpus):
        # capfd also sees what a worker process would print
        d = self._populate(tmp_path, 2)
        (d / "bad.json").write_text("{")
        code = main(["bench", "--dir", str(d), "--algos", "dp,dcdp,full", "--jobs", "2"])
        out, err = capfd.readouterr()
        assert code == 1
        assert out == ""
        assert err == (
            "malformed instance: invalid JSON: Expecting property name enclosed in"
            " double quotes: line 1 column 2 (char 1)\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_brute_over_cap_exit_1(self, tmp_path, capsys, two_cpus, jobs):
        d = self._populate(tmp_path, 2)
        write_instance(d, "big.json", 13, [1] * 13, [])
        code, out, err = run_cli(["bench", "--dir", str(d), "--algos", "brute,dp", "--jobs", jobs], capsys)
        assert code == 1
        assert out == ""
        assert err == "instance too large for brute: n=13 exceeds enumeration cap 12\n"

    @pytest.mark.parametrize("algos", ["brute,dp,dcdp,full", "dp,brute", "dp,dcdp", "brute"])
    def test_longest_brute_tasks_first(self, tmp_path, capsys, two_cpus, pool_sizes, pool_tasks, algos):
        d = tmp_path / "inst"
        d.mkdir()
        # (name, n, precedences): brute's work n!/2^k, k the matching size
        for name, n, prec in [
            ("a.json", 3, []),  # 3! = 6
            ("b.json", 4, [[0, 1]]),  # 4!/2 = 12
            ("c.json", 4, []),  # 4! = 24
            ("d.json", 3, []),  # 6, ties with a
            ("e.json", 4, [[0, 1], [2, 3]]),  # 4!/4 = 6, ties with a and d
        ]:
            write_instance(d, name, n, list(range(1, n + 1)), prec)
        code, _, _ = run_cli(["bench", "--dir", str(d), "--algos", algos, "--jobs", "2"], capsys)
        assert code == 0
        names = ["a.json", "b.json", "c.json", "d.json", "e.json"]
        listed = algos.split(",")
        expected = [(name, "brute") for name in ["c.json", "b.json", "a.json", "d.json", "e.json"]
                    if "brute" in listed]
        expected += [(name, a) for a in listed if a != "brute" for name in names]
        assert [(t[0], t[3]) for t in pool_tasks] == expected

    @pytest.mark.parametrize("algos", ["brute,dp,dcdp,full", "dp,brute"])
    def test_golden_directory_brute_order(self, tmp_path, capsys, two_cpus, pool_sizes, pool_tasks, algos):
        d = tmp_path / "golden"
        d.mkdir()
        write_instances(d)
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(["bench", "--dir", str(d), "--algos", algos, "--no-timing",
                              "--jobs", "2", "--out", str(out)], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        work = {r[0]: factorial(int(r[1])) // 2 ** int(r[2]) for r in rows if r[3] == "brute"}
        assert [t[0] for t in pool_tasks[:len(work)]] == sorted(work, key=lambda name: (-work[name], name))
        assert {t[3] for t in pool_tasks[:len(work)]} == {"brute"}
        assert "brute" not in {t[3] for t in pool_tasks[len(work):]}

    def test_golden_directory_same_bytes_brute_listed_last(self, tmp_path, capsys, two_cpus):
        d = tmp_path / "golden"
        d.mkdir()
        write_instances(d)
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            code, _, _ = run_cli(["bench", "--dir", str(d), "--algos", "dp,brute",
                                  "--no-timing", "--jobs", jobs, "--out", str(out)], capsys)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 1 + 27 * 2

    @pytest.mark.parametrize("jobs,cpus,expected", [
        (64, 8, 6),  # no more workers than tasks
        (64, 4, 4),  # nor than CPUs
        (3, 8, 3),
    ])
    def test_worker_count_bounded(self, tmp_path, capsys, monkeypatch, pool_sizes, jobs, cpus, expected):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        d = self._populate(tmp_path, 3)
        code, _, _ = run_cli(["bench", "--dir", str(d), "--algos", "dp,dcdp", "--jobs", str(jobs)], capsys)
        assert code == 0
        assert pool_sizes == [expected]

    @pytest.mark.parametrize("jobs,cpus", [(1, 8), (8, None), (8, 1)])
    def test_single_worker_runs_in_process(self, tmp_path, capsys, monkeypatch, pool_sizes, jobs, cpus):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        d = self._populate(tmp_path, 3)
        code, _, _ = run_cli(["bench", "--dir", str(d), "--algos", "dp,dcdp", "--jobs", str(jobs)], capsys)
        assert code == 0
        assert pool_sizes == []


class TestBenchForkedHelpers:
    """bench --jobs 3 on three CPUs: this process and two forked helpers."""

    @pytest.fixture(autouse=True)
    def three_workers(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)

        def expire(signum, frame):
            raise TimeoutError("bench did not finish within 60 s")

        # A hung bench fails the test instead of stalling the suite; forked
        # helpers do not inherit the alarm.
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @pytest.fixture
    def started(self):
        # set by the side that should claim a task first; fork shares it
        return multiprocessing.get_context("fork").Event()

    def _populate(self, tmp_path, count):
        d = tmp_path / "inst"
        d.mkdir()
        for i in range(count):
            write_instance(d, f"{i}.json", 3, [1, 2, 3], [])
        return d

    def test_golden_directory_same_bytes(self, tmp_path, capsys):
        d = tmp_path / "golden"
        d.mkdir()
        write_instances(d)
        outs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"jobs{jobs}.csv"
            code, _, err = run_cli(["bench", "--dir", str(d), "--algos", "brute,dp,dcdp,full",
                                    "--no-timing", "--jobs", jobs, "--out", str(out)], capsys)
            assert (code, err) == (0, "")
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 1 + 27 * 4

    @pytest.mark.parametrize("failing", ["parent", "helpers"])
    def test_brute_over_cap_one_message(self, tmp_path, capfd, monkeypatch, started, failing):
        # The failing side runs brute with its cap below n = 3; the other side
        # waits until the failing side has started a task, so both claim one.
        d = self._populate(tmp_path, 4)
        parent = os.getpid()
        bench_one = cli._bench_one

        def one_side_over_cap(task, **kwargs):
            if (os.getpid() == parent) == (failing == "parent"):
                started.set()
                kwargs["cap"] = 2
            else:
                started.wait(30)
            return bench_one(task, **kwargs)

        monkeypatch.setattr(cli, "_bench_one", one_side_over_cap)
        code = main(["bench", "--dir", str(d), "--algos", "brute,dp", "--jobs", "3"])
        out, err = capfd.readouterr()
        assert (code, out) == (1, "")
        assert err == "instance too large for brute: n=3 exceeds enumeration cap 2\n"

    def test_helper_exit_fails_bench(self, tmp_path, monkeypatch, started):
        d = self._populate(tmp_path, 4)
        parent = os.getpid()
        bench_one = cli._bench_one

        def exit_in_helper(task, **kwargs):
            if os.getpid() != parent:
                started.set()
                os._exit(3)
            started.wait(30)
            return bench_one(task, **kwargs)

        monkeypatch.setattr(cli, "_bench_one", exit_in_helper)
        with pytest.raises(ChildProcessError, match="exited with code 3 without reporting"):
            main(["bench", "--dir", str(d), "--algos", "dp,dcdp", "--jobs", "3"])




class TestRunAlgoDifferential:
    """Every algo of the CLI, and `full` under both threshold sets, finds
    the same optimum on small instances with zero and tied times."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_cost_valid_orderings(self, data):
        n = data.draw(st.integers(min_value=0, max_value=7), label="n")
        times = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="times")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        inst = build_instance(times, [p for p, keep in zip(pairs, chosen) if keep])
        runs = [(algo, None) for algo in cli.ALGOS] + [("full", FORCED)]
        costs = set()
        for algo, config in runs:
            ordering, cost, _, _, _ = cli._run_algo(inst, algo, config, 12, 3)
            assert validate_ordering(inst, ordering), (algo, config)
            assert ordering_cost(inst, ordering) == cost, (algo, config)
            costs.add(cost)
        assert len(costs) == 1


class TestEntryPoint:
    def test_package_import_loads_no_cli_or_processes(self):
        # Keeps the command line and the process machinery out of the import
        # that every library caller pays for.
        loaded = ["schedexact.cli", "multiprocessing", "concurrent.futures"]
        proc = subprocess.run(
            [sys.executable, "-c", f"import schedexact, sys; print([m for m in {loaded!r} if m in sys.modules])"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_module_invocation(self, tmp_path):
        path = write_instance(tmp_path, "c.json", 3, [4, 3, 2], [[0, 1], [1, 2]])
        proc = subprocess.run(
            [sys.executable, "-m", "schedexact.cli", "solve", "--input", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "cost=20 order=0,1,2\n"

    def test_bad_subcommand_exit_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "schedexact.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
