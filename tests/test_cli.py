import json
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
from schedexact.solver import EpsilonConfig

from test_golden import write_instances


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

        class RecordingExecutor:
            # records the pool's size and the tasks in the order they are
            # submitted, and runs them here, forking nothing
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, iterable):
                tasks = list(iterable)
                pool_tasks.extend(tasks)
                return map(fn, tasks)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
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


FORCED = EpsilonConfig.make("0.3", "0.3", "0.3", "0.3")


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
