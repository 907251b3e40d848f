"""Command-line surface: solve, verify, gen, count, bench.

Exit codes: 0 success, 1 malformed input or flags (a negative --wq-cap
or --cap, an --epsN with a zero denominator, and a bench --algos list that
is empty or names an algorithm twice included), an unwritable output
path, or an instance above the brute-force cap (solve, bench), the
ideal-counting cap or the --K enumeration cap (count), 2 infeasible or
cyclic instance, 3 invalid ordering (verify), 4 violated counting bound
(count), 5 cost mismatch between algorithms (bench).

`solve` prints each dispatch warning of its thresholds, and a line when a
quarter-window guess exceeded --wq-cap, to stderr as `warning: ...`.
`bench` with `full` among its algos prints the dispatch warnings once per
run, and the --wq-cap line once per `full` task that hit it, prefixed by
the instance's file name.

`bench --jobs N` runs its (file, algo) tasks on at most N workers: the
calling process is one of them and forks the others. Each worker claims
the next task in turn; a failure in any worker stops further claims, and
the failure first in task order is reported.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from functools import partial
from math import factorial
from pathlib import Path

# Loaded here, not on the first `full` task: bench forks its helpers after
# this import, so none of them compiles the paper route again.
from . import paper  # noqa: F401
# is_downward_closed is unused here but stays importable: perfbench/spans.py
# wraps it by this module's name.
from .dp import DpStats, is_downward_closed, solve_filtered  # noqa: F401
from .exchange import SetTooLarge, enumerate_non_exchangeable, non_exchangeable_bound
from .gen import MODELS, generate
from .instance import (
    CyclicPrecedence,
    Instance,
    InstanceTooLarge,
    NotABijection,
    Ordering,
    bits,
    instance_from_json,
    instance_to_json,
    ordering_cost,
    validate_ordering,
)
from .oracle import brute_force_optimal
from .solver import EpsilonConfig, SolveReport, solve
from .structure import (
    comparability_graph,
    count_order_ideals,
    greedy_maximal_matching,
    ideal_count_bound,
)

ALGOS = ("brute", "dp", "dcdp", "full")

BENCH_HEADER = "instance,n,matching_size,algo,cost,states_expanded,wall_ms,chosen_path"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load(path: str) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)
    try:
        return instance_from_json(text)
    except CyclicPrecedence as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except ValueError as exc:
        print(f"malformed instance: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _config_from_args(args) -> EpsilonConfig | None:
    """The eps config of the solver flags; exits 1 on a bad config or a
    negative --wq-cap or --cap."""
    for flag, value in (("--wq-cap", args.wq_cap), ("--cap", args.cap)):
        if value < 0:
            print(f"{flag} must be at least 0, got {value}", file=sys.stderr)
            raise SystemExit(1)
    eps = (args.eps1, args.eps2, args.eps3, args.eps4)
    if all(e is None for e in eps):
        return None
    default = EpsilonConfig.default()
    fills = (default.eps1, default.eps2, default.eps3, default.eps4)
    vals = [e if e is not None else f for e, f in zip(eps, fills)]
    try:
        return EpsilonConfig.make(*vals)
    except ValueError as exc:
        print(f"bad epsilon configuration: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _run_algo(inst: Instance, algo: str, config: EpsilonConfig | None, cap: int, wq_cap: int):
    """Returns (ordering, cost, states_expanded, chosen_path, report_or_stats)."""
    if algo == "brute":
        ordering, cost = brute_force_optimal(inst, cap=cap)
        return ordering, cost, 0, "brute", DpStats()
    if algo in ("dp", "dcdp"):
        # The forward DP only visits downward-closed sets, so dcdp is plain dp
        # under its own name.
        ordering, cost, stats = solve_filtered(inst)
        return ordering, cost, stats.states_expanded, algo, stats
    ordering, cost, report = solve(inst, config, wq_cap=wq_cap)
    return ordering, cost, report.stats_total.states_expanded, report.chosen_path, report


def _wq_cap_message(wq_cap: int) -> str:
    return f"a quarter-window set needed more than --wq-cap={wq_cap} jobs; its subcase ran the dcdp fallback"


def cmd_solve(args) -> int:
    inst = _load(args.input)
    config = _config_from_args(args)
    result = _run_algo(inst, args.algo, config, args.cap, args.wq_cap)
    ordering, cost, _, chosen, extra = result
    order_str = ",".join(str(p - 1) for p in ordering.positions)
    print(f"cost={cost} order={order_str}")
    if isinstance(extra, SolveReport):
        for warning in extra.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if extra.wq_cap_hit:
            print(f"warning: {_wq_cap_message(args.wq_cap)}", file=sys.stderr)
    if args.stats:
        # extra is a SolveReport or a DpStats; both write their own CSV row.
        _write(args.stats, f"algo,{extra.CSV_HEADER}\n{args.algo},{extra.as_csv_row()}\n")
    return 0


def cmd_verify(args) -> int:
    inst = _load(args.input)
    try:
        # "" is the empty ordering; an empty token anywhere else is malformed.
        positions = [int(tok) + 1 for tok in args.order.split(",")] if args.order else []
    except ValueError:
        print(f"malformed ordering {args.order!r}", file=sys.stderr)
        return 1
    ordering = Ordering(tuple(positions))
    try:
        cost = ordering_cost(inst, ordering)
    except NotABijection as exc:
        print(f"malformed ordering: {exc}", file=sys.stderr)
        return 1
    valid = validate_ordering(inst, ordering)
    print(f"cost={cost} valid={'true' if valid else 'false'}")
    return 0 if valid else 3


def cmd_gen(args) -> int:
    if not 0.0 <= args.density <= 1.0:
        print(f"density {args.density} outside [0, 1]", file=sys.stderr)
        return 1
    if args.n < 0 or args.tmax < 0:
        print("n and tmax must be nonnegative", file=sys.stderr)
        return 1
    payload = generate(args.model, args.n, args.density, args.tmax, args.seed)
    text = instance_to_json(payload["n"], payload["times"], payload["precedences"])
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_count(args) -> int:
    inst = _load(args.input)
    if args.what == "ideals":
        try:
            count = count_order_ideals(inst)
        except InstanceTooLarge as exc:
            print(f"instance too large: {exc}", file=sys.stderr)
            return 1
        matching = greedy_maximal_matching(comparability_graph(inst))
        bound = ideal_count_bound(inst.n, matching.num_pairs)
    else:
        if not args.K:
            print("--K is required for non-exchangeable counting", file=sys.stderr)
            return 1
        try:
            jobs = [int(tok) for tok in args.K.split(",")]
        except ValueError:
            print(f"malformed job list {args.K!r}", file=sys.stderr)
            return 1
        k = 0
        for v in jobs:
            if not 0 <= v < inst.n:
                print(f"job {v} out of range", file=sys.stderr)
                return 1
            if k >> v & 1:
                print(f"job {v} listed twice", file=sys.stderr)
                return 1
            k |= 1 << v
        for v in jobs:
            before = inst.pred_masks[v] & k
            if before:
                u = next(bits(before))
                print(f"--K is not an antichain: job {u} precedes job {v}", file=sys.stderr)
                return 1
        mode = "succ" if args.what == "non-exch-succ" else "pred"
        try:
            count = len(enumerate_non_exchangeable(inst, k, mode))
        except SetTooLarge as exc:
            print(f"--K too large: {exc}", file=sys.stderr)
            return 1
        bound = non_exchangeable_bound(inst, k, mode)
    print(f"count={count} bound={bound}")
    return 4 if count > bound else 0


def _bench_one(task: tuple[str, Instance, int, str], *, config, cap: int, wq_cap: int, timing: bool):
    """One CSV row: (name, algo, cost, row, wq_cap_hit)."""
    name, inst, pairs, algo = task
    t0 = time.perf_counter()
    ordering, cost, states, chosen, extra = _run_algo(inst, algo, config, cap, wq_cap)
    wall = (time.perf_counter() - t0) * 1000 if timing else 0.0
    row = f"{name},{inst.n},{pairs},{algo},{cost},{states},{wall:.3f},{chosen}"
    return name, algo, cost, row, isinstance(extra, SolveReport) and extra.wq_cap_hit


def _run_tasks(run, tasks: list, workers: int) -> list:
    """[run(t) for t in tasks], on this process and workers - 1 forked helpers.

    Every process claims the next task index from one shared counter, so the
    tasks start in list order. The helpers see the tasks through fork memory
    and send their (index, result) pairs back in one message each. A process
    stops at its first failing task and pushes the counter past the end, so
    no process claims another. Once every helper has exited, the failure with
    the lowest index is re-raised: every task before it was claimed, so it is
    the first failure of the list, as in a serial run. A helper that exits
    without reporting raises ChildProcessError.
    """
    ctx = multiprocessing.get_context("fork")
    next_index = ctx.Value("i", 0)

    def claim_and_run():
        done = []
        while True:
            with next_index.get_lock():
                i = next_index.value
                next_index.value = i + 1
            if i >= len(tasks):
                return done
            try:
                done.append((i, run(tasks[i])))
            except Exception as exc:
                next_index.value = len(tasks)
                done.append((i, exc))
                return done

    def helper(sender):
        sender.send(claim_and_run())

    results = []
    helpers = []
    silent = []
    try:
        for _ in range(workers - 1):
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=helper, args=(sender,))
            proc.start()
            # Only the helper holds the sending end, so its exit ends recv().
            sender.close()
            helpers.append((proc, receiver))
        results += claim_and_run()
    finally:
        next_index.value = len(tasks)
        for proc, receiver in helpers:
            # recv() before join(): a helper whose message outgrows the pipe
            # cannot exit until it is read.
            with receiver:
                try:
                    results += receiver.recv()
                except EOFError:
                    silent.append(proc)
            proc.join()
    if silent:
        raise ChildProcessError(f"a bench worker exited with code {silent[0].exitcode} without reporting")
    results.sort(key=lambda r: r[0])
    for _, result in results:
        if isinstance(result, Exception):
            raise result
    return [result for _, result in results]


def cmd_bench(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"not a directory: {args.dir}", file=sys.stderr)
        return 1
    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 1
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos or len(set(algos)) < len(algos):
        print(f"--algos must list at least one algorithm, none twice, got {args.algos!r}", file=sys.stderr)
        return 1
    for a in algos:
        if a not in ALGOS:
            print(f"unknown algorithm {a!r}", file=sys.stderr)
            return 1
    config = _config_from_args(args)
    if "full" in algos:
        for warning in (config or EpsilonConfig.default()).dispatch_warnings():
            print(f"warning: {warning}", file=sys.stderr)
    # Every file is loaded and matched once, here and in name order, so the
    # first bad file ends the run before any task starts.
    loaded = []
    for path in sorted(p for p in directory.iterdir() if p.suffix == ".json"):
        inst = _load(str(path))
        loaded.append((path.name, inst, greedy_maximal_matching(comparability_graph(inst)).num_pairs))
    tasks = [(name, inst, pairs, a) for a in algos for name, inst, pairs in loaded]
    # Longest first, so that no long task starts last: brute's tasks by their
    # n!/2^k linear extensions (k matched pairs; 2^k divides n! as k <= n/2),
    # then the others algo-major. The sort is stable: ties stay in name order.
    tasks.sort(key=lambda t: -(factorial(t[1].n) >> t[2]) if t[3] == "brute" else 0)
    run = partial(_bench_one, config=config, cap=args.cap, wq_cap=args.wq_cap, timing=not args.no_timing)

    # Helpers are forked, not spawned: spawn would re-import the package and
    # pickle every instance, which costs more than a typical bench run.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    results = _run_tasks(run, tasks, workers) if workers > 1 else list(map(run, tasks))

    results.sort(key=lambda r: (r[0], r[1]))
    lines = [BENCH_HEADER] + [r[3] for r in results]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)

    costs: dict[str, set[int]] = {}
    for name, _, cost, _, wq_cap_hit in results:
        costs.setdefault(name, set()).add(cost)
        if wq_cap_hit:
            print(f"warning: {name}: {_wq_cap_message(args.wq_cap)}", file=sys.stderr)
    for name, seen in sorted(costs.items()):
        if len(seen) > 1:
            print(f"cost mismatch on {name}: {sorted(seen)}", file=sys.stderr)
            return 5
    return 0


def _add_eps_flags(p: argparse.ArgumentParser) -> None:
    for i in (1, 2, 3, 4):
        p.add_argument(f"--eps{i}", default=None, help=f"dispatch threshold eps{i} (exact rational or decimal)")
    p.add_argument("--wq-cap", type=int, default=3, help="max size of a guessed quarter-window set, at least 0")
    p.add_argument("--cap", type=int, default=12, help="brute-force enumeration cap, at least 0")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schedexact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("--input", required=True)
    p.add_argument("--algo", choices=ALGOS, default="full")
    p.add_argument("--stats", default=None, help="write a stats CSV here")
    _add_eps_flags(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="check an ordering and print its cost")
    p.add_argument("--input", required=True)
    p.add_argument("--order", required=True, help="comma list of 0-based positions per job")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--tmax", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("count", help="count structures and check the bound")
    p.add_argument("--input", required=True)
    p.add_argument("--what", choices=("ideals", "non-exch-succ", "non-exch-pred"), required=True)
    p.add_argument("--K", default=None, help="comma list of jobs forming the ground antichain")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("bench", help="run algorithms over a directory of instances")
    p.add_argument("--dir", required=True)
    p.add_argument("--algos", required=True, help="comma list from brute,dp,dcdp,full")
    p.add_argument("--out", default=None)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, at least 1, capped by the tasks and the CPUs; this process is one of"
        " them and forks the others (1: run in this process)",
    )
    p.add_argument("--no-timing", action="store_true", help="report wall_ms as 0 for reproducible output")
    _add_eps_flags(p)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except InstanceTooLarge as exc:
        print(f"instance too large for brute: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
