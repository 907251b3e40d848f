"""Command-line surface: solve, verify, gen, count, bench.

Exit codes: 0 success, 1 malformed input or flags, 2 infeasible or
cyclic instance, 3 invalid ordering (verify), 4 violated counting bound
(count), 5 cost mismatch between algorithms (bench).
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# is_downward_closed is unused here but stays importable: perfbench/spans.py
# wraps it by this module's name.
from .dp import DpStats, is_downward_closed, solve_filtered  # noqa: F401
from .exchange import enumerate_non_exchangeable, non_exchangeable_bound
from .gen import MODELS, generate
from .instance import (
    CyclicPrecedence,
    Instance,
    NotABijection,
    Ordering,
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


def _config_from_args(args) -> EpsilonConfig | None:
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
    if algo == "dp":
        ordering, cost, stats = solve_filtered(inst)
        return ordering, cost, stats.states_expanded, "dp", stats
    if algo == "dcdp":
        # The forward DP only visits downward-closed sets, so dcdp is plain dp
        # under its own name.
        ordering, cost, stats = solve_filtered(inst)
        return ordering, cost, stats.states_expanded, "dcdp", stats
    ordering, cost, report = solve(inst, config, wq_cap=wq_cap)
    return ordering, cost, report.stats_total.states_expanded, report.chosen_path, report


def cmd_solve(args) -> int:
    inst = _load(args.input)
    config = _config_from_args(args)
    result = _run_algo(inst, args.algo, config, args.cap, args.wq_cap)
    ordering, cost, _, chosen, extra = result
    order_str = ",".join(str(p - 1) for p in ordering.positions)
    print(f"cost={cost} order={order_str}")
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            if isinstance(extra, SolveReport):
                fh.write("algo," + SolveReport.CSV_HEADER + "\n")
                fh.write(f"{args.algo}," + extra.as_csv_row() + "\n")
            else:
                fh.write("algo," + DpStats.CSV_HEADER + "\n")
                fh.write(f"{args.algo}," + extra.as_csv_row() + "\n")
    return 0


def cmd_verify(args) -> int:
    inst = _load(args.input)
    try:
        positions = [int(tok) + 1 for tok in args.order.split(",") if tok != ""]
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
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_count(args) -> int:
    inst = _load(args.input)
    if args.what == "ideals":
        count = count_order_ideals(inst)
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
            k |= 1 << v
        mode = "succ" if args.what == "non-exch-succ" else "pred"
        count = len(enumerate_non_exchangeable(inst, k, mode))
        bound = non_exchangeable_bound(inst, k, mode)
    print(f"count={count} bound={bound}")
    return 4 if count > bound else 0


def _bench_one(path: Path, algo: str, config, cap: int, wq_cap: int, timing: bool):
    inst = _load(str(path))
    matching = greedy_maximal_matching(comparability_graph(inst))
    t0 = time.perf_counter()
    ordering, cost, states, chosen, _ = _run_algo(inst, algo, config, cap, wq_cap)
    wall = (time.perf_counter() - t0) * 1000 if timing else 0.0
    row = (
        f"{path.name},{inst.n},{matching.num_pairs},{algo},{cost},"
        f"{states},{wall:.3f},{chosen}"
    )
    return path.name, algo, cost, row


def cmd_bench(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"not a directory: {args.dir}", file=sys.stderr)
        return 1
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ALGOS:
            print(f"unknown algorithm {a!r}", file=sys.stderr)
            return 1
    config = _config_from_args(args)
    files = sorted(p for p in directory.iterdir() if p.suffix == ".json")
    jobs = [(p, a) for p in files for a in algos]
    timing = not args.no_timing

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(
                pool.map(lambda pa: _bench_one(pa[0], pa[1], config, args.cap, args.wq_cap, timing), jobs)
            )
    else:
        results = [_bench_one(p, a, config, args.cap, args.wq_cap, timing) for p, a in jobs]

    results.sort(key=lambda r: (r[0], r[1]))
    lines = [BENCH_HEADER] + [r[3] for r in results]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)

    costs: dict[str, set[int]] = {}
    for name, _, cost, _ in results:
        costs.setdefault(name, set()).add(cost)
    for name, seen in sorted(costs.items()):
        if len(seen) > 1:
            print(f"cost mismatch on {name}: {sorted(seen)}", file=sys.stderr)
            return 5
    return 0


def _add_eps_flags(p: argparse.ArgumentParser) -> None:
    for i in (1, 2, 3, 4):
        p.add_argument(f"--eps{i}", default=None, help=f"dispatch threshold eps{i} (exact rational or decimal)")
    p.add_argument("--wq-cap", type=int, default=3, help="max size of a guessed quarter-window set")
    p.add_argument("--cap", type=int, default=12, help="brute-force enumeration cap")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schedexact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("--input", required=True)
    p.add_argument("--algo", choices=ALGOS, default="full")
    p.add_argument("--stats", default=None, help="write a stats CSV here")
    p.add_argument("--seed", type=int, default=0, help="unused; accepted for harness symmetry")
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
    p.add_argument("--jobs", type=int, default=1)
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
    except CyclicPrecedence as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
