"""Correctness gate: every output of a run is checked against an independent
reference before any metric is published.

Runs in the parent process, after the measured child has exited, so it is
outside every timed window, outside set-up and outside the child's peak
memory.
"""

from __future__ import annotations

import json

from workloads import CLI_ALGOS, Workload, cli_file_name

# brute enumerates every linear extension: about n!/2^k orders for k matched
# pairs. At n=10 that is a second or more per instance, which a run cannot
# afford once per pool slot, so larger instances use plain dp instead.
BRUTE_MAX_N = 9


def reference_cost(item: dict) -> int:
    """Optimum from a route the solver under test does not take: shortest
    processing time first for an antichain, brute force for small n, plain
    subset dp otherwise."""
    from schedexact.dp import solve_filtered
    from schedexact.gen import to_instance
    from schedexact.oracle import brute_force_optimal

    n = item["n"]
    if not item["precedences"]:
        times = sorted(item["times"])
        return sum((n - i) * t for i, t in enumerate(times))
    inst = to_instance(item)
    if n <= BRUTE_MAX_N:
        return brute_force_optimal(inst)[1]
    return solve_filtered(inst)[1]


def _solve_ok(inst, out, ref: int) -> bool:
    from schedexact.instance import Ordering, ordering_cost, validate_ordering

    positions, cost = out
    ordering = Ordering(tuple(positions))
    try:
        recost = ordering_cost(inst, ordering)
    except ValueError:  # not a bijection onto 1..n
        return False
    return validate_ordering(inst, ordering) and recost == cost == ref


def _bench_ok(pool: list[dict], refs: list[int], out) -> bool:
    code, text = out
    if code != 0:
        return False
    lines = text.splitlines()
    if not lines:
        return False
    header = lines[0].split(",")
    name_col, algo_col, cost_col = header.index("instance"), header.index("algo"), header.index("cost")
    expected = {
        (cli_file_name(slot, item), algo): refs[slot]
        for slot, item in enumerate(pool)
        for algo in CLI_ALGOS.split(",")
    }
    seen = {}
    for line in lines[1:]:
        row = line.split(",")
        seen[(row[name_col], row[algo_col])] = int(row[cost_col])
    return seen == expected


def check(workload: Workload, pool: list[dict], outputs: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over the deduplicated outputs of a run.

    `outputs` holds [key, count] pairs, the key being the JSON of
    [slot, output, error]; identical outputs share one verdict.
    """
    from schedexact.gen import to_instance

    refs = [reference_cost(item) for item in pool]
    insts = [to_instance(item) for item in pool]
    attempted = failed = 0
    reasons = []
    for key, count in outputs:
        slot, out, error = json.loads(key)
        attempted += count
        if error is not None:
            ok = False
            reason = error
        elif workload.cli:
            ok = _bench_ok(pool, refs, out)
            reason = f"bench exit {out[0]} or a CSV cost differs from the reference"
        else:
            ok = _solve_ok(insts[slot], out, refs[slot])
            reason = f"slot {slot}: ordering invalid or cost {out[1]} != reference {refs[slot]}"
        if not ok:
            failed += count
            reasons.append(reason)
    return attempted, failed, reasons
