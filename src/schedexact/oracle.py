"""Brute-force ground truth: enumerate linear extensions, keep the cheapest.

Deliberately naive so it stays an independent check for every solver:
no memoization, no pruning beyond precedence feasibility, and nothing
imported from the DP, solver or decomposition layers. The DFS picks the
next job in increasing index order, so enumeration order and tie breaks
are deterministic. `brute_force_optimal` costs every linear extension on
the same walk as `linear_extensions`, which stays the plain reference; it
closes each leaf three jobs from the end, costing the last two jobs in
each order their precedence allows without a further call.
"""

from __future__ import annotations

from typing import Iterator

from .instance import Instance, InstanceTooLarge, Ordering, ordering_cost


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise InstanceTooLarge(f"n={n} exceeds enumeration cap {cap}")


def linear_extensions(inst: Instance, cap: int = 12) -> Iterator[Ordering]:
    """Yield every precedence-respecting ordering exactly once."""
    n = inst.n
    _check_cap(n, cap)
    if n == 0:
        yield Ordering(())
        return
    succ = inst.succ_masks
    pred = inst.pred_masks
    prefix: list[int] = []

    def walk(placed: int, ready: int) -> Iterator[Ordering]:
        if len(prefix) == n:
            yield Ordering.from_sequence(prefix)
            return
        m = ready
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            nxt = ready ^ b
            s = succ[v] & ~placed & ~b
            while s:
                sb = s & -s
                s ^= sb
                w = sb.bit_length() - 1
                if pred[w] & ~(placed | b) == 0:
                    nxt |= sb
            prefix.append(v)
            yield from walk(placed | b, nxt)
            prefix.pop()

    ready0 = 0
    for v in range(n):
        if pred[v] == 0:
            ready0 |= 1 << v
    yield from walk(0, ready0)


def brute_force_optimal(inst: Instance, cap: int = 12) -> tuple[Ordering, int]:
    """Exact optimum by exhaustive search; ties go to the first sequence found."""
    n = inst.n
    _check_cap(n, cap)
    if n < 3:
        # The walk below closes its leaves three jobs from the end. min keeps
        # the first of equal minima, as the walk does.
        return min(((o, ordering_cost(inst, o)) for o in linear_extensions(inst)), key=lambda oc: oc[1])
    times = inst.times
    full = inst.full_mask
    pred = inst.pred_masks
    # No successor of v is placed before v, so placing v only has to look at
    # each successor's predecessors: (successor bit, its predecessor mask).
    unlocks = []
    for v in range(n):
        pairs = []
        s = inst.succ_masks[v]
        while s:
            sb = s & -s
            s ^= sb
            pairs.append((sb, pred[sb.bit_length() - 1]))
        unlocks.append(tuple(pairs))
    # Above every schedule's cost (each of n completions is at most the sum
    # of times), so the first leaf always becomes the best one.
    best_cost = n * sum(times) + 1
    best_seq: tuple[int, ...] = ()
    prefix: list[int] = []

    def walk(placed: int, ready: int, coeff: int, cost: int) -> None:
        nonlocal best_cost, best_seq
        m = ready
        if coeff == 3:
            # After the next job v two are left, x < y: cost each order the
            # precedence allows here rather than in two more calls. With every
            # other job placed, x is ready after v unless y precedes it.
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                rest = full ^ placed ^ b
                xb = rest & -rest
                yb = rest ^ xb
                x = xb.bit_length() - 1
                y = yb.bit_length() - 1
                head = cost + 3 * times[v] + times[x] + times[y]
                if not pred[x] & yb and head + times[x] < best_cost:
                    best_cost = head + times[x]
                    best_seq = (*prefix, v, x, y)
                if not pred[y] & xb and head + times[y] < best_cost:
                    best_cost = head + times[y]
                    best_seq = (*prefix, v, y, x)
            return
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            now = placed | b
            nxt = ready ^ b
            for sb, pw in unlocks[v]:
                if pw & now == pw:
                    nxt |= sb
            prefix.append(v)
            walk(now, nxt, coeff - 1, cost + coeff * times[v])
            prefix.pop()

    ready0 = 0
    for v in range(n):
        if pred[v] == 0:
            ready0 |= 1 << v
    walk(0, ready0, n, 0)
    return Ordering.from_sequence(best_seq), best_cost
