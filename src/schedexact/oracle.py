"""Brute-force ground truth: enumerate linear extensions, keep the cheapest.

Deliberately naive so it stays an independent check for every solver:
no memoization, no pruning beyond precedence feasibility, and nothing
imported from the DP, solver or decomposition layers. The DFS picks the
next job in increasing index order, so enumeration order and tie breaks
are deterministic. `brute_force_optimal` costs every linear extension on
the same walk as `linear_extensions`, which stays the plain reference.
"""

from __future__ import annotations

from typing import Iterator

from .instance import Instance, Ordering


class InstanceTooLarge(ValueError):
    pass


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
    times = inst.times
    if n < 2:  # the walk below closes its leaves two jobs from the end
        return Ordering.from_sequence(range(n)), sum(times)
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
    best_cost: int | None = None
    best_seq: tuple[int, ...] = ()
    prefix: list[int] = []

    def walk(placed: int, ready: int, coeff: int, cost: int) -> None:
        nonlocal best_cost, best_seq
        m = ready
        if coeff == 2:
            # After the next job one is left, the last of the sequence: close
            # the leaf here rather than in one more call.
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                u = (full ^ placed ^ b).bit_length() - 1
                leaf = cost + 2 * times[v] + times[u]
                if best_cost is None or leaf < best_cost:
                    best_cost = leaf
                    best_seq = (*prefix, v, u)
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
    if best_cost is None:
        raise AssertionError("a finite poset always has a linear extension")
    return Ordering.from_sequence(best_seq), best_cost
