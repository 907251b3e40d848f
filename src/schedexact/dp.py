"""Memoized dynamic programming over job subsets with pluggable pruning.

States are bitmasks. The forward recursion grows a schedule prefix: the
best cost of a set X picks which maximal element of X goes last, at
position |X|. The reverse recursion mirrors it over schedule suffixes,
removing minimal elements placed at position n - |S| + 1. Because every
transition strips an extreme element, forward states are always downward
closed and reverse states upward closed; no explicit closure test is
needed inside the recursion.

An acceptance predicate may reject states; rejected states contribute
infinity and their subtrees are never expanded, which is where all the
pruning leverage comes from.

The labeled variant threads a second set L through the recursion. While
|state| <= freeze_size, L must equal state & label_domain and shrinks
with it; above the freeze size L is pinned and its members cannot be
removed as the extreme element. Terminal states at the full set range
over the label subsets of size label_target.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .instance import Instance, Ordering

_MISS = object()


class Infeasible(RuntimeError):
    """Every ordering has some rejected state; no schedule survives the filter."""


@dataclass
class DpStats:
    states_expanded: int = 0
    states_rejected: int = 0
    peak_table_size: int = 0

    CSV_HEADER = "states_expanded,states_rejected,peak_table_size"

    def as_csv_row(self) -> str:
        return f"{self.states_expanded},{self.states_rejected},{self.peak_table_size}"

    def add(self, other: "DpStats") -> None:
        """Sum the state counts; the peak is the largest single table."""
        self.states_expanded += other.states_expanded
        self.states_rejected += other.states_rejected
        self.peak_table_size = max(self.peak_table_size, other.peak_table_size)


def max_elements(inst: Instance, x: int) -> int:
    """Members of x with no successor inside x."""
    out = 0
    m = x
    succ = inst.succ_masks
    while m:
        b = m & -m
        m ^= b
        if not succ[b.bit_length() - 1] & x:
            out |= b
    return out


def min_elements(inst: Instance, x: int) -> int:
    """Members of x with no predecessor inside x."""
    out = 0
    m = x
    pred = inst.pred_masks
    while m:
        b = m & -m
        m ^= b
        if not pred[b.bit_length() - 1] & x:
            out |= b
    return out


def is_downward_closed(inst: Instance, x: int) -> bool:
    m = x
    pred = inst.pred_masks
    while m:
        b = m & -m
        m ^= b
        if pred[b.bit_length() - 1] & ~x:
            return False
    return True


def _position_multipliers(n: int, reverse: bool) -> list[int]:
    # mult[s] multiplies t(v) when v is the element stripped from a state of size s.
    if reverse:
        return [0] + [s for s in range(1, n + 1)]
    return [0] + [n - s + 1 for s in range(1, n + 1)]


def _recursion_guard(n: int) -> None:
    # Recursion depth equals n plus interpreter frames; lift the limit for big n.
    if sys.getrecursionlimit() < 4 * n + 200:
        sys.setrecursionlimit(4 * n + 200)


def solve_filtered(
    inst: Instance,
    accept: Optional[Callable[[int], bool]] = None,
    *,
    reverse: bool = False,
) -> tuple[Ordering, int, DpStats]:
    """Optimal ordering among those whose every prefix state is accepted.

    With accept=None this is the plain exhaustive subset DP. Raises
    Infeasible when the full set admits no surviving schedule.
    """
    n = inst.n
    full = inst.full_mask
    times = inst.times
    blockers = inst.pred_masks if reverse else inst.succ_masks
    mult = _position_multipliers(n, reverse)

    cost: dict[int, int | None] = {}
    last: dict[int, int] = {}
    rejected: set[int] = set()
    _recursion_guard(n)

    def visit(x: int) -> int | None:
        hit = cost.get(x, _MISS)
        if hit is not _MISS:
            return hit
        if x in rejected:
            return None
        if accept is not None and not accept(x):
            rejected.add(x)
            return None
        if x == 0:
            cost[0] = 0
            return 0
        m = mult[x.bit_count()]
        best: int | None = None
        bv = -1
        cand = x
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            if blockers[v] & x:
                continue
            sub = visit(x ^ b)
            if sub is None:
                continue
            c = sub + m * times[v]
            if best is None or c < best:
                best = c
                bv = v
        cost[x] = best
        if best is not None:
            last[x] = bv
        return best

    try:
        total = visit(full)
    finally:
        del visit  # visit refers to itself: free the tables without the cyclic GC
    stats = DpStats(len(cost), len(rejected), len(cost) + len(rejected))
    if total is None:
        raise Infeasible("no ordering survives the acceptance predicate")
    seq = []
    x = full
    while x:
        v = last[x]
        seq.append(v)
        x ^= 1 << v
    if not reverse:
        seq.reverse()
    return Ordering.from_sequence(seq), total, stats


def solve_filtered_labeled(
    inst: Instance,
    label_domain: int,
    accept: Optional[Callable[[int, int], bool]] = None,
    *,
    freeze_size: Optional[int] = None,
    label_target: Optional[int] = None,
    reverse: bool = False,
) -> tuple[Ordering, int, DpStats]:
    """Labeled subset DP over (state, label) pairs.

    freeze_size defaults to n, which keeps L = state & label_domain all the
    way up and needs no label_target. With freeze_size < n the terminal
    labels enumerate the subsets of label_domain of size label_target.
    """
    n = inst.n
    full = inst.full_mask
    times = inst.times
    blockers = inst.pred_masks if reverse else inst.succ_masks
    mult = _position_multipliers(n, reverse)
    freeze = n if freeze_size is None else freeze_size
    _recursion_guard(n)

    cost: dict[int, int | None] = {}
    last: dict[int, int] = {}
    rejected: set[int] = set()
    invalid: set[int] = set()

    def visit(x: int, lab: int) -> int | None:
        key = (x << n) | lab
        hit = cost.get(key, _MISS)
        if hit is not _MISS:
            return hit
        if key in rejected or key in invalid:
            return None
        size = x.bit_count()
        if size <= freeze and lab != x & label_domain:
            invalid.add(key)
            return None
        if accept is not None and not accept(x, lab):
            rejected.add(key)
            return None
        if x == 0:
            cost[key] = 0
            return 0
        m = mult[size]
        building = size <= freeze
        best: int | None = None
        bv = -1
        cand = x if building else x & ~lab
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            if blockers[v] & x:
                continue
            sub = visit(x ^ b, lab & ~b if building else lab)
            if sub is None:
                continue
            c = sub + m * times[v]
            if best is None or c < best:
                best = c
                bv = v
        cost[key] = best
        if best is not None:
            last[key] = bv
        return best

    if n <= freeze:
        starts = [full & label_domain]
    else:
        if label_target is None:
            raise ValueError("label_target is required when freeze_size < n")
        dom_bits = []
        m = label_domain
        while m:
            b = m & -m
            m ^= b
            dom_bits.append(b)
        if label_target > len(dom_bits):
            raise Infeasible(
                f"label_target {label_target} exceeds |label_domain| {len(dom_bits)}"
            )
        starts = [sum(c) for c in combinations(dom_bits, label_target)]

    best_total: int | None = None
    best_lab = 0
    try:
        for lab in starts:
            total = visit(full, lab)
            if total is not None and (best_total is None or total < best_total):
                best_total = total
                best_lab = lab
    finally:
        del visit  # as in solve_filtered
    stats = DpStats(len(cost), len(rejected), len(cost) + len(rejected) + len(invalid))
    if best_total is None:
        raise Infeasible("no ordering survives the acceptance predicate")

    seq = []
    x, lab = full, best_lab
    while x:
        v = last[(x << n) | lab]
        seq.append(v)
        b = 1 << v
        if x.bit_count() <= freeze:
            lab &= ~b
        x ^= b
    if not reverse:
        seq.reverse()
    return Ordering.from_sequence(seq), best_total, stats


def prefix_trace(ordering: Ordering) -> list[int]:
    """The n + 1 prefix sets visited by the forward DP along this ordering."""
    masks = [0]
    x = 0
    for v in ordering.sequence:
        x |= 1 << v
        masks.append(x)
    return masks


def suffix_trace(ordering: Ordering) -> list[int]:
    """The n + 1 suffix sets visited by the reverse DP along this ordering."""
    masks = [0]
    x = 0
    for v in reversed(ordering.sequence):
        x |= 1 << v
        masks.append(x)
    return masks


def labeled_trace(
    ordering: Ordering,
    label_domain: int,
    freeze_size: int,
    *,
    reverse: bool = False,
) -> list[tuple[int, int]]:
    """(state, label) pairs traced by an ordering under the labeled transition.

    Labels follow the structural rule: equal to state & label_domain up to
    the freeze size, pinned beyond it.
    """
    states = suffix_trace(ordering) if reverse else prefix_trace(ordering)
    out = []
    frozen_lab: int | None = None
    for x in states:
        if x.bit_count() <= freeze_size:
            lab = x & label_domain
        else:
            if frozen_lab is None:
                frozen_lab = states[freeze_size] & label_domain
            lab = frozen_lab
        out.append((x, lab))
    return out
