"""Memoized dynamic programming over job subsets with pluggable pruning.

Every DP in the package runs on one engine, SubsetDP. States are
bitmasks. The forward recursion grows a schedule prefix: the best cost of
a set X picks which maximal element of X goes last, at position
offset + |X|. The reverse recursion mirrors it over schedule suffixes,
removing minimal elements placed at position n - offset - |X| + 1. Because
every transition strips an extreme element, forward states are always
downward closed and reverse states upward closed; no explicit closure
test is needed inside the recursion.

An acceptance predicate may reject states; rejected states contribute
infinity and their subtrees are never expanded, which is where all the
pruning leverage comes from.

A label set L travels with the state. While |state| <= freeze_size, L
must equal state & label_domain and shrinks with it; above the freeze
size L is pinned and its members cannot be removed as the extreme
element. With label_domain = 0 the label is always empty and the engine
is the plain subset DP.

The tables live as long as the engine, so visits from several top states
share them. solve_filtered and solve_filtered_labeled are one-shot
drivers: build an engine, visit the start state (for the labeled DP with
freeze_size < n, every label subset of size label_target at the full
set), rebuild the sequence. The independent-quarters split keeps one
offset engine per quarter for all the content guesses of a variant, and
the dcdp route runs one offset engine per Sidney block.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional

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


def is_downward_closed(inst: Instance, x: int) -> bool:
    m = x
    pred = inst.pred_masks
    while m:
        b = m & -m
        m ^= b
        if pred[b.bit_length() - 1] & ~x:
            return False
    return True


def _recursion_guard(n: int) -> None:
    # Recursion depth equals n plus interpreter frames; lift the limit for big n.
    if sys.getrecursionlimit() < 4 * n + 200:
        sys.setrecursionlimit(4 * n + 200)


def subsets_of_size(mask: int, k: int) -> Iterator[int]:
    """The k-element subsets of mask, in combinations order of its bits."""
    bits = []
    m = mask
    while m:
        b = m & -m
        m ^= b
        bits.append(b)
    for combo in combinations(bits, k):
        yield sum(combo)


class SubsetDP:
    """The memoised subset recursion behind every DP strategy.

    A key is a (state, label) pair; label_domain=0 gives the unlabeled DP,
    whose label is always 0. Removing job v from a state of size s costs
    (n - offset - s + 1) * t(v) forward and (offset + s) * t(v) in reverse:
    a forward schedule of the state starts at absolute position offset + 1,
    a reverse one ends at n - offset. The tables persist across visit()
    calls, so one engine serves repeated visits from different top states.
    """

    def __init__(
        self,
        inst: Instance,
        accept: Optional[Callable[[int, int], bool]] = None,
        *,
        label_domain: int = 0,
        freeze_size: Optional[int] = None,
        reverse: bool = False,
        offset: int = 0,
    ):
        n = inst.n
        freeze = n if freeze_size is None else freeze_size
        self.n = n
        self.freeze = freeze
        self.reverse = reverse
        # Every visited key, with None for no surviving path; the rejected
        # and invalid keys among them are counted apart.
        self.cost: dict[int, int | None] = {}
        self.last: dict[int, int] = {}
        self.dead = dead = [0, 0]  # rejected, invalid
        cost, last = self.cost, self.last
        if accept is None and freeze >= n:
            # With nothing to cut a path every visit ends at the empty
            # state, so it is tabled (and counted) from the start.
            cost[0] = 0
        # mult[s] multiplies t(v) when v is removed from a state of size s.
        mult = range(offset, offset + n + 1) if reverse else range(n - offset + 1, -offset, -1)
        times = inst.times
        blockers = inst.pred_masks if reverse else inst.succ_masks
        full = inst.full_mask
        # A key is label << n | state. Removing job v flips its state bit,
        # and its label bit too while the label still follows the state.
        frozen_step = [1 << v for v in range(n)]
        building_step = (
            [b | (b & label_domain) << n for b in frozen_step] if label_domain else frozen_step
        )
        _recursion_guard(n)

        # rec is handed itself rather than closing over its own name: no
        # reference cycle, so the tables go with the engine, without the GC.
        def rec(key: int, rec) -> int | None:
            hit = cost.get(key, _MISS)
            if hit is not _MISS:
                return hit
            x = key & full
            size = x.bit_count()
            if size > freeze:
                # Above the freeze size the label is pinned: its jobs stay put.
                cand, step = x & ~(key >> n), frozen_step
            elif key >> n == x & label_domain:
                cand, step = x, building_step
            else:
                dead[1] += 1
                cost[key] = None
                return None
            if accept is not None and not accept(x, key >> n):
                dead[0] += 1
                cost[key] = None
                return None
            if x == 0:
                cost[key] = 0
                return 0
            m = mult[size]
            best: int | None = None
            bv = -1
            while cand:
                b = cand & -cand
                cand ^= b
                v = b.bit_length() - 1
                if blockers[v] & x:
                    continue
                sub = rec(key ^ step[v], rec)
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

        self._rec = rec

    def visit(self, x: int, lab: int = 0) -> int | None:
        """Best cost of (x, lab), or None if no path to the empty state survives."""
        key = lab << self.n | x
        hit = self.cost.get(key, _MISS)
        return self._rec(key, self._rec) if hit is _MISS else hit

    def sequence(self, x: int, lab: int = 0) -> list[int]:
        """The jobs of x in schedule order along the recorded best choices."""
        seq = []
        while x:
            v = self.last[lab << self.n | x]
            seq.append(v)
            b = 1 << v
            if x.bit_count() <= self.freeze:
                lab &= ~b
            x ^= b
        if not self.reverse:
            seq.reverse()
        return seq

    def stats(self) -> DpStats:
        rejected, invalid = self.dead
        return DpStats(len(self.cost) - rejected - invalid, rejected, len(self.cost))


def solve_filtered(
    inst: Instance, accept: Optional[Callable[[int], bool]] = None
) -> tuple[Ordering, int, DpStats]:
    """Optimal ordering among those whose every prefix state is accepted.

    With accept=None this is the plain exhaustive subset DP. Raises
    Infeasible when the full set admits no surviving schedule.
    """
    dp = SubsetDP(inst, None if accept is None else lambda x, _lab: accept(x))
    total = dp.visit(inst.full_mask)
    if total is None:
        raise Infeasible("no ordering survives the acceptance predicate")
    return Ordering.from_sequence(dp.sequence(inst.full_mask)), total, dp.stats()


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
    full = inst.full_mask
    dp = SubsetDP(
        inst, accept, label_domain=label_domain, freeze_size=freeze_size, reverse=reverse
    )
    if inst.n <= dp.freeze:
        starts: Iterable[int] = [full & label_domain]
    elif label_target is None:
        raise ValueError("label_target is required when freeze_size < n")
    else:
        starts = subsets_of_size(label_domain, label_target)
    best_total: int | None = None
    best_lab = 0
    for lab in starts:
        total = dp.visit(full, lab)
        if total is not None and (best_total is None or total < best_total):
            best_total = total
            best_lab = lab
    if best_total is None:
        raise Infeasible("no ordering survives the acceptance predicate")
    return Ordering.from_sequence(dp.sequence(full, best_lab)), best_total, dp.stats()
