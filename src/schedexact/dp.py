"""Memoized dynamic programming over job subsets with pluggable pruning.

Every DP in the package runs on one engine, SubsetDP. States are
bitmasks. The recursion grows a schedule prefix: the best cost of a set X
picks which maximal element of X goes last, at position offset + |X|.
Because every transition strips a maximal element, states are always
downward closed; no explicit closure test is needed inside the recursion.

A DP over schedule suffixes is this one on instance.mirror(inst), which
swaps predecessors and successors and negates times. A suffix state X of
size s ends at position n - offset and puts its first job v at position
n - offset - s + 1, at cost (offset + s) * t(v). On the mirror removing v
costs (n - offset - s + 1) * (-t(v)), which is that cost minus
(n + 1) * t(v). By induction every state costs its suffix cost minus
(n + 1) * t(X): the same shift for every choice at X, so the same job
wins and the same states are visited. Read backwards, the mirror's
sequence is the suffix schedule.

An acceptance predicate may reject states; rejected states contribute
infinity and their subtrees are never expanded, which is where all the
pruning leverage comes from.

A label set L travels with the state. While |state| <= freeze_size, L
must equal state & label_domain and shrinks with it; above the freeze
size L is pinned and its members cannot be removed as the maximal
element. With label_domain = 0 the label is always empty and the engine
is the plain subset DP.

The tables live as long as the engine, so visits from several top states
share them. solve_filtered_labeled is the one-shot driver: build an
engine, visit the start state (with freeze_size < n, every label subset
of size label_target at the full set), rebuild the sequence.
solve_filtered is that driver with an empty label domain. The
independent-quarters split keeps one offset engine per quarter for all
the content guesses of a variant, and the dcdp route runs one offset
engine per Sidney block.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional

from .instance import Instance, Ordering, bits

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
    pred = inst.pred_masks
    return not any(pred[v] & ~x for v in bits(x))


def _recursion_guard(n: int) -> None:
    # Recursion depth equals n plus interpreter frames; lift the limit for big n.
    if sys.getrecursionlimit() < 4 * n + 200:
        sys.setrecursionlimit(4 * n + 200)


def subsets_of_size(mask: int, k: int) -> Iterator[int]:
    """The k-element subsets of mask, in combinations order of its bits."""
    for combo in combinations([1 << v for v in bits(mask)], k):
        yield sum(combo)


class SubsetDP:
    """The memoised subset recursion behind every DP strategy.

    A key is a (state, label) pair; label_domain=0 gives the unlabeled DP,
    whose label is always 0. Removing job v from a state of size s costs
    (n - offset - s + 1) * t(v): a schedule of the state starts at absolute
    position offset + 1. The tables persist across visit() calls, so one
    engine serves repeated visits from different top states.
    """

    def __init__(
        self,
        inst: Instance,
        accept: Optional[Callable[[int, int], bool]] = None,
        *,
        label_domain: int = 0,
        freeze_size: Optional[int] = None,
        offset: int = 0,
    ):
        n = inst.n
        freeze = n if freeze_size is None else freeze_size
        self.n = n
        self.freeze = freeze
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
        mult = range(n - offset + 1, -offset, -1)
        times = inst.times
        blockers = inst.succ_masks
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
    return solve_filtered_labeled(inst, 0, None if accept is None else lambda x, _lab: accept(x))


def solve_filtered_labeled(
    inst: Instance,
    label_domain: int,
    accept: Optional[Callable[[int, int], bool]] = None,
    *,
    freeze_size: Optional[int] = None,
    label_target: Optional[int] = None,
) -> tuple[Ordering, int, DpStats]:
    """Labeled subset DP over (state, label) pairs.

    freeze_size defaults to n, which keeps L = state & label_domain all the
    way up and needs no label_target. With freeze_size < n the terminal
    labels enumerate the subsets of label_domain of size label_target.
    """
    full = inst.full_mask
    dp = SubsetDP(inst, accept, label_domain=label_domain, freeze_size=freeze_size)
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
