"""Exact solver orchestration: dispatch over branch-and-reduce strategies.

The solver first computes a greedy maximal matching of the comparability
graph. With enough matched pairs it takes the dcdp route: the instance is
cut into Sidney blocks (sidney.py) and the plain subset DP solves each
block on its own. Otherwise the instance is padded, perturbed and solved
as the minimum over branches:

  * guess the first and the last job (endpoint variants);
  * guess, for every matched or endpoint job, which quarter of the
    position range it occupies (half split first, then refinement);
  * inside a branch, dispatch the cheapest applicable strategy: the
    half-window filtered DP, a quarter-labeled DP pruned by the
    exchange argument, or the split solver that treats opposite
    quarters independently; a conformance-filtered plain DP is the
    safety net when no premise holds.

Every branch returns a genuine feasible ordering which is revalidated
and recosted before entering the global minimum, so a wrong filter can
only lose performance, never correctness; completeness comes from the
branch whose guesses match the optimum.

Quarters are indexed 0..3 and named A..D. Position ranges are
(0, n/4], (n/4, n/2], (n/2, 3n/4], (3n/4, n]. Cases A and B run the
forward DP; cases C and D run the reverse DP over schedule suffixes,
where their label sets are actually trackable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Iterator, Optional

# is_downward_closed is unused here but stays importable: perfbench/spans.py
# wraps it by this module's name.
from .dp import (  # noqa: F401
    DpStats,
    Infeasible,
    is_downward_closed,
    solve_filtered,
    solve_filtered_labeled,
)
from .exchange import is_pred_exchangeable, is_succ_exchangeable
from .instance import (
    Instance,
    NormalizedInstance,
    Ordering,
    endpoint_variants,
    induced_instance,
    normalize,
    ordering_cost,
    restrict_to_origin,
    validate_ordering,
)
from .sidney import sidney_blocks
from .structure import comparability_graph, greedy_maximal_matching


class ContradictoryBranch(RuntimeError):
    """A branch guess forces a job into two disjoint position windows."""


class InternalInconsistency(RuntimeError):
    """A branch produced an ordering that fails revalidation; a bug trap."""


QUARTER_NAMES = "ABCD"
# Quarter -> index of its eligible ground set in p_sets (A, notA, notD, D).
CASE_DELTA = {"A": 0, "B": 1, "C": 2, "D": 3}


@dataclass(frozen=True)
class EpsilonConfig:
    """Dispatch thresholds, exact rationals.

    The published defaults make every threshold degenerate at desk scale;
    tests override them to force specific strategies. Values outside the
    regime where all strategies provably apply are allowed but reported
    by dispatch_warnings(); the solver stays exact regardless via its
    fallback path.
    """

    eps1: Fraction
    eps2: Fraction
    eps3: Fraction
    eps4: Fraction

    _DEFAULTS = (
        "2.677001953125e-10",
        "0.00002724628851234912872314453125",
        "0.007010121770270753069780766963958740234375",
        "0.016526753505895047409353537659626454114913940429688",
    )

    def __post_init__(self):
        vals = (self.eps1, self.eps2, self.eps3, self.eps4)
        for v in vals:
            if not 0 < v < 1:
                raise ValueError(f"epsilon {v} outside (0, 1)")
        if not (self.eps1 <= self.eps2 <= self.eps3 <= self.eps4):
            raise ValueError(f"epsilons must be nondecreasing, got {vals}")

    @classmethod
    def make(cls, e1, e2, e3, e4) -> "EpsilonConfig":
        return cls(*(_as_fraction(v) for v in (e1, e2, e3, e4)))

    @classmethod
    def default(cls) -> "EpsilonConfig":
        return cls.make(*cls._DEFAULTS)

    def dispatch_warnings(self) -> tuple[str, ...]:
        out = []
        quarter = Fraction(1, 4)
        if self.eps4 >= quarter:
            out.append(f"eps4={self.eps4} is not below 1/4")
        if not 2 * self.eps1 < quarter + self.eps3 / 2:
            out.append("2*eps1 < 1/4 + eps3/2 fails; the size-based quarter dispatch may not cover")
        if not self.eps4 > (2 * self.eps1 + 2 * self.eps2 + self.eps3) / 2:
            out.append("eps4 > (2*eps1 + 2*eps2 + eps3)/2 fails; the count-based quarter dispatch may not cover")
        if not 2 * self.eps1 + 2 * self.eps2 + self.eps4 < quarter:
            out.append("2*eps1 + 2*eps2 + eps4 < 1/4 fails; the independent split may exceed its budget")
        return tuple(out)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(str(v))
    return Fraction(str(v))


@dataclass(frozen=True)
class QuarterAssignment:
    """A quarter label for every matched or endpoint job."""

    members: tuple[int, ...]
    quarters: tuple[int, ...]

    def masks(self) -> tuple[int, int, int, int]:
        out = [0, 0, 0, 0]
        for v, q in zip(self.members, self.quarters):
            out[q] |= 1 << v
        return tuple(out)

    def half_masks(self) -> tuple[int, int]:
        a, b, c, d = self.masks()
        return a | b, c | d


@dataclass(frozen=True)
class BranchContext:
    """One branch's guesses plus everything derived from them."""

    n: int
    v_begin: int
    v_end: int
    m_set: int
    i1: int
    m_ab: int
    m_cd: int
    whalf_ab: int
    whalf_cd: int
    m_q: Optional[tuple[int, int, int, int]] = None
    w_half_q: Optional[tuple[int, int, int, int]] = None
    i2: Optional[int] = None
    p_sets: Optional[tuple[int, int, int, int]] = None
    p_counts: Optional[tuple[Optional[int], ...]] = None
    wq_b: int = 0
    wq_c: int = 0

    def w_masks(self, include_quarter_guesses: bool = False) -> tuple[int, int, int, int]:
        """Jobs pinned to each quarter: matched members plus forced half jobs,
        optionally plus the guessed quarter-window jobs."""
        assert self.m_q is not None and self.w_half_q is not None
        out = [m | w for m, w in zip(self.m_q, self.w_half_q)]
        if include_quarter_guesses:
            out[1] |= self.wq_b
            out[2] |= self.wq_c
        return tuple(out)

    def q_sets(self) -> tuple[int, int, int, int]:
        assert self.p_sets is not None
        wq = self.wq_b | self.wq_c
        return tuple(p & ~wq for p in self.p_sets)


@dataclass
class SolveReport:
    chosen_path: str = ""
    branches_explored: int = 0
    branches_pruned: int = 0
    variants_total: int = 0
    stats_total: DpStats = field(default_factory=DpStats)
    winning_stats: DpStats = field(default_factory=DpStats)
    wall_ms: float = 0.0
    warnings: tuple[str, ...] = ()
    wq_cap_hit: bool = False
    # Sidney blocks of the dcdp route and the size of the largest; 0 on
    # every other route.
    blocks: int = 0
    max_block: int = 0

    CSV_HEADER = (
        "chosen_path,branches_explored,branches_pruned,variants_total,"
        "states_expanded,states_rejected,wall_ms"
    )

    def as_csv_row(self) -> str:
        return (
            f"{self.chosen_path},{self.branches_explored},{self.branches_pruned},"
            f"{self.variants_total},{self.stats_total.states_expanded},"
            f"{self.stats_total.states_rejected},{self.wall_ms:.3f}"
        )

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "chosen_path": self.chosen_path,
                "branches_explored": self.branches_explored,
                "branches_pruned": self.branches_pruned,
                "variants_total": self.variants_total,
                "states_expanded": self.stats_total.states_expanded,
                "states_rejected": self.stats_total.states_rejected,
                "peak_table_size": self.stats_total.peak_table_size,
                "wall_ms": self.wall_ms,
                "warnings": list(self.warnings),
                "wq_cap_hit": self.wq_cap_hit,
                "blocks": self.blocks,
                "max_block": self.max_block,
            },
            sort_keys=True,
        )


def quarter_bounds(n: int) -> tuple[tuple[int, int], ...]:
    q = n // 4
    return ((0, q), (q, 2 * q), (2 * q, 3 * q), (3 * q, n))


def enumerate_quarter_assignments(
    inst: Instance, members, v_begin: int, v_end: int
) -> Iterator[QuarterAssignment]:
    """All order-consistent quarter labelings of the given jobs.

    Comparable members never go to a later quarter than their successors;
    the begin job is pinned to A, the end job to D.
    """
    members = tuple(sorted(members))
    k = len(members)
    idx = {v: i for i, v in enumerate(members)}
    # preds_in[i] = indices of members preceding member i
    preds_in: list[list[int]] = [[] for _ in range(k)]
    succs_in: list[list[int]] = [[] for _ in range(k)]
    for i, v in enumerate(members):
        m = inst.pred_masks[v]
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            if u in idx:
                preds_in[i].append(idx[u])
                succs_in[idx[u]].append(i)

    lo = [0] * k
    hi = [3] * k
    if v_begin in idx:
        hi[idx[v_begin]] = 0
    if v_end in idx:
        lo[idx[v_end]] = 3
    chosen = [0] * k

    def walk(i: int) -> Iterator[QuarterAssignment]:
        if i == k:
            yield QuarterAssignment(members, tuple(chosen))
            return
        for q in range(lo[i], hi[i] + 1):
            ok = True
            for j in preds_in[i]:
                if j < i and chosen[j] > q:
                    ok = False
                    break
            if ok:
                for j in succs_in[i]:
                    if j < i and chosen[j] < q:
                        ok = False
                        break
            if not ok:
                continue
            chosen[i] = q
            yield from walk(i + 1)

    yield from walk(0)


def compute_w_half(inst: Instance, i1: int, m_ab: int, m_cd: int) -> tuple[int, int]:
    """Antichain jobs forced into the first (resp. second) half by the half
    split of the matched set. Raises ContradictoryBranch on overlap."""
    w_ab = 0
    w_cd = 0
    m = i1
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        if inst.succ_masks[v] & m_ab:
            w_ab |= b
        if inst.pred_masks[v] & m_cd:
            w_cd |= b
    if w_ab & w_cd:
        raise ContradictoryBranch(
            f"jobs {w_ab & w_cd:#x} are forced into both halves"
        )
    return w_ab, w_cd


def compute_p_partitions(inst: Instance, i2: int, m_b: int, m_c: int) -> tuple[int, int, int, int]:
    """Partition the free jobs by first-quarter and last-quarter eligibility.

    Returns (P_A, P_notA, P_notD, P_D): a job is barred from quarter A by a
    predecessor placed in B and barred from D by a successor placed in C.
    """
    p_not_a = 0
    p_not_d = 0
    m = i2
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        if inst.pred_masks[v] & m_b:
            p_not_a |= b
        if inst.succ_masks[v] & m_c:
            p_not_d |= b
    return i2 ^ p_not_a, p_not_a, p_not_d, i2 ^ p_not_d


def _conformance(x_size: int, x_mask: int, w_masks, bounds) -> bool:
    for (lo, hi), w in zip(bounds, w_masks):
        if x_size >= hi and w & ~x_mask:
            return False
        if x_size <= lo and w & x_mask:
            return False
    return True


def half_case_filter(inst: Instance, ctx: BranchContext, side: str) -> Callable[[int], bool]:
    """Prefix acceptance for the half-window strategy.

    AB side: unscheduled forced-first-half jobs must fit into the remaining
    first-half slots. CD side: scheduled forced-second-half jobs must fit
    into the second-half slots already passed. Both sides also require the
    prefix to conform with the guessed half split of the matched set.
    """
    half = ctx.n // 2
    m_ab, m_cd = ctx.m_ab, ctx.m_cd
    w_ab, w_cd = ctx.whalf_ab, ctx.whalf_cd
    if side == "AB":

        def accept(x: int) -> bool:
            xs = x.bit_count()
            if (w_ab & ~x).bit_count() > max(0, half - xs):
                return False
            if xs <= half and m_cd & x:
                return False
            if xs >= half and m_ab & ~x:
                return False
            return True

    elif side == "CD":

        def accept(x: int) -> bool:
            xs = x.bit_count()
            if (w_cd & x).bit_count() > max(0, xs - half):
                return False
            if xs <= half and m_cd & x:
                return False
            if xs >= half and m_ab & ~x:
                return False
            return True

    else:
        raise ValueError(f"side must be 'AB' or 'CD', got {side!r}")
    return accept


def solve_half_case(inst: Instance, ctx: BranchContext, side: str):
    return solve_filtered(inst, half_case_filter(inst, ctx, side))


def quarter_case_filter(inst: Instance, ctx: BranchContext, case: str):
    """Build the labeled-DP configuration for one quarter case.

    Returns (accept, label_domain, freeze_size, label_target, reverse).
    The label tracks which eligible jobs sit inside the case's quarter;
    past the freeze size it is pinned and the scheduled eligible jobs
    outside it must pass the exchange-pruning test against the rest of
    the eligible pool.
    """
    n = ctx.n
    full = inst.full_mask
    assert ctx.p_sets is not None and ctx.p_counts is not None
    gamma = QUARTER_NAMES.index(case)
    domain = ctx.p_sets[CASE_DELTA[case]]
    p_val = ctx.p_counts[gamma]
    assert p_val is not None
    forward = case in ("A", "B")
    freeze = n // 4 if case in ("A", "D") else n // 2
    w_masks = ctx.w_masks()
    bounds = quarter_bounds(n)
    exch = is_succ_exchangeable if forward else is_pred_exchangeable
    cache: dict[tuple[int, int], bool] = {}

    def accept(state: int, lab: int) -> bool:
        s = state.bit_count()
        if forward:
            xm, xs = state, s
        else:
            xm, xs = full ^ state, n - s
        if not _conformance(xs, xm, w_masks, bounds):
            return False
        if s <= freeze:
            return lab.bit_count() <= p_val
        if lab.bit_count() != p_val:
            return False
        k = domain & ~lab
        cand = xm & k
        key = (k, cand)
        hit = cache.get(key)
        if hit is None:
            hit = exch(inst, cand, k)
            cache[key] = hit
        return not hit

    return accept, domain, freeze, p_val, not forward


def solve_quarter_case(inst: Instance, ctx: BranchContext, case: str):
    accept, domain, freeze, target, reverse = quarter_case_filter(inst, ctx, case)
    return solve_filtered_labeled(
        inst, domain, accept, freeze_size=freeze, label_target=target, reverse=reverse
    )


def conformance_filter(inst: Instance, ctx: BranchContext) -> Callable[[int], bool]:
    """Prefix filter keeping only sets consistent with the quarter guesses."""
    w_masks = ctx.w_masks(include_quarter_guesses=True)
    bounds = quarter_bounds(ctx.n)

    def accept(x: int) -> bool:
        return _conformance(x.bit_count(), x, w_masks, bounds)

    return accept


# ---------------------------------------------------------------------------
# Independent-quarters split solver.


def _subsets_of_size(mask: int, k: int) -> Iterator[int]:
    bits = []
    m = mask
    while m:
        b = m & -m
        m ^= b
        bits.append(b)
    if k > len(bits):
        return
    for combo in combinations(bits, k):
        yield sum(combo)


class _QuarterMemo:
    """Subset DP over one quarter's absolute positions.

    The memo depends only on the instance and the quarter, not on the
    ground set a caller draws from, so one memo serves every content
    guess inside a variant.
    """

    def __init__(self, inst: Instance, start_pos: int):
        self.times = inst.times
        self.succ = inst.succ_masks
        self.base_coeff = inst.n - start_pos + 2
        self.memo: dict[int, int] = {0: 0}
        self.last: dict[int, int] = {}

    def visit(self, z: int) -> int:
        got = self.memo.get(z)
        if got is not None:
            return got
        coeff = self.base_coeff - z.bit_count()
        times = self.times
        succ = self.succ
        best = None
        bv = -1
        cand = z
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            if succ[v] & z:
                continue
            c = self.visit(z ^ b) + coeff * times[v]
            if best is None or c < best:
                best = c
                bv = v
        self.memo[z] = best
        self.last[z] = bv
        return best

    def rebuild(self, z: int) -> list[int]:
        seq = []
        while z:
            v = self.last[z]
            seq.append(v)
            z ^= 1 << v
        seq.reverse()
        return seq

    def states(self) -> int:
        return len(self.memo)


def _quarter_table(inst: Instance, w_mask: int, q_mask: int, quota: int, start_pos: int):
    """Optimal arrangements of every admissible quarter content.

    For each Y subset of q_mask with |Y| = quota, the cheapest ordering of
    Y | w_mask over the quarter's absolute positions. Returns (costs keyed
    by Y, sequence reconstructor, stats).
    """
    mem = _QuarterMemo(inst, start_pos)
    table: dict[int, int] = {}
    for y in _subsets_of_size(q_mask, quota):
        table[y] = mem.visit(y | w_mask)

    def rebuild(y: int) -> list[int]:
        return mem.rebuild(y | w_mask)

    stats = DpStats(mem.states(), 0, mem.states())
    return table, rebuild, stats


def _relaxed_bound(inst: Instance, n: int, groups) -> int:
    """Exact lower bound on any schedule placing each group of jobs inside
    its allowed quarters.

    Each group's jobs occupy distinct positions within the group's allowed
    quarters, so pairing the group's times, largest first, against the
    smallest coefficients available there never exceeds the group's true
    contribution. Relaxes all precedence and all cross-group collisions.
    """
    bounds = quarter_bounds(n)
    total = 0
    for jobs_mask, quarters in groups:
        if not jobs_mask:
            continue
        ts = []
        m = jobs_mask
        while m:
            b = m & -m
            m ^= b
            ts.append(inst.times[b.bit_length() - 1])
        ts.sort(reverse=True)
        coeffs: list[int] = []
        for g in quarters:
            lo, hi = bounds[g]
            coeffs.extend(range(n - hi + 1, n - lo + 1))
        coeffs.sort()
        total += sum(c * t for c, t in zip(coeffs, ts))
    return total


def solve_independent_case(inst: Instance, ctx: BranchContext, memos=None):
    """Split solver: quarters A/B and C/D only interact through which
    eligible jobs they draw from shared pools, so after guessing the
    contents of one opposite pair of pools the rest decouples.

    Guesses the two smallest-coupled pools, optimizes the complementary
    pair independently, assembles the four partial schedules and
    revalidates the result.
    """
    n = ctx.n
    w_masks = ctx.w_masks(include_quarter_guesses=True)
    qa, qna, qnd, qd = ctx.q_sets()
    grounds = (qa, qna, qnd, qd)
    bounds = quarter_bounds(n)
    quotas = []
    for g in range(4):
        quota = n // 4 - w_masks[g].bit_count()
        if quota < 0 or quota > grounds[g].bit_count():
            raise Infeasible(f"quarter {QUARTER_NAMES[g]} cannot be filled")
        quotas.append(quota)

    if memos is None:
        memos = tuple(_QuarterMemo(inst, bounds[g][0] + 1) for g in range(4))
    states_before = sum(m.states() for m in memos)
    tables = []
    rebuilds = []
    for g in range(4):
        mem = memos[g]
        w = w_masks[g]
        table = {y: mem.visit(y | w) for y in _subsets_of_size(grounds[g], quotas[g])}
        tables.append(table)
        rebuilds.append(lambda y, mem=mem, w=w: mem.rebuild(y | w))
    states_after = sum(m.states() for m in memos)
    stats = DpStats(states_after - states_before, 0, states_after)
    ta, tb, tc, td = tables
    q_a, q_b, q_c, q_d = quotas

    e1 = qa & qnd  # shared by quarters A and C
    e2 = qa & qd   # A and D
    e3 = qna & qnd  # B and C
    e4 = qna & qd  # B and D
    sizes = {"e1": e1.bit_count(), "e2": e2.bit_count(), "e3": e3.bit_count(), "e4": e4.bit_count()}
    smallest = min(sizes, key=lambda k: (sizes[k], k))
    guess_ac_bd = smallest in ("e1", "e4")

    best: tuple[int, tuple[int, int, int, int]] | None = None

    if guess_ac_bd:
        # guess Y_A & e1 and Y_B & e4, optimize the A/D and B/C couplings
        for a1 in _all_subsets(e1):
            na = a1.bit_count()
            d2_size = q_a - na
            if d2_size < 0 or d2_size > sizes["e2"]:
                continue
            b4_size = sizes["e4"] - q_d + sizes["e2"] - d2_size
            if b4_size < 0 or b4_size > sizes["e4"]:
                continue
            b3_size = q_b - b4_size
            if b3_size < 0 or b3_size > sizes["e3"]:
                continue
            if (e1.bit_count() - na) + (sizes["e3"] - b3_size) != q_c:
                continue
            for b4 in _subsets_of_size(e4, b4_size):
                best_ad = None
                for d2 in _subsets_of_size(e2, d2_size):
                    y_a = a1 | d2
                    y_d = (e2 ^ d2) | (e4 ^ b4)
                    c = ta.get(y_a)
                    cd = td.get(y_d)
                    if c is None or cd is None:
                        continue
                    tot = c + cd
                    if best_ad is None or tot < best_ad[0]:
                        best_ad = (tot, y_a, y_d)
                if best_ad is None:
                    continue
                best_bc = None
                for b3 in _subsets_of_size(e3, b3_size):
                    y_b = b3 | b4
                    y_c = (e1 ^ a1) | (e3 ^ b3)
                    cb = tb.get(y_b)
                    cc = tc.get(y_c)
                    if cb is None or cc is None:
                        continue
                    tot = cb + cc
                    if best_bc is None or tot < best_bc[0]:
                        best_bc = (tot, y_b, y_c)
                if best_bc is None:
                    continue
                total = best_ad[0] + best_bc[0]
                if best is None or total < best[0]:
                    best = (total, (best_ad[1], best_bc[1], best_bc[2], best_ad[2]))
    else:
        # guess Y_A & e2 and Y_B & e3, optimize the A/C and B/D couplings
        for d2 in _all_subsets(e2):
            nd = d2.bit_count()
            a1_size = q_a - nd
            if a1_size < 0 or a1_size > sizes["e1"]:
                continue
            for b3 in _all_subsets(e3):
                nb = b3.bit_count()
                b4_size = q_b - nb
                if b4_size < 0 or b4_size > sizes["e4"]:
                    continue
                if (sizes["e1"] - a1_size) + (sizes["e3"] - nb) != q_c:
                    continue
                best_ac = None
                for a1 in _subsets_of_size(e1, a1_size):
                    y_a = a1 | d2
                    y_c = (e1 ^ a1) | (e3 ^ b3)
                    c = ta.get(y_a)
                    cc = tc.get(y_c)
                    if c is None or cc is None:
                        continue
                    tot = c + cc
                    if best_ac is None or tot < best_ac[0]:
                        best_ac = (tot, y_a, y_c)
                if best_ac is None:
                    continue
                best_bd = None
                for b4 in _subsets_of_size(e4, b4_size):
                    y_b = b3 | b4
                    y_d = (e2 ^ d2) | (e4 ^ b4)
                    cb = tb.get(y_b)
                    cd = td.get(y_d)
                    if cb is None or cd is None:
                        continue
                    tot = cb + cd
                    if best_bd is None or tot < best_bd[0]:
                        best_bd = (tot, y_b, y_d)
                if best_bd is None:
                    continue
                total = best_ac[0] + best_bd[0]
                if best is None or total < best[0]:
                    best = (total, (best_ac[1], best_bd[1], best_ac[2], best_bd[2]))

    if best is None:
        raise Infeasible("no quarter contents satisfy the guessed counts")
    total, ys = best
    seq: list[int] = []
    for g in range(4):
        seq.extend(rebuilds[g](ys[g]))
    ordering = Ordering.from_sequence(seq)
    if not validate_ordering(inst, ordering):
        raise InternalInconsistency("assembled quarter schedules violate precedence")
    recomputed = ordering_cost(inst, ordering)
    if recomputed != total:
        raise InternalInconsistency(
            f"assembled cost {recomputed} disagrees with table total {total}"
        )
    return ordering, total, stats


def _all_subsets(mask: int) -> Iterator[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ---------------------------------------------------------------------------
# Branch construction helpers.


def _w_refinements(
    inst: Instance, w_ab: int, w_cd: int, m_quarter_of: dict[int, int]
) -> Iterator[tuple[int, int, int, int]]:
    """All consistent quarter labelings of the forced-half jobs."""
    choices: list[tuple[int, tuple[int, ...]]] = []
    for mask, opts in ((w_ab, (0, 1)), (w_cd, (2, 3))):
        m = mask
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            lo, hi = 0, 3
            pm = inst.pred_masks[v]
            while pm:
                pb = pm & -pm
                pm ^= pb
                q = m_quarter_of.get(pb.bit_length() - 1)
                if q is not None and q > lo:
                    lo = q
            sm = inst.succ_masks[v]
            while sm:
                sb = sm & -sm
                sm ^= sb
                q = m_quarter_of.get(sb.bit_length() - 1)
                if q is not None and q < hi:
                    hi = q
            allowed = tuple(q for q in opts if lo <= q <= hi)
            if not allowed:
                return
            choices.append((v, allowed))
    for assign in product(*(a for _, a in choices)):
        out = [0, 0, 0, 0]
        for (v, _), q in zip(choices, assign):
            out[q] |= 1 << v
        yield tuple(out)


def consistent_context(
    vinst: Instance,
    v_begin: int,
    v_end: int,
    matched_mask: int,
    ordering: Ordering,
) -> BranchContext:
    """The branch whose every guess matches the given ordering.

    Used by verification: the filters of this branch must accept the whole
    trace of the ordering.
    """
    n = vinst.n
    m_set = matched_mask | (1 << v_begin) | (1 << v_end)
    i1 = vinst.full_mask ^ m_set
    pos = ordering.positions
    q = n // 4

    def quarter_of(v: int) -> int:
        return (pos[v] - 1) // q

    masks = [0, 0, 0, 0]
    m = m_set
    while m:
        b = m & -m
        m ^= b
        masks[quarter_of(b.bit_length() - 1)] |= b
    m_ab, m_cd = masks[0] | masks[1], masks[2] | masks[3]
    w_ab, w_cd = compute_w_half(vinst, i1, m_ab, m_cd)
    w_half_masks = [0, 0, 0, 0]
    m = w_ab | w_cd
    while m:
        b = m & -m
        m ^= b
        w_half_masks[quarter_of(b.bit_length() - 1)] |= b
    i2 = i1 ^ (w_ab | w_cd)
    p_sets = compute_p_partitions(vinst, i2, masks[1], masks[2])
    quarter_members = [0, 0, 0, 0]
    m = i2
    while m:
        b = m & -m
        m ^= b
        quarter_members[quarter_of(b.bit_length() - 1)] |= b
    p_a = (p_sets[0] & quarter_members[0]).bit_count()
    p_b = (p_sets[1] & quarter_members[1]).bit_count()
    p_c = (p_sets[2] & quarter_members[2]).bit_count()
    p_d = (p_sets[3] & quarter_members[3]).bit_count()
    wq_b = quarter_members[1] & ~p_sets[1]
    wq_c = quarter_members[2] & ~p_sets[2]
    return BranchContext(
        n=n,
        v_begin=v_begin,
        v_end=v_end,
        m_set=m_set,
        i1=i1,
        m_ab=m_ab,
        m_cd=m_cd,
        whalf_ab=w_ab,
        whalf_cd=w_cd,
        m_q=tuple(masks),
        w_half_q=tuple(w_half_masks),
        i2=i2,
        p_sets=p_sets,
        p_counts=(p_a, p_b, p_c, p_d),
        wq_b=wq_b,
        wq_c=wq_c,
    )


# ---------------------------------------------------------------------------
# The solver.


@dataclass
class _Candidate:
    cost: int
    ordering: Ordering
    path: str
    stats: DpStats


@dataclass
class _Search:
    """Mutable search state threaded through the branch enumeration."""

    report: SolveReport
    incumbent: int  # cost of a known feasible schedule, exact
    best: Optional[_Candidate] = None

    def bound(self) -> int:
        if self.best is None:
            return self.incumbent
        return min(self.incumbent, self.best.cost)

    def run(self, inst: Instance, path: str, fn, *args) -> None:
        try:
            result = fn(*args)
        except Infeasible:
            return
        self.report.branches_explored += 1
        self.report.stats_total.add(result[2])
        ordering, cost, stats = result
        if not validate_ordering(inst, ordering):
            raise InternalInconsistency(f"strategy {path} produced an invalid ordering")
        if ordering_cost(inst, ordering) != cost:
            raise InternalInconsistency(f"strategy {path} misreported its cost")
        if self.best is None or cost < self.best.cost:
            self.best = _Candidate(cost, ordering, path, stats)

    def prune(self) -> None:
        self.report.branches_pruned += 1


def _greedy_schedule(inst: Instance) -> tuple[int, Ordering]:
    """Cheapest-ready-first feasible schedule; exact upper bound."""
    n = inst.n
    pred = inst.pred_masks
    succ = inst.succ_masks
    times = inst.times
    placed = 0
    ready = [v for v in range(n) if pred[v] == 0]
    seq = []
    cost = 0
    for depth in range(n):
        v = min(ready, key=lambda u: (times[u], u))
        ready.remove(v)
        placed |= 1 << v
        seq.append(v)
        cost += (n - depth) * times[v]
        m = succ[v] & ~placed
        while m:
            b = m & -m
            m ^= b
            w = b.bit_length() - 1
            if pred[w] & ~placed == 0 and w not in ready:
                ready.append(w)
    return cost, Ordering.from_sequence(seq)


def _flex_groups_for_branch(ctx: BranchContext):
    """Allowed-quarter groups of the free jobs implied by the eligibility
    partition; feeds the relaxation bound."""
    p_a, p_na, p_nd, p_d = ctx.p_sets
    return (
        (p_a & p_nd, (0, 1, 2)),
        (p_a & p_d, (0, 1, 2, 3)),
        (p_na & p_nd, (1, 2)),
        (p_na & p_d, (1, 2, 3)),
    )


def _ladder(
    vinst: Instance,
    ctx: BranchContext,
    config: EpsilonConfig,
    wq_cap: int,
    search: _Search,
    memos,
) -> None:
    """Dispatch the configured strategy ladder inside one refined branch."""
    n = vinst.n
    assert ctx.p_sets is not None and ctx.p_counts is not None
    thr_size = (Fraction(1, 2) + config.eps3) * n
    thr_count = (Fraction(1, 4) - config.eps4) * n
    sizes = [p.bit_count() for p in ctx.p_sets]
    p_a, _, _, p_d = ctx.p_counts
    w_masks = ctx.w_masks()
    quarter = n // 4
    p_sets = ctx.p_sets

    executed: set[tuple[str, int]] = set()
    fallback_done = False

    def run_case(case: str, p_val: int) -> None:
        key = (case, p_val)
        if key in executed:
            return
        executed.add(key)
        gamma = QUARTER_NAMES.index(case)
        counts: list[Optional[int]] = [p_a, None, None, p_d]
        counts[gamma] = p_val
        cctx = replace(ctx, p_counts=tuple(counts))
        search.run(vinst, f"quarters0-{case}", solve_quarter_case, vinst, cctx, case)

    grid_b = range(0, min(quarter, sizes[1]) + 1)
    grid_c = range(0, min(quarter, sizes[2]) + 1)
    for p_b in grid_b:
        for p_c in grid_c:
            p_of = {"A": p_a, "B": p_b, "C": p_c, "D": p_d}
            stage1 = [
                c
                for c in QUARTER_NAMES
                if Fraction(sizes[CASE_DELTA[c]]) >= thr_size
                and 2 * p_of[c] < sizes[CASE_DELTA[c]]
            ]
            if stage1:
                chosen = max(
                    stage1,
                    key=lambda c: (
                        Fraction(sizes[CASE_DELTA[c]], 2) - p_of[c],
                        -QUARTER_NAMES.index(c),
                    ),
                )
                run_case(chosen, p_of[chosen])
                continue
            stage2 = [
                c
                for c in QUARTER_NAMES
                if Fraction(p_of[c]) < thr_count and 2 * p_of[c] < sizes[CASE_DELTA[c]]
            ]
            if stage2:
                chosen = max(
                    stage2,
                    key=lambda c: (
                        Fraction(sizes[CASE_DELTA[c]], 2) - p_of[c],
                        -QUARTER_NAMES.index(c),
                    ),
                )
                run_case(chosen, p_of[chosen])
                continue
            if all(Fraction(p_of[c]) >= thr_count for c in QUARTER_NAMES):
                need_b = quarter - w_masks[1].bit_count() - p_b
                need_c = quarter - w_masks[2].bit_count() - p_c
                if need_b < 0 or need_c < 0:
                    continue
                if need_b > wq_cap or need_c > wq_cap:
                    search.report.wq_cap_hit = True
                else:
                    counts = (p_a, p_b, p_c, p_d)
                    flex0 = _flex_groups_for_branch(ctx)
                    ran_any = False
                    for wq_b in _subsets_of_size(p_sets[0], need_b):
                        ran_any = True
                        partial = [
                            (w_masks[0], (0,)),
                            (w_masks[1] | wq_b, (1,)),
                            (w_masks[2], (2,)),
                            (w_masks[3], (3,)),
                        ] + [(q & ~wq_b, gs) for q, gs in flex0]
                        if _relaxed_bound(vinst, n, partial) > search.bound():
                            search.prune()
                            continue
                        for wq_c in _subsets_of_size(p_sets[3] & ~wq_b, need_c):
                            ictx = replace(ctx, p_counts=counts, wq_b=wq_b, wq_c=wq_c)
                            lb = _relaxed_bound(
                                vinst,
                                n,
                                list(
                                    (w, (g,))
                                    for g, w in enumerate(
                                        ictx.w_masks(include_quarter_guesses=True)
                                    )
                                )
                                + [(q & ~(wq_b | wq_c), gs) for q, gs in flex0],
                            )
                            if lb > search.bound():
                                search.prune()
                                continue
                            search.run(
                                vinst, "independent",
                                solve_independent_case, vinst, ictx, memos,
                            )
                    if ran_any:
                        continue
            # No premise covers this subcase: exact safety net, once per branch.
            if not fallback_done:
                fallback_done = True
                search.run(
                    vinst, "dcdp",
                    solve_filtered, vinst, conformance_filter(vinst, ctx),
                )


def _solve_variant(
    var: NormalizedInstance,
    matched_mask: int,
    config: EpsilonConfig,
    wq_cap: int,
    search: _Search,
) -> None:
    vinst = var.base
    n = vinst.n
    vb, ve = var.v_begin, var.v_end
    assert vb is not None and ve is not None
    m_set = matched_mask | (1 << vb) | (1 << ve)
    i1 = vinst.full_mask ^ m_set
    members = []
    m = m_set
    while m:
        b = m & -m
        m ^= b
        members.append(b.bit_length() - 1)
    bounds = quarter_bounds(n)
    memos = tuple(_QuarterMemo(vinst, bounds[g][0] + 1) for g in range(4))

    groups: dict[tuple[int, int], list[QuarterAssignment]] = {}
    for qa in enumerate_quarter_assignments(vinst, members, vb, ve):
        groups.setdefault(qa.half_masks(), []).append(qa)

    for (m_ab, m_cd), assignments in sorted(groups.items()):
        try:
            w_ab, w_cd = compute_w_half(vinst, i1, m_ab, m_cd)
        except ContradictoryBranch:
            search.prune()
            continue
        free = i1 ^ (w_ab | w_cd)
        lb_half = _relaxed_bound(
            vinst, n,
            [(m_ab | w_ab, (0, 1)), (m_cd | w_cd, (2, 3)), (free, (0, 1, 2, 3))],
        )
        if lb_half > search.bound():
            search.prune()
            continue
        ctx_half = BranchContext(
            n=n, v_begin=vb, v_end=ve, m_set=m_set, i1=i1,
            m_ab=m_ab, m_cd=m_cd, whalf_ab=w_ab, whalf_cd=w_cd,
        )
        ab_big = Fraction(w_ab.bit_count()) >= config.eps2 * n
        cd_big = Fraction(w_cd.bit_count()) >= config.eps2 * n
        if ab_big or cd_big:
            if ab_big and cd_big:
                side = "AB" if w_ab.bit_count() >= w_cd.bit_count() else "CD"
            else:
                side = "AB" if ab_big else "CD"
            search.run(vinst, "half", solve_half_case, vinst, ctx_half, side)
            continue
        i2 = i1 ^ (w_ab | w_cd)
        for qa in assignments:
            m_q = qa.masks()
            m_quarter_of = {v: q for v, q in zip(qa.members, qa.quarters)}
            for w_half_q in _w_refinements(vinst, w_ab, w_cd, m_quarter_of):
                p_sets = compute_p_partitions(vinst, i2, m_q[1], m_q[2])
                p_a = n // 4 - (m_q[0] | w_half_q[0]).bit_count()
                p_d = n // 4 - (m_q[3] | w_half_q[3]).bit_count()
                if p_a < 0 or p_d < 0:
                    search.prune()
                    continue
                ctx = replace(
                    ctx_half,
                    m_q=m_q,
                    w_half_q=w_half_q,
                    i2=i2,
                    p_sets=p_sets,
                    p_counts=(p_a, None, None, p_d),
                )
                lb = _relaxed_bound(
                    vinst, n,
                    [(w, (g,)) for g, w in enumerate(ctx.w_masks())]
                    + list(_flex_groups_for_branch(ctx)),
                )
                if lb > search.bound():
                    search.prune()
                    continue
                _ladder(vinst, ctx, config, wq_cap, search, memos)


def _solve_by_blocks(inst: Instance, report: SolveReport) -> tuple[Ordering, int]:
    """Plain subset DP on each Sidney block, the schedules concatenated.

    A job of a block completes p(earlier blocks) later than in the block's
    own schedule, which adds |block| * p(earlier blocks) to the block's cost.
    """
    seq: list[int] = []
    total = 0
    done = 0
    blocks = sidney_blocks(inst)
    for block in blocks:
        jobs = [v for v in range(inst.n) if block >> v & 1]
        sub_ordering, sub_cost, stats = solve_filtered(induced_instance(inst, jobs))
        report.stats_total.add(stats)
        seq.extend(jobs[i] for i in sub_ordering.sequence)
        total += sub_cost + len(jobs) * done
        done += sum(inst.times[v] for v in jobs)
        report.max_block = max(report.max_block, len(jobs))
    report.blocks = len(blocks)
    ordering = Ordering.from_sequence(seq)
    if not validate_ordering(inst, ordering):
        raise InternalInconsistency("the concatenated block schedules violate a precedence")
    if ordering_cost(inst, ordering) != total:
        raise InternalInconsistency("the block costs do not add up to the schedule's cost")
    return ordering, total


def solve(
    inst: Instance,
    config: Optional[EpsilonConfig] = None,
    *,
    wq_cap: int = 3,
) -> tuple[Ordering, int, SolveReport]:
    """Exact optimum ordering and its total completion time.

    The reported cost is always the plain objective on the given times;
    the internal perturbation never leaks. The report records which
    strategy produced the winning branch.
    """
    t0 = time.perf_counter()
    if config is None:
        config = EpsilonConfig.default()
    report = SolveReport(warnings=config.dispatch_warnings())
    n = inst.n
    if n == 0:
        report.chosen_path = "dcdp"
        report.wall_ms = (time.perf_counter() - t0) * 1000
        return Ordering(()), 0, report

    matching = greedy_maximal_matching(comparability_graph(inst))
    if Fraction(matching.num_pairs) >= config.eps1 * n:
        ordering, cost = _solve_by_blocks(inst, report)
        report.chosen_path = "dcdp"
        report.branches_explored = 1
        report.winning_stats = replace(report.stats_total)
        report.wall_ms = (time.perf_counter() - t0) * 1000
        return ordering, cost, report

    norm = normalize(inst)
    base = norm.base
    big_n = base.n
    inc_cost, _ = _greedy_schedule(base)
    search = _Search(report, inc_cost)

    # Pin the endpoints, pair everything else oppositely sorted against the
    # inner coefficients: a bound that is exact on unconstrained instances.
    sorted_times = sorted(base.times)
    scored = []
    for var in endpoint_variants(norm):
        tb = base.times[var.v_begin]
        te = base.times[var.v_end]
        rest = list(sorted_times)
        rest.remove(tb)
        rest.remove(te)
        lb = big_n * tb + te
        for i, t in enumerate(reversed(rest)):
            lb += (2 + i) * t
        scored.append((lb, var.v_begin, var.v_end, var))
    scored.sort(key=lambda item: item[:3])
    report.variants_total = len(scored)

    for lb, _, _, var in scored:
        if lb > search.bound():
            search.prune()
            continue
        _solve_variant(var, matching.matched, config, wq_cap, search)

    if search.best is None:
        raise InternalInconsistency("no endpoint variant produced a schedule")

    final = restrict_to_origin(norm, search.best.ordering)
    if not validate_ordering(inst, final):
        raise InternalInconsistency("projected optimum violates the original constraints")
    cost = ordering_cost(inst, final)
    report.chosen_path = search.best.path
    report.winning_stats = search.best.stats
    report.wall_ms = (time.perf_counter() - t0) * 1000
    return final, cost, report
