"""The paper's branch-and-reduce: the route solve() takes when the
comparability graph has too few matched pairs for the dcdp route.

solver.solve() imports this module on that route only, so the default
route never compiles it. The package exports its names lazily, and the
command line imports it up front, before bench forks its helpers.

The instance is padded, perturbed and solved as the minimum over
branches:

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

Two constructors build every branch: _half_split (the half split of the
guessed jobs and the free jobs it forces into a half) and _refine (the
quarters of those jobs, the eligibility partition of the rest and the A
and D counts). consistent_context, the branch whose guesses match a given
ordering, is built by the same two and adds only what the ordering
knows: the B and C counts and the quarter-window jobs. One bound,
_branch_bound, prunes every refined branch and every quarter-window guess
inside one: each group of jobs is paired with the smallest position
coefficients of the quarters it may occupy.

Quarters are indexed 0..3 and named A..D. Position ranges are
(0, n/4], (n/4, n/2], (n/2, 3n/4], (3n/4, n]. Cases C and D are cases
B and A read from the end of the schedule, where their label sets are
trackable: they run the same filter and DP on instance.mirror.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, Optional

from .dp import (
    DpStats,
    Infeasible,
    SubsetDP,
    solve_filtered,
    solve_filtered_labeled,
    subsets_of_size,
)
from .exchange import is_succ_exchangeable
from .instance import (
    Instance,
    NormalizedInstance,
    Ordering,
    bits,
    endpoint_variants,
    mirror,
    normalize,
    ordering_cost,
    pred_set,
    restrict_to_origin,
    submasks,
    succ_set,
    validate_ordering,
)
from .solver import EpsilonConfig, InternalInconsistency, SolveReport


class ContradictoryBranch(RuntimeError):
    """A branch guess forces a job into two disjoint position windows."""


# Quarter g draws its eligible jobs from p_sets[g] (A, notA, notD, D).
QUARTER_NAMES = "ABCD"


@dataclass(frozen=True)
class BranchContext:
    """One branch's guesses plus everything derived from them."""

    n: int
    m_set: int
    m_ab: int
    m_cd: int
    whalf_ab: int
    whalf_cd: int
    m_q: Optional[tuple[int, int, int, int]] = None
    w_half_q: Optional[tuple[int, int, int, int]] = None
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

    def free(self) -> int:
        """The jobs neither guessed nor forced into a half."""
        return ((1 << self.n) - 1) ^ self.m_set ^ self.whalf_ab ^ self.whalf_cd

    def q_sets(self) -> tuple[int, int, int, int]:
        assert self.p_sets is not None
        wq = self.wq_b | self.wq_c
        return tuple(p & ~wq for p in self.p_sets)


def quarter_bounds(n: int) -> tuple[tuple[int, int], ...]:
    q = n // 4
    return ((0, q), (q, 2 * q), (2 * q, 3 * q), (3 * q, n))


def _quarter_range(inst: Instance, v: int, placed, lo: int, hi: int) -> range:
    """The quarters lo..hi that job v may take beside the jobs placed in
    each quarter: none before a predecessor's, none after a successor's."""
    for q, m in enumerate(placed):
        if m & inst.pred_masks[v]:
            lo = max(lo, q)
        if m & inst.succ_masks[v]:
            hi = min(hi, q)
    return range(lo, hi + 1)


def enumerate_quarter_assignments(
    inst: Instance, members, v_begin: int, v_end: int
) -> Iterator[tuple[int, int, int, int]]:
    """All order-consistent quarter labelings of the given jobs, each as
    the masks of its (A, B, C, D) members.

    Comparable members never go to a later quarter than their successors;
    the begin job is pinned to A, the end job to D. Members are labelled in
    increasing order, each through its _quarter_range, ascending.
    """
    members = sorted(members)
    placed = [0, 0, 0, 0]

    def walk(i: int) -> Iterator[tuple[int, int, int, int]]:
        if i == len(members):
            yield tuple(placed)
            return
        v = members[i]
        for q in _quarter_range(inst, v, placed, 3 if v == v_end else 0, 0 if v == v_begin else 3):
            placed[q] |= 1 << v
            yield from walk(i + 1)
            placed[q] ^= 1 << v

    yield from walk(0)


def compute_w_half(inst: Instance, i1: int, m_ab: int, m_cd: int) -> tuple[int, int]:
    """Antichain jobs forced into the first (resp. second) half by the half
    split of the matched set. Raises ContradictoryBranch on overlap."""
    w_ab = i1 & pred_set(inst, m_ab)
    w_cd = i1 & succ_set(inst, m_cd)
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
    p_not_a = i2 & succ_set(inst, m_b)
    p_not_d = i2 & pred_set(inst, m_c)
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
    if side not in ("AB", "CD"):
        raise ValueError(f"side must be 'AB' or 'CD', got {side!r}")
    n = ctx.n
    half = n // 2
    ab = side == "AB"
    w = ctx.whalf_ab if ab else ctx.whalf_cd
    windows = (ctx.m_ab, ctx.m_cd)
    bounds = ((0, half), (half, n))

    def accept(x: int) -> bool:
        xs = x.bit_count()
        if ab:
            over = (w & ~x).bit_count() > max(0, half - xs)
        else:
            over = (w & x).bit_count() > max(0, xs - half)
        return not over and _conformance(xs, x, windows, bounds)

    return accept


def solve_half_case(inst: Instance, ctx: BranchContext, side: str):
    return solve_filtered(inst, half_case_filter(inst, ctx, side))


def quarter_case_filter(inst: Instance, ctx: BranchContext, case: str):
    """Build the labeled-DP configuration for one quarter case.

    Returns (accept, label_domain, freeze_size, label_target, mirrored).
    The label tracks which eligible jobs sit inside the case's quarter;
    past the freeze size it is pinned and the scheduled eligible jobs
    outside it must pass the exchange-pruning test against the rest of
    the eligible pool.

    Cases C and D are mirrored: accept is for the DP on mirror(inst), whose
    states are suffixes of inst. It reads the quarter windows in reverse,
    which the quarter bounds allow, as n is a multiple of four.

    accept never counts the label: solve_filtered_labeled starts every
    visit with a label of exactly label_target = p_val jobs, which stays
    pinned above the freeze size, and at or below it the engine only
    expands keys whose label is state & domain, a subset of the pinned
    label.
    """
    n = ctx.n
    assert ctx.p_sets is not None and ctx.p_counts is not None
    gamma = QUARTER_NAMES.index(case)
    domain = ctx.p_sets[gamma]
    p_val = ctx.p_counts[gamma]
    assert p_val is not None
    mirrored = case in ("C", "D")
    freeze = n // 4 if case in ("A", "D") else n // 2
    w_masks = ctx.w_masks()
    if mirrored:
        inst, w_masks = mirror(inst), w_masks[::-1]
    bounds = quarter_bounds(n)
    cache: dict[tuple[int, int], bool] = {}

    def accept(state: int, lab: int) -> bool:
        s = state.bit_count()
        if not _conformance(s, state, w_masks, bounds):
            return False
        if s <= freeze:
            return True
        k = domain & ~lab
        key = (k, state & k)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = is_succ_exchangeable(inst, key[1], k)
        return not hit

    return accept, domain, freeze, p_val, mirrored


def solve_quarter_case(inst: Instance, ctx: BranchContext, case: str):
    """The quarter case's labeled DP; cases C and D run it on the mirror
    and map its ordering and cost back to inst."""
    accept, domain, freeze, target, mirrored = quarter_case_filter(inst, ctx, case)
    if not mirrored:
        return solve_filtered_labeled(inst, domain, accept, freeze_size=freeze, label_target=target)
    ordering, cost, stats = solve_filtered_labeled(
        mirror(inst), domain, accept, freeze_size=freeze, label_target=target
    )
    n = inst.n
    flipped = Ordering(tuple(n + 1 - p for p in ordering.positions))
    return flipped, cost + (n + 1) * sum(inst.times), stats


def conformance_filter(inst: Instance, ctx: BranchContext) -> Callable[[int], bool]:
    """Prefix filter keeping only sets consistent with the quarter guesses."""
    w_masks = ctx.w_masks(include_quarter_guesses=True)
    bounds = quarter_bounds(ctx.n)

    def accept(x: int) -> bool:
        return _conformance(x.bit_count(), x, w_masks, bounds)

    return accept


# ---------------------------------------------------------------------------
# Independent-quarters split solver.


def _quarter_memos(inst: Instance) -> tuple[SubsetDP, ...]:
    """One unfiltered DP per quarter, over that quarter's absolute positions.

    A memo depends only on the instance and the quarter, not on the ground
    set a caller draws from, so one memo serves every content guess
    inside a variant.
    """
    return tuple(SubsetDP(inst, offset=lo) for lo, _ in quarter_bounds(inst.n))


def _relaxed_bound(inst: Instance, n: int, groups) -> int:
    """Exact lower bound on any schedule placing each group of jobs inside
    its allowed quarters.

    Each group's jobs occupy distinct positions within the group's allowed
    quarters, so pairing the group's times, largest first, against the
    smallest coefficients available there never exceeds the group's true
    contribution. Relaxes all precedence and all cross-group collisions.
    """
    times = inst.times
    total = 0
    for jobs_mask, quarters in groups:
        if not jobs_mask:
            continue
        ts = sorted([times[v] for v in bits(jobs_mask)], reverse=True)
        total += sum(c * t for c, t in zip(_coefficients(n, quarters), ts))
    return total


@lru_cache(maxsize=256)
def _coefficients(n: int, quarters: tuple[int, ...]) -> tuple[int, ...]:
    """The completion-time coefficients of the positions in the given
    quarters of an n-job schedule, smallest first."""
    bounds = quarter_bounds(n)
    coeffs: list[int] = []
    for g in quarters:
        lo, hi = bounds[g]
        coeffs.extend(range(n - hi + 1, n - lo + 1))
    return tuple(sorted(coeffs))


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
    quotas = []
    for g in range(4):
        quota = n // 4 - w_masks[g].bit_count()
        if quota < 0 or quota > grounds[g].bit_count():
            raise Infeasible(f"quarter {QUARTER_NAMES[g]} cannot be filled")
        quotas.append(quota)

    if memos is None:
        memos = _quarter_memos(inst)
    states_before = sum(len(m.cost) for m in memos)
    tables = [
        {y: memos[g].visit(y | w_masks[g]) for y in subsets_of_size(grounds[g], quotas[g])}
        for g in range(4)
    ]
    states_after = sum(len(m.cost) for m in memos)
    stats = DpStats(states_after - states_before, 0, states_after)

    # Every free job sits in one pool, keyed by the AB quarter and the CD
    # quarter that may take it. Guess the splits of the two opposite pools
    # of the cycle A-C-B-D-A that hold the smallest one; then A and B each
    # share one remaining pool with one CD quarter, independently.
    pool = {(0, 2): qa & qnd, (0, 3): qa & qd, (1, 2): qna & qnd, (1, 3): qna & qd}
    size = {k: m.bit_count() for k, m in pool.items()}
    smallest = min(pool, key=lambda k: (size[k], k))
    c = 2 if smallest in ((0, 2), (1, 3)) else 3  # the CD quarter of A's guessed pool
    d = 5 - c
    best: tuple[int, list[int]] | None = None
    # Distinct guesses give distinct orderings, hence distinct costs on a
    # normalised instance: the winner does not depend on the guess order.
    for ga in submasks(pool[0, c]):
        ra = quotas[0] - ga.bit_count()  # A's share of pool[0, d]
        gb_size = size[0, d] - ra + size[1, d] - quotas[d]  # B's share of pool[1, d]
        rb = quotas[1] - gb_size  # B's share of pool[1, c]
        if not (0 <= ra <= size[0, d] and 0 <= gb_size <= size[1, d] and 0 <= rb <= size[1, c]):
            continue
        # Quarter c then gets exactly quotas[c] jobs: the four pools
        # partition the free jobs, so their sizes sum to the four quotas.
        for gb in subsets_of_size(pool[1, d], gb_size):
            pair_a = _best_split(tables[0], tables[d], ga, pool[1, d] ^ gb, pool[0, d], ra)
            pair_b = _best_split(tables[1], tables[c], gb, pool[0, c] ^ ga, pool[1, c], rb)
            total = pair_a[0] + pair_b[0]
            if best is None or total < best[0]:
                ys = [0, 0, 0, 0]
                ys[0], ys[d] = pair_a[1:]
                ys[1], ys[c] = pair_b[1:]
                best = (total, ys)

    if best is None:
        raise Infeasible("no quarter contents satisfy the guessed counts")
    total, ys = best
    seq: list[int] = []
    for g in range(4):
        seq.extend(memos[g].sequence(ys[g] | w_masks[g]))
    ordering = Ordering.from_sequence(seq)
    if not validate_ordering(inst, ordering):
        raise InternalInconsistency("assembled quarter schedules violate precedence")
    recomputed = ordering_cost(inst, ordering)
    if recomputed != total:
        raise InternalInconsistency(
            f"assembled cost {recomputed} disagrees with table total {total}"
        )
    return ordering, total, stats


def _best_split(t_ab, t_cd, fixed_ab: int, fixed_cd: int, shared: int, k: int):
    """Cheapest split of a shared pool between an AB and a CD quarter: k of
    its jobs join fixed_ab, the rest fixed_cd. Returns (cost, Y_ab, Y_cd).

    The caller keeps 0 <= k <= |shared| and makes both sides quota-sized
    subsets of their quarters' grounds, so every lookup hits a tabled,
    finite cost: an unfiltered DP reaches the empty state from any set.
    """
    best = None
    for part in subsets_of_size(shared, k):
        y_ab = fixed_ab | part
        y_cd = fixed_cd | (shared ^ part)
        c = t_ab[y_ab] + t_cd[y_cd]
        if best is None or c < best[0]:
            best = (c, y_ab, y_cd)
    return best


# ---------------------------------------------------------------------------
# Branch construction helpers.


def _w_refinements(
    inst: Instance, w_ab: int, w_cd: int, m_q: tuple[int, int, int, int]
) -> Iterator[tuple[int, int, int, int]]:
    """All quarter labelings of the forced-half jobs consistent with the
    quarter assignment m_q of the guessed jobs.

    Every job gets at least one quarter: a matched predecessor never sits
    in a later quarter than a matched successor, since the quarter
    assignment is order-consistent. The forced-half jobs do not constrain
    one another here.
    """
    jobs = [(v, lo, hi) for mask, lo, hi in ((w_ab, 0, 1), (w_cd, 2, 3)) for v in bits(mask)]
    for assign in product(*(_quarter_range(inst, v, m_q, lo, hi) for v, lo, hi in jobs)):
        out = [0, 0, 0, 0]
        for (v, _, _), q in zip(jobs, assign):
            out[q] |= 1 << v
        yield tuple(out)


def _half_split(vinst: Instance, m_set: int, m_ab: int, m_cd: int) -> BranchContext:
    """The branch that splits the guessed jobs m_set into halves m_ab, m_cd."""
    # Cannot raise: the split comes from an order-consistent quarter
    # assignment, so no free job follows a C/D member and precedes an A/B
    # member.
    w_ab, w_cd = compute_w_half(vinst, vinst.full_mask ^ m_set, m_ab, m_cd)
    return BranchContext(
        n=vinst.n, m_set=m_set, m_ab=m_ab, m_cd=m_cd, whalf_ab=w_ab, whalf_cd=w_cd
    )


def _refine(
    vinst: Instance,
    ctx_half: BranchContext,
    m_q: tuple[int, int, int, int],
    w_half_q: tuple[int, int, int, int],
    p_sets: Optional[tuple[int, int, int, int]] = None,
) -> Optional[BranchContext]:
    """A half-split branch refined by the quarters of the guessed jobs (m_q)
    and of the forced-half jobs (w_half_q), or None when they overfill
    quarter A or D.

    The eligibility partition depends on m_q alone, so a caller refining
    one assignment several times passes it in as p_sets. The A and D counts
    are what the quarter quotas leave for the free jobs; the B and C counts
    stay unset.
    """
    quarter = vinst.n // 4
    p_a = quarter - (m_q[0] | w_half_q[0]).bit_count()
    p_d = quarter - (m_q[3] | w_half_q[3]).bit_count()
    if p_a < 0 or p_d < 0:
        return None
    if p_sets is None:
        p_sets = compute_p_partitions(vinst, ctx_half.free(), m_q[1], m_q[2])
    return replace(
        ctx_half, m_q=m_q, w_half_q=w_half_q, p_sets=p_sets, p_counts=(p_a, None, None, p_d)
    )


def _branch_bound(vinst: Instance, ctx: BranchContext, wq_b: int = 0, wq_c: int = 0) -> int:
    """The relaxation bound of a refined branch under the quarter-window
    guesses wq_b and wq_c: pinned and guessed jobs in their own quarter,
    every other free job in the quarters its eligibility allows."""
    w_a, w_b, w_c, w_d = ctx.w_masks()
    p_a, p_na, p_nd, p_d = ctx.p_sets
    rest = ~(wq_b | wq_c)
    return _relaxed_bound(vinst, ctx.n, (
        (w_a, (0,)),
        (w_b | wq_b, (1,)),
        (w_c | wq_c, (2,)),
        (w_d, (3,)),
        (p_a & p_nd & rest, (0, 1, 2)),
        (p_a & p_d & rest, (0, 1, 2, 3)),
        (p_na & p_nd & rest, (1, 2)),
        (p_na & p_d & rest, (1, 2, 3)),
    ))


def consistent_context(
    vinst: Instance,
    v_begin: int,
    v_end: int,
    matched_mask: int,
    ordering: Ordering,
) -> BranchContext:
    """The branch whose every guess matches the given ordering.

    Built by the search's own constructors from the quarters the ordering
    gives the guessed and the forced-half jobs; the ordering then adds the
    B and C counts and the quarter-window jobs. Used by verification: the
    filters of this branch must accept the whole trace of the ordering.
    """
    pos = ordering.positions
    q = vinst.n // 4

    def by_quarter(mask: int) -> tuple[int, int, int, int]:
        out = [0, 0, 0, 0]
        for v in bits(mask):
            out[(pos[v] - 1) // q] |= 1 << v
        return tuple(out)

    m_set = matched_mask | (1 << v_begin) | (1 << v_end)
    m_q = by_quarter(m_set)
    ctx_half = _half_split(vinst, m_set, m_q[0] | m_q[1], m_q[2] | m_q[3])
    ctx = _refine(vinst, ctx_half, m_q, by_quarter(ctx_half.whalf_ab | ctx_half.whalf_cd))
    assert ctx is not None, "a valid ordering fills each quarter exactly"
    placed = by_quarter(ctx.free())
    p_a, _, _, p_d = ctx.p_counts
    p_na, p_nd = ctx.p_sets[1], ctx.p_sets[2]
    return replace(
        ctx,
        p_counts=(p_a, (placed[1] & p_na).bit_count(), (placed[2] & p_nd).bit_count(), p_d),
        wq_b=placed[1] & ~p_na,
        wq_c=placed[2] & ~p_nd,
    )


# ---------------------------------------------------------------------------
# The search.


@dataclass
class _Candidate:
    cost: int
    ordering: Ordering
    path: str


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
        ordering, cost, stats = result
        self.report.stats_total.add(stats)
        if not validate_ordering(inst, ordering):
            raise InternalInconsistency(f"strategy {path} produced an invalid ordering")
        if ordering_cost(inst, ordering) != cost:
            raise InternalInconsistency(f"strategy {path} misreported its cost")
        if self.best is None or cost < self.best.cost:
            self.best = _Candidate(cost, ordering, path)

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
        for w in bits(succ[v] & ~placed):
            if pred[w] & ~placed == 0 and w not in ready:
                ready.append(w)
    return cost, Ordering.from_sequence(seq)


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
    p_sets = ctx.p_sets
    sizes = [p.bit_count() for p in p_sets]
    # Stage 1 admits a case by the size of its pool, stage 2 by its count.
    by_size = [g for g in range(4) if sizes[g] >= thr_size]
    p_a, _, _, p_d = ctx.p_counts
    w_masks = ctx.w_masks()
    quarter = n // 4

    executed: set[tuple[int, int]] = set()
    fallback_done = False

    def widest(cases: list[int], counts: tuple[int, ...]) -> Optional[int]:
        # Of the cases whose count is below half their pool, the one furthest
        # below it; a tie goes to the earlier quarter.
        return max(
            (g for g in cases if 2 * counts[g] < sizes[g]),
            key=lambda g: (Fraction(sizes[g], 2) - counts[g], -g),
            default=None,
        )

    for p_b in range(0, min(quarter, sizes[1]) + 1):
        for p_c in range(0, min(quarter, sizes[2]) + 1):
            counts = (p_a, p_b, p_c, p_d)
            chosen = widest(by_size, counts)
            if chosen is None:
                chosen = widest([g for g in range(4) if counts[g] < thr_count], counts)
            if chosen is not None:
                # A quarter case reads only its own count.
                if (chosen, counts[chosen]) not in executed:
                    executed.add((chosen, counts[chosen]))
                    case = QUARTER_NAMES[chosen]
                    search.run(
                        vinst, f"quarters0-{case}",
                        solve_quarter_case, vinst, replace(ctx, p_counts=counts), case,
                    )
                continue
            if all(c >= thr_count for c in counts):
                need_b = quarter - w_masks[1].bit_count() - p_b
                need_c = quarter - w_masks[2].bit_count() - p_c
                if need_b < 0 or need_c < 0:
                    continue
                if need_b > wq_cap or need_c > wq_cap:
                    search.report.wq_cap_hit = True
                else:
                    ran_any = False
                    for wq_b in subsets_of_size(p_sets[0], need_b):
                        ran_any = True
                        if _branch_bound(vinst, ctx, wq_b) > search.bound():
                            search.prune()
                            continue
                        for wq_c in subsets_of_size(p_sets[3] & ~wq_b, need_c):
                            if _branch_bound(vinst, ctx, wq_b, wq_c) > search.bound():
                                search.prune()
                                continue
                            search.run(
                                vinst, "independent", solve_independent_case, vinst,
                                replace(ctx, p_counts=counts, wq_b=wq_b, wq_c=wq_c), memos,
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
    memos = _quarter_memos(vinst)

    groups: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
    for m_q in enumerate_quarter_assignments(vinst, bits(m_set), vb, ve):
        groups.setdefault((m_q[0] | m_q[1], m_q[2] | m_q[3]), []).append(m_q)

    for (m_ab, m_cd), assignments in sorted(groups.items()):
        ctx_half = _half_split(vinst, m_set, m_ab, m_cd)
        w_ab, w_cd = ctx_half.whalf_ab, ctx_half.whalf_cd
        free = ctx_half.free()
        lb_half = _relaxed_bound(
            vinst, n,
            [(m_ab | w_ab, (0, 1)), (m_cd | w_cd, (2, 3)), (free, (0, 1, 2, 3))],
        )
        if lb_half > search.bound():
            search.prune()
            continue
        ab_big = Fraction(w_ab.bit_count()) >= config.eps2 * n
        cd_big = Fraction(w_cd.bit_count()) >= config.eps2 * n
        if ab_big or cd_big:
            if ab_big and cd_big:
                side = "AB" if w_ab.bit_count() >= w_cd.bit_count() else "CD"
            else:
                side = "AB" if ab_big else "CD"
            search.run(vinst, "half", solve_half_case, vinst, ctx_half, side)
            continue
        for m_q in assignments:
            p_sets = compute_p_partitions(vinst, free, m_q[1], m_q[2])
            for w_half_q in _w_refinements(vinst, w_ab, w_cd, m_q):
                ctx = _refine(vinst, ctx_half, m_q, w_half_q, p_sets)
                if ctx is None or _branch_bound(vinst, ctx) > search.bound():
                    search.prune()
                    continue
                _ladder(vinst, ctx, config, wq_cap, search, memos)



def solve_branches(
    inst: Instance,
    matched_mask: int,
    config: EpsilonConfig,
    wq_cap: int,
    report: SolveReport,
) -> tuple[Ordering, int]:
    """Exact optimum ordering and its cost, as the minimum over every
    endpoint variant's branches; matched_mask holds the jobs of a maximal
    matching of the comparability graph.

    Fills the report's branch, prune and variant counts, the winning
    strategy and wq_cap_hit.
    """
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
        _solve_variant(var, matched_mask, config, wq_cap, search)

    if search.best is None:
        raise InternalInconsistency("no endpoint variant produced a schedule")

    final = restrict_to_origin(norm, search.best.ordering)
    if not validate_ordering(inst, final):
        raise InternalInconsistency("projected optimum violates the original constraints")
    report.chosen_path = search.best.path
    return final, ordering_cost(inst, final)
