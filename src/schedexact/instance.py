"""Problem instances: jobs with processing times under precedence constraints.

Jobs are integers 0..n-1. The precedence relation is a strict partial
order kept transitively closed, stored as per-job predecessor and
successor bitmasks so that set-level queries are single mask operations.

All costs are exact integers. Scheduling job v at 1-based position i
costs (n - i + 1) * t(v); summed over all jobs this equals the total
completion time of the schedule.

Normalization pads the job count to a multiple of four with zero-time
unconstrained dummy jobs and replaces each time t(v) by the integer

    t(v) * B**(n + 2) + B**v,      B = n + 1,

with v the job's 0-based index. Position coefficients are at
most n < B, so the low-order part contributed by any schedule stays
below B**(n + 2): comparing perturbed totals compares the true totals
first and breaks ties deterministically. Distinct orderings of a
normalized instance always have distinct total costs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, lowest first."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def submasks(mask: int) -> Iterator[int]:
    """Every subset of mask in increasing order, from 0 up to mask itself."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


class CyclicPrecedence(ValueError):
    """Raised when the precedence input admits no valid ordering."""

    def __init__(self, cycle: list[int]):
        self.cycle = list(cycle)
        super().__init__("precedence cycle: " + " -> ".join(map(str, self.cycle)))


class IndexOutOfRange(ValueError):
    pass


class PositionOutOfRange(ValueError):
    pass


class NotABijection(ValueError):
    pass


class InstanceTooLarge(ValueError):
    """An instance above the job cap of brute force or of ideal counting."""


@dataclass(frozen=True)
class Instance:
    """A transitively closed scheduling instance."""

    times: tuple[int, ...]
    pred_masks: tuple[int, ...]
    succ_masks: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.times)) - 1

    def precedence_pairs(self) -> list[tuple[int, int]]:
        """All (u, v) with u < v in the closed relation, sorted."""
        return sorted((u, v) for v, pm in enumerate(self.pred_masks) for u in bits(pm))


@dataclass(frozen=True)
class Ordering:
    """A bijection jobs -> slots, stored as 1-based positions per job."""

    positions: tuple[int, ...]

    @classmethod
    def from_sequence(cls, seq) -> "Ordering":
        pos = [0] * len(seq)
        for i, v in enumerate(seq):
            pos[v] = i + 1
        return cls(tuple(pos))

    @property
    def sequence(self) -> tuple[int, ...]:
        order = sorted(range(len(self.positions)), key=self.positions.__getitem__)
        return tuple(order)

    def __len__(self) -> int:
        return len(self.positions)


def transitive_closure(raw_edges, n: int) -> Instance:
    """Build an Instance from arbitrary DAG edges (u precedes v).

    Duplicate edges are ignored. Raises CyclicPrecedence naming one cycle
    if the input is not acyclic, IndexOutOfRange on bad endpoints.
    """
    return build_instance([0] * n, raw_edges)


def build_instance(times, raw_edges) -> Instance:
    """Build an Instance from processing times and DAG edges (u precedes v).

    One colored DFS closes the relation: start jobs ascending, successors
    in increasing order, each job's successor mask closed when the DFS
    leaves it. The first edge back into the DFS path raises
    CyclicPrecedence naming that cycle. The explicit stack keeps a long
    chain or cycle from exhausting the interpreter's recursion limit.
    Reversed, the order in which the DFS leaves the jobs is topological,
    so one pass over it closes the predecessor masks with one OR per edge.
    """
    n = len(times)
    for t in times:
        if t < 0:
            raise ValueError(f"negative processing time {t}")
    succs: list[set[int]] = [set() for _ in range(n)]
    for u, v in raw_edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise CyclicPrecedence([u, u])
        succs[u].add(v)

    succ_masks = [0] * n
    color = [0] * n  # 0 unvisited, 1 on the DFS path, 2 closed
    finished: list[int] = []
    for s in range(n):
        if color[s]:
            continue
        color[s] = 1
        path = [s]
        todo = [iter(sorted(succs[s]))]
        while todo:
            for w in todo[-1]:
                if color[w] == 1:
                    raise CyclicPrecedence(path[path.index(w):] + [w])
                if color[w] == 0:
                    color[w] = 1
                    path.append(w)
                    todo.append(iter(sorted(succs[w])))
                    break
            else:
                u = path.pop()
                todo.pop()
                color[u] = 2
                finished.append(u)
                m = 0
                for v in succs[u]:
                    m |= (1 << v) | succ_masks[v]
                succ_masks[u] = m
    pred_masks = [0] * n
    for u in reversed(finished):
        m = pred_masks[u] | 1 << u
        for v in succs[u]:
            pred_masks[v] |= m
    return Instance(tuple(times), tuple(pred_masks), tuple(succ_masks))


def pred_set(inst: Instance, jobs: int) -> int:
    """Union of strict predecessors over the members of the bitmask."""
    out = 0
    for v in bits(jobs):
        out |= inst.pred_masks[v]
    return out


def succ_set(inst: Instance, jobs: int) -> int:
    """Union of strict successors over the members of the bitmask."""
    out = 0
    for v in bits(jobs):
        out |= inst.succ_masks[v]
    return out


def job_cost(inst: Instance, v: int, i: int) -> int:
    """Exact cost of job v at 1-based position i: (n - i + 1) * t(v)."""
    if not 1 <= i <= inst.n:
        raise PositionOutOfRange(f"position {i} not in 1..{inst.n}")
    return (inst.n - i + 1) * inst.times[v]


def _check_bijection(ordering: Ordering, n: int) -> None:
    pos = ordering.positions
    if len(pos) != n or sorted(pos) != list(range(1, n + 1)):
        raise NotABijection(f"positions {pos} are not a bijection onto 1..{n}")


def ordering_cost(inst: Instance, ordering: Ordering) -> int:
    """Total completion time of an ordering; precedence is not checked here."""
    _check_bijection(ordering, inst.n)
    n = inst.n
    return sum((n - p + 1) * t for p, t in zip(ordering.positions, inst.times))


def validate_ordering(inst: Instance, ordering: Ordering) -> bool:
    """True iff every constraint u < v is scheduled as pos(u) < pos(v)."""
    pos = ordering.positions
    for v in range(inst.n):
        pv = pos[v]
        m = inst.pred_masks[v]
        while m:
            b = m & -m
            m ^= b
            if pos[b.bit_length() - 1] >= pv:
                return False
    return True


@dataclass(frozen=True)
class NormalizedInstance:
    """Padded and perturbed instance, optionally with fixed first/last jobs."""

    base: Instance
    origin_map: tuple[int | None, ...]
    v_begin: int | None = None
    v_end: int | None = None


def normalize(inst: Instance) -> NormalizedInstance:
    """Pad to a multiple of four and perturb times to make all costs distinct."""
    pad = (4 - inst.n % 4) % 4
    n = inst.n + pad
    base_b = n + 1
    shift = base_b ** (n + 2)
    times = []
    for v in range(n):
        t = inst.times[v] if v < inst.n else 0
        times.append(t * shift + base_b ** v)
    zeros = (0,) * pad
    pred = inst.pred_masks + zeros
    succ = inst.succ_masks + zeros
    origin = tuple(range(inst.n)) + (None,) * pad
    return NormalizedInstance(Instance(tuple(times), pred, succ), origin)


def endpoint_variants(norm: NormalizedInstance) -> Iterator[NormalizedInstance]:
    """Yield one variant per candidate (first job, last job) pair.

    A candidate first job has no predecessors and a candidate last job no
    successors. Each variant pins the pair by adding begin < v < end for
    every other job; the union of variant optima contains the optimum of
    the unconstrained instance.
    """
    inst = norm.base
    n = inst.n
    full = inst.full_mask
    begins = [v for v in range(n) if inst.pred_masks[v] == 0]
    ends = [v for v in range(n) if inst.succ_masks[v] == 0]
    for vb in begins:
        bb = 1 << vb
        for ve in ends:
            if ve == vb:
                continue
            be = 1 << ve
            pred = list(inst.pred_masks)
            succ = list(inst.succ_masks)
            for v in range(n):
                if v != vb:
                    pred[v] |= bb
                if v != ve:
                    succ[v] |= be
            pred[ve] = full ^ be
            succ[vb] = full ^ bb
            variant = Instance(inst.times, tuple(pred), tuple(succ))
            yield NormalizedInstance(variant, norm.origin_map, vb, ve)


def restrict_to_origin(norm: NormalizedInstance, ordering: Ordering) -> Ordering:
    """Project an ordering of the padded instance back to the original jobs."""
    seq = [norm.origin_map[v] for v in ordering.sequence]
    return Ordering.from_sequence([v for v in seq if v is not None])


def _is_int(x) -> bool:
    # JSON true and false parse to bool, a subclass of int.
    return isinstance(x, int) and not isinstance(x, bool)


def instance_from_json(text: str) -> Instance:
    """Parse the instance wire format.

    {"n": int, "times": [int...], "precedences": [[u, v]...]} with 0-based
    indices; duplicate edges are tolerated, cycles rejected with a named
    cycle in the message.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("instance file must contain a JSON object")
    try:
        n = payload["n"]
        times = payload["times"]
        precedences = payload["precedences"]
    except KeyError as exc:
        raise ValueError(f"missing instance field {exc}") from exc
    if not _is_int(n) or n < 0:
        raise ValueError(f"bad job count {n!r}")
    if not isinstance(times, list) or len(times) != n:
        raise ValueError("times must list one entry per job")
    for t in times:
        if not _is_int(t) or t < 0:
            raise ValueError(f"bad processing time {t!r}")
    edges = []
    if not isinstance(precedences, list):
        raise ValueError("precedences must be a list of [u, v] pairs")
    for e in precedences:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)):
            raise ValueError(f"bad precedence entry {e!r}")
        edges.append((e[0], e[1]))
    return build_instance(times, edges)


def instance_to_json(n: int, times, precedences) -> str:
    payload = {"n": n, "times": list(times), "precedences": [list(e) for e in precedences]}
    return json.dumps(payload, sort_keys=True) + "\n"
