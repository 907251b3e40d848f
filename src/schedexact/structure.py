"""Comparability structure: greedy matching and order-ideal counting.

Matched endpoints form the small "hard" core of an instance; the
unmatched remainder is an antichain by maximality. The number of
downward-closed sets is bounded by 2**(n - 2p) * 3**p for any matching
of p vertex-disjoint comparable pairs, since a pair contributes at most
three of its four subset patterns to any ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, InstanceTooLarge, bits


@dataclass(frozen=True)
class ComparabilityGraph:
    n: int
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MatchingResult:
    pairs: tuple[tuple[int, int], ...]
    matched: int  # bitmask of matched endpoints
    antichain: int  # bitmask of the unmatched remainder

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)


def comparability_graph(inst: Instance) -> ComparabilityGraph:
    """Undirected graph joining every comparable pair."""
    n = inst.n
    edges = []
    for v in range(n):
        m = inst.pred_masks[v]
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            edges.append((min(u, v), max(u, v)))
    edges.sort()
    return ComparabilityGraph(n, tuple(edges))


def greedy_maximal_matching(graph: ComparabilityGraph) -> MatchingResult:
    """Inclusion-maximal matching by scanning edges in sorted order."""
    matched = 0
    pairs = []
    for u, v in graph.edges:
        if matched & ((1 << u) | (1 << v)):
            continue
        matched |= (1 << u) | (1 << v)
        pairs.append((u, v))
    full = (1 << graph.n) - 1
    return MatchingResult(tuple(pairs), matched, full ^ matched)


def count_order_ideals(inst: Instance, cap: int = 24) -> int:
    """Exact number of downward-closed subsets.

    Recursion on any minimal element v of the remaining ground set:
    ideals avoiding v avoid all of v's up-set, ideals containing v are in
    bijection with ideals of the ground set minus v.
    """
    n = inst.n
    if n > cap:
        raise InstanceTooLarge(f"n={n} exceeds ideal counting cap {cap}")
    pred = inst.pred_masks
    succ = inst.succ_masks
    memo: dict[int, int] = {0: 1}

    def count(available: int) -> int:
        got = memo.get(available)
        if got is not None:
            return got
        v = next(u for u in bits(available) if not pred[u] & available)
        bit = 1 << v
        total = count(available & ~(succ[v] | bit)) + count(available ^ bit)
        memo[available] = total
        return total

    return count(inst.full_mask)


def ideal_count_bound(n: int, num_pairs: int) -> int:
    """2**(n - 2p) * 3**p, valid for any p vertex-disjoint comparable pairs."""
    return (2 ** (n - 2 * num_pairs)) * (3 ** num_pairs)
