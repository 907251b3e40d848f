"""Sidney decomposition: cut an instance into ratio-maximal blocks.

Every job has weight one in the objective, so the ratio of a nonempty set
S of jobs is |S| / t(S), infinite when t(S) = 0. Sidney (1975, Oper. Res.
23(2)) showed that some optimal schedule runs a ratio-maximal initial set
(an order ideal of largest ratio) before every other job. Applied again to
the jobs not yet placed, this cuts the instance into blocks: optimal
schedules of the blocks, concatenated in order, form an optimal schedule
of the whole instance, so the exponential DP only ever sees one block.

Each block is the smallest nonempty ideal of largest ratio among the jobs
not yet placed, found exactly on integers (Margot, Queyranne and Wang
2003, Oper. Res. 51(6)):

* a job with t = 0 and no unplaced predecessor has infinite ratio on its
  own and becomes a block at once;
* otherwise Dinkelbach's iteration raises a ratio a/b, kept as two
  integers, until the largest value of b|S| - a t(S) over ideals S is 0.
  Each largest value is a maximum-weight closure, found by one min cut of
  Picard's network (Picard 1976, Manage. Sci. 22(11));
* in the residual graph of the last maximum flow, the smallest maximum
  closure that contains a job v is everything reachable from v and the
  source. Every nonempty ideal contains a minimal job, so the smallest
  such set over the minimal jobs whose reach avoids the sink is an
  inclusion-minimal ratio-maximal ideal.
"""

from __future__ import annotations

from .instance import Instance


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


class _ClosureCut:
    """Picard's network for a maximum-weight ideal of the jobs in `rest`,
    after a maximum flow.

    Job v has an arc from the source of capacity w(v) when w(v) > 0, an arc
    to the sink of capacity -w(v) when w(v) < 0, and an uncapacitated arc
    to each predecessor, which keeps the source side of any finite cut
    downward closed. No flow exceeds the sum of |w|, so the uncapacitated
    arcs never saturate and need no capacity at all. Node sets are job
    masks; flow[v, u] is the flow on the arc from v to its predecessor u.
    """

    def __init__(self, pred: list[int], weights: dict[int, int]):
        self.pred = pred
        self.source = {v: w for v, w in weights.items() if w > 0}
        self.sink = {v: -w for v, w in weights.items() if w < 0}
        self.open_source = sum(1 << v for v in self.source)
        self.open_sink = sum(1 << v for v in self.sink)
        self.flow: dict[tuple[int, int], int] = {}
        # back[u]: jobs v with flow[v, u] > 0, the residual arcs u -> v.
        self.back = dict.fromkeys(weights, 0)
        self.value = sum(self.source.values())
        while self._augment():
            pass

    def _augment(self) -> bool:
        """Push flow along one shortest residual source-sink path."""
        pred, back = self.pred, self.back
        parent = dict.fromkeys(_bits(self.open_source), -1)
        level = seen = self.open_source
        while level:
            hit = level & self.open_sink
            if hit:
                self._push((hit & -hit).bit_length() - 1, parent)
                return True
            nxt = 0
            while level:
                b = level & -level
                level ^= b
                x = b.bit_length() - 1
                fresh = (pred[x] | back[x]) & ~seen
                seen |= fresh
                nxt |= fresh
                while fresh:
                    c = fresh & -fresh
                    fresh ^= c
                    parent[c.bit_length() - 1] = x
            level = nxt
        return False

    def _push(self, last: int, parent: dict[int, int]) -> None:
        path = [last]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        path.reverse()
        first = path[0]
        d = min(self.source[first], self.sink[last])
        steps = list(zip(path, path[1:]))
        for p, c in steps:
            if not self.pred[p] >> c & 1:  # against the flow on c -> p
                d = min(d, self.flow[c, p])
        for p, c in steps:
            if self.pred[p] >> c & 1:
                self.flow[p, c] = self.flow.get((p, c), 0) + d
                self.back[c] |= 1 << p
            else:
                left = self.flow[c, p] - d
                self.flow[c, p] = left
                if not left:
                    self.back[p] &= ~(1 << c)
        self.source[first] -= d
        if not self.source[first]:
            self.open_source &= ~(1 << first)
        self.sink[last] -= d
        if not self.sink[last]:
            self.open_sink &= ~(1 << last)
        self.value -= d

    def reach(self, start: int) -> int:
        """Jobs reachable from `start` along residual arcs between jobs."""
        pred, back = self.pred, self.back
        seen = level = start
        while level:
            nxt = 0
            while level:
                b = level & -level
                level ^= b
                x = b.bit_length() - 1
                nxt |= pred[x] | back[x]
            level = nxt & ~seen
            seen |= level
        return seen


def _ratio_block(inst: Instance, rest: int, pred: list[int], minimal: list[int]) -> int:
    """The smallest nonempty ideal of `rest` of largest |S| / t(S), when
    every minimal job of `rest` has t > 0."""
    times = inst.times
    jobs = _bits(rest)
    # Start from a ratio some ideal attains: all of rest, or its best
    # minimal job alone.
    a, b = len(jobs), sum(times[v] for v in jobs)
    t_min = min(times[v] for v in minimal)
    if b > a * t_min:
        a, b = 1, t_min
    while True:
        cut = _ClosureCut(pred, {v: b - a * times[v] for v in jobs})
        if not cut.value:
            break
        best = cut.reach(cut.open_source)
        members = _bits(best)
        a, b = len(members), sum(times[v] for v in members)
    # Every maximum closure contains the one reachable from the source.
    floor = cut.reach(cut.open_source)
    if floor:
        return floor
    block = 0
    for v in minimal:
        if cut.open_sink >> v & 1:  # v itself still reaches the sink
            continue
        cand = cut.reach(1 << v)
        if not cand & cut.open_sink and (not block or cand.bit_count() < block.bit_count()):
            block = cand
    return block


def sidney_blocks(inst: Instance) -> list[int]:
    """Job masks of a Sidney decomposition into inclusion-minimal blocks.

    The blocks partition the jobs. Each is an ideal of the jobs outside the
    earlier blocks, and some optimal schedule runs the blocks in list order.
    """
    blocks: list[int] = []
    rest = inst.full_mask
    while rest:
        pred = [m & rest for m in inst.pred_masks]
        minimal = [v for v in _bits(rest) if not pred[v]]
        zeros = [v for v in minimal if inst.times[v] == 0]
        if zeros:
            blocks.extend(1 << v for v in zeros)
            rest &= ~sum(1 << v for v in zeros)
            continue
        block = _ratio_block(inst, rest, pred, minimal)
        blocks.append(block)
        rest &= ~block
    return blocks
