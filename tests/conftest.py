"""Shared test helpers: independent oracles kept deliberately naive."""

from __future__ import annotations

import os
import random
from itertools import permutations
from pathlib import Path

import schedexact
from schedexact import Instance, Ordering, build_instance

# Tests that start `python -m schedexact.cli` in a child process need the
# child to import this same package, also when only pytest's own pythonpath
# setting put it on sys.path.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(schedexact.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


def all_subset_ideals(inst: Instance) -> list[int]:
    """Order ideals by brute enumeration over all 2^n subsets."""
    out = []
    for x in range(1 << inst.n):
        ok = True
        m = x
        while m:
            b = m & -m
            m ^= b
            if inst.pred_masks[b.bit_length() - 1] & ~x:
                ok = False
                break
        if ok:
            out.append(x)
    return out


def count_extensions_by_ideal_recursion(inst: Instance) -> int:
    """Linear extension count via the ideal recursion, no sequence listing."""
    memo = {0: 1}

    def count(x: int) -> int:
        got = memo.get(x)
        if got is not None:
            return got
        total = 0
        m = x
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            if not inst.succ_masks[v] & x:
                total += count(x ^ b)
        memo[x] = total
        return total

    return count(inst.full_mask)


def min_cost_by_permutations(inst: Instance) -> int:
    """Optimal cost by filtering raw permutations; only for tiny n."""
    n = inst.n
    best = None
    for perm in permutations(range(n)):
        ordering = Ordering.from_sequence(perm)
        ok = True
        pos = ordering.positions
        for v in range(n):
            m = inst.pred_masks[v]
            while m:
                b = m & -m
                m ^= b
                if pos[b.bit_length() - 1] >= pos[v]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        cost = sum((n - pos[v] + 1) * inst.times[v] for v in range(n))
        if best is None or cost < best:
            best = cost
    return best


def random_instance(seed: int, n: int, density: float, tmax: int = 9) -> Instance:
    rng = random.Random(seed)
    times = [rng.randint(0, tmax) for _ in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j))
    return build_instance(times, edges)


def mask(*jobs: int) -> int:
    out = 0
    for v in jobs:
        out |= 1 << v
    return out


# Trace oracles: the states the DP engine visits along a given ordering.


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
