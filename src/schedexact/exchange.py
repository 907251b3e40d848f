"""Swap-based pruning primitives over antichain subsets.

Fix an antichain K whose predecessors and successors all lie outside it.
A subset L of K is succ-exchangeable when some u in L could profitably
swap with a cheaper K-job outside L without breaking any constraint
through u's successors; pred-exchangeable is the mirror notion for a
K-job outside L swapping with a pricier member of L. Exchangeable
prefixes cannot occur in an optimal schedule, so a solver only ever
needs the non-exchangeable subsets.

The encode/decode pair certifies that there are few of those: encode
fingerprints a subset by at most one job per outside neighbour (the
least expensive predecessor outside the subset, or the most expensive
successor inside it), and decode inverts the fingerprint exactly on the
non-exchangeable family. All comparisons use processing times; callers
wanting determinism under ties should perturb times first, argmin and
argmax themselves break ties by job index.

Only the succ side is written out. The pred side is the succ side read
from the other end of the schedule: on the mirror, which swaps every
job's predecessors and successors and negates every time (so cheaper and
pricier swap too), and with each label set L of K replaced by K - L:

    is_pred_exchangeable(I, L, K) == is_succ_exchangeable(mirror, K - L, K)
    encode_pred(I, Y, K)          == encode_succ(mirror, K - Y, K)
    decode_pred(I, Z, K)          == K - decode_succ(mirror, Z, K)

The (t, v)-minimum on the mirror is the (t, -v)-maximum on I, so the
tie-breaks agree. Negative times are no valid instance anywhere else, so
the mirror is built inside this module and never returned.
"""

from __future__ import annotations

from math import comb

from .instance import Instance, bits, submasks, succ_set


class NotASubset(ValueError):
    pass


class SetTooLarge(ValueError):
    pass


def _require_subset(l: int, k: int) -> None:
    if l & ~k:
        raise NotASubset(f"label set {l:#x} is not contained in ground set {k:#x}")


def _mirror(inst: Instance) -> Instance:
    """The reversed order with negated times: predecessors and successors
    swap, and so do cheaper and pricier."""
    return Instance(tuple(-t for t in inst.times), inst.succ_masks, inst.pred_masks)


def is_succ_exchangeable(inst: Instance, l: int, k: int) -> bool:
    """True iff some u in l has, for each successor w, a cheaper candidate
    in (k & pred(w)) outside l."""
    _require_subset(l, k)
    times = inst.times
    for u in bits(l):
        tu = times[u]
        witness = True
        for w in bits(inst.succ_masks[u]):
            cands = k & inst.pred_masks[w] & ~l
            if not any(times[v] < tu for v in bits(cands)):
                witness = False
                break
        if witness:
            return True
    return False


def is_pred_exchangeable(inst: Instance, l: int, k: int) -> bool:
    """True iff some v in k outside l has, for each predecessor w, a pricier
    member of l among w's successors."""
    _require_subset(l, k)
    return is_succ_exchangeable(_mirror(inst), k ^ l, k)


def encode_succ(inst: Instance, y: int, k: int) -> int:
    """Fingerprint: per outside successor w, the cheapest job of k outside y
    preceding w. Disjoint from y."""
    _require_subset(y, k)
    times = inst.times
    out = 0
    for w in bits(succ_set(inst, k)):
        cands = k & ~y & inst.pred_masks[w]
        if cands:
            best = min(bits(cands), key=lambda v: (times[v], v))
            out |= 1 << best
    return out


def decode_succ(inst: Instance, z: int, k: int) -> int:
    """Jobs of k having some successor w all of whose fingerprint entries in
    pred(w) are pricier."""
    _require_subset(z, k)
    times = inst.times
    out = 0
    for v in bits(k):
        tv = times[v]
        for w in bits(inst.succ_masks[v]):
            if all(times[x] > tv for x in bits(z & inst.pred_masks[w])):
                out |= 1 << v
                break
    return out


def encode_pred(inst: Instance, y: int, k: int) -> int:
    """Fingerprint: per outside predecessor w, the priciest member of y among
    w's successors. Contained in y."""
    _require_subset(y, k)
    return encode_succ(_mirror(inst), k ^ y, k)


def decode_pred(inst: Instance, z: int, k: int) -> int:
    """Jobs of k whose every predecessor w has a fingerprint entry among its
    successors at least as pricey. Contains z."""
    _require_subset(z, k)
    return k ^ decode_succ(_mirror(inst), z, k)


def _oriented(inst: Instance, k: int, mode: str) -> tuple[Instance, int]:
    """The instance on which the mode's exchange is succ-exchange, and the
    mask that maps a label set of k to its label set there."""
    if mode == "succ":
        return inst, 0
    if mode == "pred":
        return _mirror(inst), k
    raise ValueError(f"mode must be 'succ' or 'pred', got {mode!r}")


def enumerate_non_exchangeable(inst: Instance, k: int, mode: str) -> list[int]:
    """All subsets of k that are non-exchangeable in the given mode, in
    increasing order."""
    size = k.bit_count()
    if size > 16:
        raise SetTooLarge(f"|K|={size} exceeds enumeration cap 16")
    oriented, flip = _oriented(inst, k, mode)
    return [l for l in submasks(k) if not is_succ_exchangeable(oriented, l ^ flip, k)]


def non_exchangeable_bound(inst: Instance, k: int, mode: str) -> int:
    """Counting certificate: sum of C(|K|, l) for l up to the number of
    outside neighbours feeding the fingerprint."""
    size = k.bit_count()
    m = succ_set(_oriented(inst, k, mode)[0], k).bit_count()
    return sum(comb(size, l) for l in range(min(size, m) + 1))
