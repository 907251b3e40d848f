"""Exact solver orchestration: the default route, and the dispatch to the
paper's branch-and-reduce.

solve() first computes a greedy maximal matching of the comparability
graph. With enough matched pairs (every instance with a precedence under
the default thresholds) it takes the dcdp route: the instance is cut into
Sidney blocks (sidney.py) and the plain subset DP solves each block in
place, on an engine offset by the jobs of the earlier blocks. Otherwise
it runs the paper's branch-and-reduce, which lives in paper.py and is
imported on that route only, so the default route never compiles it.

This module also holds what both routes share: the dispatch thresholds
(EpsilonConfig), the SolveReport and the InternalInconsistency bug trap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

# is_downward_closed and solve_filtered are unused here but stay importable:
# perfbench/spans.py wraps them by this module's name.
from .dp import DpStats, SubsetDP, is_downward_closed, solve_filtered  # noqa: F401
from .instance import Instance, Ordering, ordering_cost, validate_ordering
from .sidney import sidney_blocks
from .structure import comparability_graph, greedy_maximal_matching


class InternalInconsistency(RuntimeError):
    """A route produced an ordering that fails revalidation; a bug trap."""


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
        return _DEFAULT_CONFIG

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
    # Through str, so the float 0.3 means 3/10 rather than its binary value.
    return v if isinstance(v, Fraction) else Fraction(str(v))


# Built once: parsing the four decimals and checking the warnings in
# Fraction arithmetic is a measurable share of a small solve.
_DEFAULT_CONFIG = EpsilonConfig.make(*EpsilonConfig._DEFAULTS)
_DEFAULT_WARNINGS = _DEFAULT_CONFIG.dispatch_warnings()


@dataclass
class SolveReport:
    chosen_path: str = ""
    branches_explored: int = 0
    branches_pruned: int = 0
    variants_total: int = 0
    stats_total: DpStats = field(default_factory=DpStats)
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


def _solve_by_blocks(inst: Instance, report: SolveReport) -> tuple[Ordering, int]:
    """Plain subset DP on each Sidney block, the schedules concatenated.

    A block's engine has the earlier blocks' job count as its offset, so
    its visit weighs each job by the coefficient of its absolute position:
    the block's share of the whole schedule's cost.
    """
    seq: list[int] = []
    total = 0
    blocks = sidney_blocks(inst)
    for block in blocks:
        dp = SubsetDP(inst, offset=len(seq))
        total += dp.visit(block)
        seq.extend(dp.sequence(block))
        report.stats_total.add(dp.stats())
        report.max_block = max(report.max_block, block.bit_count())
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
    strategy produced the winning branch. Raises ValueError on a negative
    wq_cap.
    """
    if wq_cap < 0:
        raise ValueError(f"wq_cap must be at least 0, got {wq_cap}")
    t0 = time.perf_counter()
    if config is None:
        config = _DEFAULT_CONFIG
    warnings = _DEFAULT_WARNINGS if config is _DEFAULT_CONFIG else config.dispatch_warnings()
    report = SolveReport(warnings=warnings)
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
    else:
        from . import paper

        ordering, cost = paper.solve_branches(inst, matching.matched, config, wq_cap, report)
    report.wall_ms = (time.perf_counter() - t0) * 1000
    return ordering, cost, report


# perfbench/spans.py wraps these paper-route callees by this module's name.
# They resolve here, from paper, but paper calls its own bindings, so the
# wrappers see none of those calls. Re-pointing the tracer at paper (ROADMAP
# item 1) deletes this forwarder.
_TRACED_IN_PAPER = frozenset((
    "solve_half_case",
    "solve_quarter_case",
    "solve_independent_case",
    "is_succ_exchangeable",
    "is_pred_exchangeable",
    "solve_filtered_labeled",
    "normalize",
    "endpoint_variants",
    "restrict_to_origin",
))


def __getattr__(name: str):
    if name in _TRACED_IN_PAPER:
        from . import paper

        return getattr(paper, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
