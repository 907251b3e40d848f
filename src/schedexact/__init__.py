"""Exact solver for minimizing total completion time of partially ordered
jobs on a single machine.

`import schedexact` loads the default route only: the instance layer, the
subset DP, Sidney decomposition, matching and solver.solve(). The paper's
branch-and-reduce (paper), the exchange arguments (exchange) and the
brute-force oracle (oracle) load on first use: their names below resolve
through the module __getattr__.
"""

from importlib import import_module

from .instance import (
    CyclicPrecedence,
    IndexOutOfRange,
    Instance,
    InstanceTooLarge,
    NormalizedInstance,
    NotABijection,
    Ordering,
    PositionOutOfRange,
    build_instance,
    endpoint_variants,
    instance_from_json,
    instance_to_json,
    job_cost,
    normalize,
    ordering_cost,
    pred_set,
    restrict_to_origin,
    succ_set,
    transitive_closure,
    validate_ordering,
)
from .dp import (
    DpStats,
    Infeasible,
    is_downward_closed,
    solve_filtered,
    solve_filtered_labeled,
)
from .sidney import sidney_blocks
from .structure import (
    ComparabilityGraph,
    MatchingResult,
    comparability_graph,
    count_order_ideals,
    greedy_maximal_matching,
    ideal_count_bound,
)
from .solver import (
    EpsilonConfig,
    InternalInconsistency,
    SolveReport,
    solve,
)

__version__ = "0.1.0"

# Exported name -> the submodule that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(("brute_force_optimal", "linear_extensions"), "oracle"),
    **dict.fromkeys(
        (
            "NotASubset",
            "SetTooLarge",
            "decode_pred",
            "decode_succ",
            "encode_pred",
            "encode_succ",
            "enumerate_non_exchangeable",
            "is_pred_exchangeable",
            "is_succ_exchangeable",
            "non_exchangeable_bound",
        ),
        "exchange",
    ),
    **dict.fromkeys(
        (
            "BranchContext",
            "ContradictoryBranch",
            "QuarterAssignment",
            "compute_p_partitions",
            "compute_w_half",
            "consistent_context",
            "enumerate_quarter_assignments",
            "half_case_filter",
            "quarter_case_filter",
            "solve_half_case",
            "solve_independent_case",
            "solve_quarter_case",
        ),
        "paper",
    ),
}


def __getattr__(name: str):
    if name in ("exchange", "oracle", "paper"):
        return import_module(f"{__name__}.{name}")
    if name in _LAZY:
        value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
