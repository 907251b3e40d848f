"""Exact solver for minimizing total completion time of partially ordered
jobs on a single machine."""

from .instance import (
    CyclicPrecedence,
    IndexOutOfRange,
    Instance,
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
from .oracle import InstanceTooLarge, brute_force_optimal, linear_extensions
from .dp import (
    DpStats,
    Infeasible,
    is_downward_closed,
    labeled_trace,
    prefix_trace,
    solve_filtered,
    solve_filtered_labeled,
    suffix_trace,
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
from .exchange import (
    NotASubset,
    SetTooLarge,
    decode_pred,
    decode_succ,
    encode_pred,
    encode_succ,
    enumerate_non_exchangeable,
    is_pred_exchangeable,
    is_succ_exchangeable,
    non_exchangeable_bound,
)
from .solver import (
    BranchContext,
    ContradictoryBranch,
    EpsilonConfig,
    InternalInconsistency,
    QuarterAssignment,
    SolveReport,
    compute_p_partitions,
    compute_w_half,
    consistent_context,
    enumerate_quarter_assignments,
    half_case_filter,
    quarter_case_filter,
    solve,
    solve_half_case,
    solve_independent_case,
    solve_quarter_case,
)

__version__ = "0.1.0"
