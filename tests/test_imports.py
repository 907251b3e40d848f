"""What `import schedexact` loads, and what it still exports.

The default route compiles only its own modules: the paper's
branch-and-reduce, the exchange arguments and the brute-force oracle load
on first use. The command line loads the paper route up front, so that
bench's forked helpers inherit it instead of each compiling it again.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import schedexact
from schedexact import solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Every public name of the package before the paper route moved out of
# solver, the three DP trace helpers aside (they moved to conftest.py).
EXPORTS = (
    "BranchContext", "ComparabilityGraph", "ContradictoryBranch", "CyclicPrecedence",
    "DpStats", "EpsilonConfig", "IndexOutOfRange", "Infeasible", "Instance",
    "InstanceTooLarge", "InternalInconsistency", "MatchingResult", "NormalizedInstance",
    "NotABijection", "NotASubset", "Ordering", "PositionOutOfRange",
    "SetTooLarge", "SolveReport", "brute_force_optimal", "build_instance",
    "comparability_graph", "compute_p_partitions", "compute_w_half", "consistent_context",
    "count_order_ideals", "decode_pred", "decode_succ", "dp", "encode_pred", "encode_succ",
    "endpoint_variants", "enumerate_non_exchangeable", "enumerate_quarter_assignments",
    "exchange", "greedy_maximal_matching", "half_case_filter", "ideal_count_bound",
    "instance", "instance_from_json", "instance_to_json", "is_downward_closed",
    "is_pred_exchangeable", "is_succ_exchangeable", "job_cost", "linear_extensions",
    "non_exchangeable_bound", "normalize", "oracle", "ordering_cost", "pred_set",
    "quarter_case_filter", "restrict_to_origin", "sidney", "sidney_blocks", "solve",
    "solve_filtered", "solve_filtered_labeled", "solve_half_case", "solve_independent_case",
    "solve_quarter_case", "solver", "structure", "succ_set", "transitive_closure",
    "validate_ordering",
)

OFF_DEFAULT_ROUTE = ("schedexact.paper", "schedexact.exchange", "schedexact.oracle", "schedexact.cli")


def _run(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_default_solve_loads_only_the_default_route():
    out = _run(
        "import sys, schedexact\n"
        "from schedexact.gen import generate, to_instance\n"
        "_, _, report = schedexact.solve(to_instance(generate('chain-mix', 12, 0.5, 20, 3)))\n"
        "assert report.chosen_path == 'dcdp'\n"
        f"print([m for m in {OFF_DEFAULT_ROUTE!r} if m in sys.modules])\n"
    )
    assert out == "[]\n"


def test_cli_loads_the_paper_route_before_it_forks():
    assert _run("import sys, schedexact.cli; print('schedexact.paper' in sys.modules)") == "True\n"


def test_every_export_resolves_in_a_fresh_process():
    out = _run(
        "import schedexact\n"
        f"print([n for n in {EXPORTS!r} if getattr(schedexact, n, None) is None])\n"
    )
    assert out == "[]\n"


def test_lazy_exports_are_the_defining_modules_objects():
    from schedexact import exchange, oracle, paper

    assert schedexact.solve_independent_case is paper.solve_independent_case
    assert schedexact.is_succ_exchangeable is exchange.is_succ_exchangeable
    assert schedexact.brute_force_optimal is oracle.brute_force_optimal
    assert oracle.InstanceTooLarge is schedexact.instance.InstanceTooLarge


def test_unknown_names_still_raise():
    for module in (schedexact, solver):
        assert not hasattr(module, "no_such_name")


def test_solver_forwards_exactly_the_traced_paper_callees():
    spec = importlib.util.spec_from_file_location("perfbench_spans_for_imports", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {name for module, name, _, _ in spans.WRAPS if module == "schedexact.solver"}
    assert traced - set(vars(solver)) == solver._TRACED_IN_PAPER
