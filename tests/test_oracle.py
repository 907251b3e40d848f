import ast
import inspect
import sys
from itertools import combinations, permutations

import pytest

import schedexact as sx
from schedexact import CyclicPrecedence, InstanceTooLarge, Ordering, oracle
from schedexact.gen import MODELS, generate, to_instance

from conftest import count_extensions_by_ideal_recursion, random_instance


def test_antichain_counts_factorial():
    inst = sx.build_instance([1, 2, 3], [])
    assert sum(1 for _ in sx.linear_extensions(inst)) == 6


def test_chain_single_extension():
    inst = sx.transitive_closure([(0, 1), (1, 2)], 3)
    exts = list(sx.linear_extensions(inst))
    assert len(exts) == 1
    assert exts[0].sequence == (0, 1, 2)


def test_one_constraint_three_extensions():
    inst = sx.transitive_closure([(0, 1)], 3)
    got = {o.sequence for o in sx.linear_extensions(inst)}
    # independent derivation: filter all 6 permutations
    from itertools import permutations

    expected = {p for p in permutations(range(3)) if p.index(0) < p.index(1)}
    assert got == expected
    assert len(got) == 3


def test_every_extension_is_valid():
    inst = random_instance(3, 6, 0.4)
    for o in sx.linear_extensions(inst):
        assert sx.validate_ordering(inst, o)


def test_extensions_are_unique_and_lexicographic():
    inst = random_instance(9, 6, 0.3)
    seqs = [o.sequence for o in sx.linear_extensions(inst)]
    assert len(seqs) == len(set(seqs))
    assert seqs == sorted(seqs)


@pytest.mark.parametrize("seed,n,density", [(1, 5, 0.0), (2, 6, 0.2), (3, 7, 0.4), (4, 8, 0.6), (5, 8, 0.0)])
def test_count_matches_ideal_recursion(seed, n, density):
    inst = random_instance(seed, n, density)
    got = sum(1 for _ in sx.linear_extensions(inst))
    assert got == count_extensions_by_ideal_recursion(inst)


def test_brute_shortest_first():
    inst = sx.build_instance([1, 2, 3], [])
    o, c = sx.brute_force_optimal(inst)
    assert o.positions == (1, 2, 3)
    assert c == 10


def test_brute_forced_chain():
    inst = sx.transitive_closure([(0, 1)], 2)
    o, c = sx.brute_force_optimal(sx.build_instance([5, 1], [(0, 1)]))
    assert o.positions == (1, 2)
    assert c == 11


def test_brute_two_jobs_swaps():
    inst = sx.build_instance([2, 1], [])
    o, c = sx.brute_force_optimal(inst)
    assert o.positions == (2, 1)
    assert c == 4


def test_brute_equals_min_over_extensions():
    for seed in range(8):
        inst = random_instance(seed + 20, 6, 0.3)
        _, c = sx.brute_force_optimal(inst)
        assert c == min(sx.ordering_cost(inst, o) for o in sx.linear_extensions(inst))


def test_cap_guard():
    inst = sx.build_instance([1] * 13, [])
    with pytest.raises(InstanceTooLarge):
        sx.brute_force_optimal(inst)
    with pytest.raises(InstanceTooLarge):
        next(sx.linear_extensions(inst))
    # override allows larger n
    chain = sx.transitive_closure([(i, i + 1) for i in range(12)], 13)
    o, c = sx.brute_force_optimal(chain, cap=13)
    assert o.sequence == tuple(range(13))


def test_empty_instance():
    inst = sx.build_instance([], [])
    o, c = sx.brute_force_optimal(inst)
    assert o == Ordering(()) and c == 0


def first_minimum(inst):
    """The first cheapest ordering in `linear_extensions` order."""
    best = None
    for o in sx.linear_extensions(inst):
        c = sx.ordering_cost(inst, o)
        if best is None or c < best[1]:
            best = (o, c)
    return best


# tmax 0 makes every ordering cost 0 and tmax 1 ties most of them, so the
# tie-break is checked as well as the cost; density 0 gives antichains and
# chain-mix at density 1 a single chain.
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("density", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("tmax", [0, 1, 20])
def test_brute_is_first_minimum_over_extensions(model, n, density, tmax):
    inst = to_instance(generate(model, n, density, tmax, seed=100 * n + tmax))
    assert sx.brute_force_optimal(inst) == first_minimum(inst)


def labelled_dags(n):
    """Every acyclic relation on n labelled jobs, as an edge list."""
    pairs = list(permutations(range(n), 2))
    for k in range(len(pairs) + 1):
        for edges in combinations(pairs, k):
            try:
                sx.build_instance([0] * n, edges)
            except CyclicPrecedence:
                continue
            yield edges


TIME_PATTERNS = {
    "equal": lambda n: [2] * n,
    "increasing": lambda n: list(range(1, n + 1)),
    "decreasing": lambda n: list(range(n, 0, -1)),
    "one-tie": lambda n: [1, 3, 3, 2][:n],
}


@pytest.mark.parametrize("pattern", TIME_PATTERNS)
@pytest.mark.parametrize("n,dag_count", [(0, 1), (1, 1), (2, 3), (3, 25), (4, 543)])
def test_brute_is_first_minimum_on_every_small_dag(n, dag_count, pattern):
    times = TIME_PATTERNS[pattern](n)
    seen = 0
    for edges in labelled_dags(n):
        inst = sx.build_instance(times, edges)
        assert sx.brute_force_optimal(inst) == first_minimum(inst), edges
        seen += 1
    assert seen == dag_count  # the labelled DAG counts (OEIS A003024)


# The size cli-bench runs brute at, with enough precedence to keep the
# reference walk short.
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("density,tmax", [(0.4, 1), (0.4, 20), (0.7, 20)])
def test_brute_is_first_minimum_at_n9(model, density, tmax):
    inst = to_instance(generate(model, 9, density, tmax, seed=900 + tmax))
    assert sx.brute_force_optimal(inst) == first_minimum(inst)


def test_oracle_imports_only_instance_and_stdlib():
    # brute stays an independent check: nothing from the DP, solver or
    # decomposition layers may reach it
    tree = ast.parse(inspect.getsource(oracle))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "instance"), ast.dump(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name
