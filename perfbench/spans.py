"""Outside-in tracing of schedexact, layer by layer.

The tracer replaces names in the namespace of the module that calls them,
such as `schedexact.solver.solve_filtered` or `schedexact.cli.brute_force_optimal`.
The calling module looks those names up at call time, so its calls go
through the wrapper; the package source is not touched. A layer is the
package module that defines the wrapped function, and is the prefix of the
span name.

Kinds of wrapper:

* a full span records name, start, end, parent and request id, one object
  per call;
* a leaf, used for functions called once per DP state or per branch, adds
  its call count and time to an aggregate on the span that called it. A
  leaf calls nothing that is wrapped, so its self time is its duration;
* a generator leaf (endpoint_variants) does the same for each step of the
  iteration, counting the items it yields.

Spans are kept in memory and written out when the run ends. A span's self
time is its duration minus the time covered by its child spans (their
union, since CLI worker threads overlap) and minus its leaves' time.

States of a DP call that raises Infeasible are not visible from outside:
the call counts in dp.calls, but its states do not.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter_ns

FULL, LEAF, LEAF_GEN = "full", "leaf", "leaf-gen"

# (calling module, name it looks up, span name, kind)
WRAPS = (
    ("schedexact", "solve", "solver.solve", FULL),
    ("schedexact.cli", "solve", "solver.solve", FULL),
    ("schedexact.cli", "main", "cli.main", FULL),
    ("schedexact.cli", "instance_from_json", "instance.parse", FULL),
    ("schedexact.cli", "brute_force_optimal", "oracle.brute_force_optimal", FULL),
    ("schedexact.cli", "solve_filtered", "dp.solve_filtered", FULL),
    ("schedexact.cli", "is_downward_closed", "dp.is_downward_closed", LEAF),
    ("schedexact.cli", "comparability_graph", "structure.comparability_graph", FULL),
    ("schedexact.cli", "greedy_maximal_matching", "structure.greedy_maximal_matching", FULL),
    ("schedexact.solver", "comparability_graph", "structure.comparability_graph", FULL),
    ("schedexact.solver", "greedy_maximal_matching", "structure.greedy_maximal_matching", FULL),
    ("schedexact.solver", "solve_filtered", "dp.solve_filtered", FULL),
    ("schedexact.solver", "solve_filtered_labeled", "dp.solve_filtered_labeled", FULL),
    ("schedexact.solver", "is_downward_closed", "dp.is_downward_closed", LEAF),
    ("schedexact.solver", "solve_half_case", "solver.half", FULL),
    ("schedexact.solver", "solve_quarter_case", "solver.quarter", FULL),
    ("schedexact.solver", "solve_independent_case", "solver.independent", FULL),
    ("schedexact.solver", "is_succ_exchangeable", "exchange.is_succ_exchangeable", LEAF),
    ("schedexact.solver", "is_pred_exchangeable", "exchange.is_pred_exchangeable", LEAF),
    ("schedexact.solver", "normalize", "instance.normalize", FULL),
    ("schedexact.solver", "endpoint_variants", "instance.endpoint_variants", LEAF_GEN),
    ("schedexact.solver", "validate_ordering", "instance.validate_ordering", LEAF),
    ("schedexact.solver", "ordering_cost", "instance.ordering_cost", LEAF),
    ("schedexact.solver", "restrict_to_origin", "instance.restrict_to_origin", LEAF),
)

ROUTES = ("dcdp", "half", "independent", "quarters0-A", "quarters0-B", "quarters0-C", "quarters0-D")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Span:
    __slots__ = ("id", "name", "parent", "request", "start", "end", "leaves")

    def __init__(self, span_id: int, name: str, parent: int, request: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0
        self.leaves: dict[str, list[int]] = {}  # name -> [calls, ns, true results or items]


def _on_solve(tracer: "Tracer", result) -> None:
    report = result[2]
    tracer.counts["solver.branches_explored"] += report.branches_explored
    tracer.counts["solver.branches_pruned"] += report.branches_pruned
    tracer.counts["solver.route." + report.chosen_path] += 1


def _on_dp(tracer: "Tracer", result) -> None:
    stats = result[2]
    tracer.counts["dp.states_expanded"] += stats.states_expanded
    tracer.counts["dp.states_rejected"] += stats.states_rejected
    # peak_table_size is per call here; only SolveReport sums it.
    tracer.counts["dp.table_entries"] += stats.peak_table_size
    tracer.table_peak = max(tracer.table_peak, stats.peak_table_size)


_ON_RESULT = {
    "solver.solve": _on_solve,
    "dp.solve_filtered": _on_dp,
    "dp.solve_filtered_labeled": _on_dp,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.table_peak = 0
        self.requests = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> Span:
        # A CLI worker thread starts with an empty stack; its spans belong
        # to the span the requesting thread is in, which waits on the pool.
        stack = self._stack()
        return stack[-1] if stack else self._home[-1]

    @contextmanager
    def request(self):
        self.requests += 1
        root = Span(next(self._ids), "bench.request", 0, self.requests)
        self._home = self._stack()
        self._home.append(root)
        root.start = _clock()
        try:
            yield
        finally:
            root.end = _clock()
            self._home.pop()
            self.spans.append(root)

    def _add_leaf(self, name: str, ns: int, hit: bool) -> None:
        leaves = self._parent().leaves
        agg = leaves.get(name)
        if agg is None:
            agg = leaves[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += ns
        agg[2] += hit

    def _wrap(self, fn, name: str, kind: str):
        if kind == LEAF:

            def leaf(*args, **kwargs):
                t0 = _clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    self._add_leaf(name, _clock() - t0, result is True)

            return functools.wraps(fn)(leaf)

        if kind == LEAF_GEN:

            def leaf_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def timed():
                    while True:
                        t0 = _clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            self._add_leaf(name, _clock() - t0, False)
                            return
                        self._add_leaf(name, _clock() - t0, True)
                        yield item

                return timed()

            return functools.wraps(fn)(leaf_gen)

        on_result = _ON_RESULT.get(name)

        def full(*args, **kwargs):
            parent = self._parent()
            span = Span(next(self._ids), name, parent.id, parent.request)
            stack = self._stack()
            stack.append(span)
            span.start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
                self.spans.append(span)
            if on_result is not None:
                with self._lock:
                    on_result(self, result)
            return result

        return functools.wraps(fn)(full)

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPS for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, kind in WRAPS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, kind))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON object per span, times in microseconds from the first span."""
        t0 = min((s.start for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "request": s.request,
                    "start_us": (s.start - t0) / 1000,
                    "end_us": (s.end - t0) / 1000,
                }
                if s.leaves:
                    record["leaves"] = {k: {"calls": c, "ms": ns / 1e6} for k, (c, ns, _) in s.leaves.items()}
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self, request_ms_mean: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a mean per traced request except
        dp.table_peak (a maximum over DP calls) and the ratios."""
        children: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        for s in self.spans:
            children[s.parent].append((s.start, s.end))
        self_ns: defaultdict[str, int] = defaultdict(int)
        incl_ns: defaultdict[str, int] = defaultdict(int)
        calls: defaultdict[str, int] = defaultdict(int)
        hits: defaultdict[str, int] = defaultdict(int)
        for s in self.spans:
            leaf_ns = 0
            for lname, (c, ns, h) in s.leaves.items():
                calls[lname] += c
                incl_ns[lname] += ns
                hits[lname] += h
                self_ns[_layer(lname)] += ns
                leaf_ns += ns
            duration = s.end - s.start
            self_ns[_layer(s.name)] += duration - _covered(children.get(s.id, ())) - leaf_ns
            incl_ns[s.name] += duration
            calls[s.name] += 1

        r = max(self.requests, 1)
        cnt = self.counts

        def ms(*names):
            return sum(incl_ns[n] for n in names) / 1e6 / r

        def per(value):
            return value / r

        def ratio(num, den):
            return num / den if den else 0.0

        exch = ("exchange.is_succ_exchangeable", "exchange.is_pred_exchangeable")
        exch_calls = sum(calls[n] for n in exch)
        matching_ms = self_ns["structure"] / 1e6 / r
        out = {
            "dp.self_ms": (self_ns["dp"] / 1e6 / r, "ms"),
            "dp.calls": (per(calls["dp.solve_filtered"] + calls["dp.solve_filtered_labeled"]), "count"),
            "dp.states_expanded": (per(cnt["dp.states_expanded"]), "count"),
            "dp.states_rejected": (per(cnt["dp.states_rejected"]), "count"),
            "dp.reject_ratio": (
                ratio(cnt["dp.states_rejected"], cnt["dp.states_expanded"] + cnt["dp.states_rejected"]),
                "ratio",
            ),
            "dp.table_peak": (float(self.table_peak), "count"),
            "dp.table_entries": (per(cnt["dp.table_entries"]), "count"),
            "dp.dc_check_ms": (ms("dp.is_downward_closed"), "ms"),
            "dp.dc_check_calls": (per(calls["dp.is_downward_closed"]), "count"),
            "exchange.calls": (per(exch_calls), "count"),
            "exchange.ms": (ms(*exch), "ms"),
            "exchange.hit_ratio": (ratio(sum(hits[n] for n in exch), exch_calls), "ratio"),
            "solver.self_ms": (self_ns["solver"] / 1e6 / r, "ms"),
            "solver.branches_explored": (per(cnt["solver.branches_explored"]), "count"),
            "solver.branches_pruned": (per(cnt["solver.branches_pruned"]), "count"),
            "solver.prune_ratio": (
                ratio(
                    cnt["solver.branches_pruned"],
                    cnt["solver.branches_explored"] + cnt["solver.branches_pruned"],
                ),
                "ratio",
            ),
            "solver.independent_ms": (ms("solver.independent"), "ms"),
            "solver.independent_calls": (per(calls["solver.independent"]), "count"),
            "solver.quarter_ms": (ms("solver.quarter"), "ms"),
            "solver.half_ms": (ms("solver.half"), "ms"),
        }
        for route in ROUTES:
            out["solver.route." + route] = (per(cnt["solver.route." + route]), "count")
        out.update({
            "instance.self_ms": (self_ns["instance"] / 1e6 / r, "ms"),
            "instance.revalidate_ms": (ms("instance.validate_ordering", "instance.ordering_cost"), "ms"),
            "instance.revalidate_calls": (per(calls["instance.validate_ordering"]), "count"),
            "instance.normalize_ms": (ms("instance.normalize", "instance.endpoint_variants"), "ms"),
            "instance.variants": (per(hits["instance.endpoint_variants"]), "count"),
            "instance.parse_ms": (ms("instance.parse"), "ms"),
            "structure.matching_ms": (matching_ms, "ms"),
            "structure.matching_share": (100 * ratio(matching_ms, request_ms_mean), "%"),
            "oracle.ms": (ms("oracle.brute_force_optimal"), "ms"),
            "oracle.calls": (per(calls["oracle.brute_force_optimal"]), "count"),
            "cli.self_ms": (self_ns["cli"] / 1e6 / r, "ms"),
        })
        return out


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total
