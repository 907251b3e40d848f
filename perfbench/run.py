"""schedexact benchmark: seeded workloads, a closed loop, checked results.

    python3 perfbench/run.py --workload dense-dcdp --seed 1 --seconds 55 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). `--workload all` runs every workload in turn.

For each workload the parent process

1. starts SETUP_REPEATS fresh processes that only set up (import
   schedexact, generate the seeded pool, send one warm-up request); the
   median of their set-up times and the measured process's own is setup_s;
2. starts one fresh process that sets up and then runs a closed loop with a
   single client: the next request is sent when the previous one returns,
   in whole passes over the pool, until `--seconds` have passed;
3. checks every output of that process against an independent reference
   (gate.py) and prints the metrics, one per line, then one JSON object as
   the last line of standard output.

With `--trace 1` the measured process spends half the time untraced and
half traced (spans.py), and prints the per-layer metrics and the tracing
overhead instead of the end-to-end metrics.

Exit codes: 0 success, 1 a request failed or the run broke, 2 the
schedexact sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from workloads import WORKLOADS, Runner, build_pool  # noqa: E402

SETUP_REPEATS = 4
CHILD_TIMEOUT_S = 150
MIN_TAIL_BEYOND = 10

# End-to-end metrics in the JSON result, the ones BENCHMARK.json gates.
# request_ms.p50, requests_per_s and peak_rss_mb are printed but not
# published: their spread over ten seeds exceeded the largest allowed bound
# (README.md). failed_ratio is printed too; attempted and failed carry it.
PUBLISHED_END_TO_END = ("request_ms.tail", "setup_s")


# ---------------------------------------------------------------------------
# The measured process.


def _closed_loop(runner: Runner, seconds: float, tracer=None):
    """Whole passes over the pool until `seconds` have passed.

    Returns (latencies in ms, elapsed s, {output key: count}).
    """
    latencies = []
    outputs: dict[str, int] = {}
    reported = False
    start = time.perf_counter()
    while True:
        for slot in range(runner.slots):
            out = error = None
            t0 = time.perf_counter()
            try:
                with tracer.request() if tracer else nullcontext():
                    raw = runner.request(slot)
            except Exception as exc:  # a failed request is counted, not fatal
                error = exc
            latencies.append((time.perf_counter() - t0) * 1000)
            if error is None:
                try:
                    out = runner.record(raw)
                except Exception as exc:
                    error = exc
            if error is not None:
                if not reported:
                    traceback.print_exception(error)
                    reported = True
                error = f"{type(error).__name__}: {error}"
            key = json.dumps([slot, out, error])
            outputs[key] = outputs.get(key, 0) + 1
        if time.perf_counter() - start >= seconds:
            break
    return latencies, time.perf_counter() - start, outputs


def child_main(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import schedexact  # noqa: F401  (the import is part of set-up)

    workload = WORKLOADS[args.workload]
    tg = time.perf_counter()
    pool = build_pool(workload, args.seed)
    gen_ms = (time.perf_counter() - tg) * 1000
    runner = Runner(workload, pool, OUT / f"{workload.name}-{os.getpid()}")
    try:
        runner.record(runner.request(0))  # warm-up
        result = {"setup_s": time.perf_counter() - t0, "gen_ms": gen_ms}
        if args.child == "run":
            if args.trace:
                result.update(_traced_run(runner, workload.name, args.seconds))
            else:
                lat, elapsed, outputs = _closed_loop(runner, args.seconds)
                result.update(latencies=lat, elapsed_s=elapsed, outputs=list(outputs.items()))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        runner.close()
    print(json.dumps(result))
    return 0


def _traced_run(runner: Runner, name: str, seconds: float) -> dict:
    from spans import Tracer

    half = seconds / 2
    lat_u, elapsed_u, out_u = _closed_loop(runner, half)
    tracer = Tracer()
    with tracer.installed():
        lat_t, elapsed_t, out_t = _closed_loop(runner, half, tracer)
    layers = tracer.layer_metrics(statistics.fmean(lat_t))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}.jsonl")
    for key, count in out_t.items():
        out_u[key] = out_u.get(key, 0) + count
    return {
        "untraced_latencies": lat_u,
        "latencies": lat_t,
        "elapsed_s": elapsed_u + elapsed_t,
        "outputs": list(out_u.items()),
        "layers": layers,
        "spans": len(tracer.spans),
    }


# ---------------------------------------------------------------------------
# The parent: set-up samples, the measured run, the gate, the report.


def _child(role: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", role,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples): the highest percentile that still has
    MIN_TAIL_BEYOND samples beyond it, or the maximum when there are fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - MIN_TAIL_BEYOND - 1], 100.0 * (n - MIN_TAIL_BEYOND) / n, n


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the result object plus report lines."""
    from gate import check

    workload = WORKLOADS[name]
    # setup_s is published by the untraced run only.
    repeats = 0 if trace else SETUP_REPEATS
    setups = [_child("setup", name, seed, seconds, trace)["setup_s"] for _ in range(repeats)]
    run = _child("run", name, seed, seconds, trace)
    setups.append(run["setup_s"])

    attempted, failed, reasons = check(workload, build_pool(workload, seed), run["outputs"])
    lat = run["latencies"]
    lines = [f"# {name} seed={seed} seconds={seconds} trace={trace}"]
    lines += [f"# FAILED: {r}" for r in reasons[:5]]
    if trace:
        p50_u = statistics.median(run["untraced_latencies"])
        p50_t = statistics.median(lat)
        metrics = dict(run["layers"])
        metrics["gen.setup_ms"] = (run["gen_ms"], "ms")
        metrics["trace.overhead_ms"] = (p50_t - p50_u, "ms")
        lines.append(
            f"# traced p50 {p50_t:.3f} ms, untraced p50 {p50_u:.3f} ms, "
            f"{len(lat)} traced requests, {run['spans']} spans"
        )
    else:
        t, pct, n = tail(lat)
        metrics = {
            "request_ms.p50": (statistics.median(lat), "ms"),
            "request_ms.tail": (t, "ms"),
            "requests_per_s": ((attempted - failed) / run["elapsed_s"], "1/s"),
            "failed_ratio": (failed / attempted if attempted else 1.0, "ratio"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        lines.append(f"# request_ms.tail is p{pct:.2f} of {n} requests")
    for metric, (value, unit) in metrics.items():
        lines.append(f"{metric} {value:.6g} {unit}")
    published = {
        k: {"value": v, "unit": u}
        for k, (v, u) in metrics.items()
        if trace or k in PUBLISHED_END_TO_END
    }
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": published,
        "lines": lines,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "schedexact" / "__init__.py").is_file():
        print(f"perfbench: no schedexact package under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
            print("\n".join(results[name].pop("lines")), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}:{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
