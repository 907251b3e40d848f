"""Seeded workloads: the instance pool each one solves and the request it sends.

A pool is a fixed list of slots, each a (model, density, n) triple for
`schedexact.gen`; the seed only draws the generator seed of every slot.
Keeping the slot structure fixed keeps the mix of instance sizes, and with
it the latency distribution, the same from seed to seed, while the
instances themselves differ.

Nothing here imports schedexact at module level: the benchmark times the
import as part of its set-up.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

TMAX = 20
FORCED_EPS = ("0.3", "0.3", "0.3", "0.3")
CLI_ALGOS = "brute,dp,dcdp,full"
CLI_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[tuple[str, float, int], ...]
    forced: bool = False  # all four eps at 0.3 instead of the defaults
    cli: bool = False  # one request is a CLI `bench` command over the whole pool


def _repeat(slots, times):
    return tuple(slots) * times


# Why each workload exists, and which layers it loads, is recorded in
# BENCHMARK.json and README.md.
#
# The machine's speed drifts in phases of seconds, so a pool whose requests
# share a single latency flips its median between the fast and the slow
# value. dense-dcdp therefore spreads its DP state counts evenly from about
# 2,000 to 20,000, and keeps a third of the slots at the top so that the
# tail rests on many near-identical instances. Random-dag varies most
# between instances, so it runs at the smallest n.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-dcdp",
            (
                ("chain-mix", 0.5, 18),
                ("chain-mix", 0.5, 14),
                ("random-dag", 0.05, 13),
                ("antichain-plus-matching", 0.5, 16),
                ("chain-mix", 0.5, 15),
                ("random-dag", 0.05, 14),
                ("chain-mix", 0.5, 18),
                ("chain-mix", 0.5, 16),
                ("antichain-plus-matching", 0.5, 14),
                ("antichain-plus-matching", 0.5, 16),
                ("random-dag", 0.05, 13),
                ("chain-mix", 0.5, 17),
                ("chain-mix", 0.5, 18),
                ("random-dag", 0.05, 14),
                ("antichain-plus-matching", 0.5, 15),
                ("random-dag", 0.05, 14),
            ),
        ),
        Workload("antichain-paper", _repeat((("antichain-plus-matching", 0.0, 16),), 8)),
        Workload(
            "forced-ladder",
            _repeat((("antichain-plus-matching", 0.5, 8),), 12)
            + _repeat((("antichain-plus-matching", 0.5, 9),), 2),
            forced=True,
        ),
        # The antichain file sends `full` down the paper route, so the CLI
        # workload also reaches exchange; brute bounds it at n=8.
        Workload(
            "cli-bench",
            tuple((m, 0.5, n) for n in (8, 9) for m in ("chain-mix", "antichain-plus-matching", "random-dag"))
            + (("antichain-plus-matching", 0.0, 8),),
            cli=True,
        ),
    )
}


def build_pool(workload: Workload, seed: int) -> list[dict]:
    """The generator payloads of every slot, drawn from the seed alone.

    A slot with positive density is redrawn until it has a precedence, so
    every such instance has at least one comparable pair.
    """
    from schedexact.gen import generate

    # A str seed is hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED.
    rng = random.Random(f"{workload.name}:{seed}")
    pool = []
    for model, density, n in workload.slots:
        while True:
            payload = generate(model, n, density, TMAX, rng.getrandbits(32))
            if density == 0 or payload["precedences"]:
                break
        pool.append({"model": model, "density": density, **payload})
    return pool


def cli_file_name(slot: int, item: dict) -> str:
    return f"{slot:02d}-{item['model']}-n{item['n']}.json"


class Runner:
    """Sends one workload's requests. `request` is the timed call; `record`
    turns its raw result into a JSON-ready output outside the timed window."""

    def __init__(self, workload: Workload, pool: list[dict], workdir: Path):
        import schedexact
        from schedexact.gen import to_instance
        from schedexact.solver import EpsilonConfig

        self.workload = workload
        self.workdir = workdir
        self._solve_module = schedexact
        if workload.cli:
            from schedexact import cli
            from schedexact.instance import instance_to_json

            self._cli = cli
            inst_dir = workdir / "instances"
            inst_dir.mkdir(parents=True, exist_ok=True)
            for slot, item in enumerate(pool):
                text = instance_to_json(item["n"], item["times"], item["precedences"])
                (inst_dir / cli_file_name(slot, item)).write_text(text, encoding="utf-8")
            self._csv = workdir / "bench.csv"
            self._argv = [
                "bench", "--dir", str(inst_dir), "--algos", CLI_ALGOS,
                "--jobs", str(CLI_JOBS), "--out", str(self._csv),
            ]
            self.slots = 1
        else:
            self._instances = [to_instance(item) for item in pool]
            self._config = EpsilonConfig.make(*FORCED_EPS) if workload.forced else None
            self.slots = len(pool)

    def request(self, slot: int):
        if self.workload.cli:
            return self._cli.main(self._argv)
        # Looked up at call time, so the tracer's wrapper is seen.
        return self._solve_module.solve(self._instances[slot], self._config)

    def record(self, raw):
        if self.workload.cli:
            # Removed after reading, so a command that writes nothing is seen.
            text = self._csv.read_text(encoding="utf-8") if self._csv.exists() else ""
            self._csv.unlink(missing_ok=True)
            return [raw, text]
        ordering, cost, _ = raw
        return [list(ordering.positions), cost]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
