"""The three benchmark workloads: their inputs and their output digests.

Every input is a pure function of the benchmark seed, and every output
check compares against ``expected.json`` (regenerate it with
``python3 perfbench/regen.py expected`` after a change that is meant to
alter results).  Import this module only where ``src`` is importable.

* ``figure_sweep`` -- the paper's Figure-6 path: {multimedia, synthetic}
  x the five paper approaches x {4, 8, 16} tiles, noise-free, one
  in-process ``SweepEngine`` worker, no cache directory.  The simulation
  seed is the paper harness's 2005, so ``hybrid_overhead_pct`` is exact;
  the benchmark seed shuffles the order the points run in, which changes
  the warm state each point meets but never its result.
* ``trace_stream`` -- a 4-tenant ``generate_mixed_trace`` stream of 200
  arrivals over 60 graph ids (the 1000-over-300 shape at a fifth of the
  size) through ``run_trace_stream`` into a ``SweepEngine`` with a fresh
  cache directory.  The benchmark seed is the pattern seed; every graph's
  result depends only on its id, so one digest per id checks any stream.
* ``daemon_mix`` -- one closed-loop client on one keep-alive connection
  to ``repro serve``: every registered task graph x {4, 6, 8} tiles x the
  ``reused`` ladder on ``/schedule``; multimedia at 6 tiles x four
  approaches x two noise levels x seven simulation seeds on ``/simulate``,
  each sent twice so the repeat is a result-cache hit.  The benchmark seed
  shuffles the mix.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

from repro.experiments.robustness import noise_profile
from repro.runner import (ApproachSpec, SweepEngine, SweepSpec,
                          TraceStreamConfig, run_trace_stream)
from repro.runner.cache import metrics_from_dict, metrics_to_dict
from repro.workloads import registry
from repro.workloads.traces import MixedPatternConfig, generate_mixed_trace

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

FIGURE_WORKLOADS = ("multimedia", "synthetic")
FIGURE_APPROACHES = ("no-prefetch", "design-time", "run-time",
                     "run-time+inter-task", "hybrid")
FIGURE_TILES = (4, 8, 16)
FIGURE_SIM_SEED = 2005
FIGURE_ITERATIONS = 60

TRACE_RECORDS = 200
TRACE_UNIVERSE = 60
TRACE_TENANTS = 4
TRACE_STREAM = TraceStreamConfig()

SCHEDULE_TILES = (4, 6, 8)
SCHEDULE_LATENCY = 4.0
SIMULATE_APPROACHES = ("no-prefetch", "run-time+inter-task", "hybrid",
                       "adaptive")
SIMULATE_LEVELS = (0.15, 0.5)
SIMULATE_SEEDS = tuple(range(2005, 2012))
SIMULATE_TILES = 6
SIMULATE_ITERATIONS = 60


def digest(payload: object) -> str:
    """Short content hash of a JSON-ready value."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def load_expected() -> Dict[str, Dict[str, str]]:
    with open(EXPECTED_FILE, encoding="utf-8") as stream:
        return json.load(stream)


def operation_keys(workload: str, seed: int) -> List[str]:
    """The key of every operation one repetition of a batch workload must
    answer, from the workload definition (not from the program)."""
    if workload == "figure_sweep":
        return [figure_key(point) for point in figure_points(seed)]
    return [trace_key(record.graph_id) for record in trace_records(seed)]


# --------------------------------------------------------------------- #
# figure_sweep
# --------------------------------------------------------------------- #
def figure_points(seed: int) -> list:
    spec = SweepSpec(
        workloads=FIGURE_WORKLOADS,
        approaches=tuple(ApproachSpec(name) for name in FIGURE_APPROACHES),
        tile_counts=FIGURE_TILES,
        seeds=(FIGURE_SIM_SEED,),
        iterations=FIGURE_ITERATIONS,
    )
    points = spec.expand()
    random.Random(seed).shuffle(points)
    return points


def figure_key(point) -> str:
    return f"{point.workload.name}/{point.approach.name}/{point.tile_count}"


def run_figure_sweep(points: list) -> Dict[str, object]:
    """The timed work: one in-process engine, no cache directory."""
    return {"sweep": SweepEngine(max_workers=1).run(points)}


def summarize_figure_sweep(outputs: Dict[str, object]) -> Dict[str, object]:
    digests: List[Tuple[str, str]] = []
    hybrid: List[float] = []
    for outcome in outputs["sweep"]:
        point = outcome.point
        digests.append((figure_key(point),
                        digest(metrics_to_dict(outcome.metrics))))
        if point.workload.name == "multimedia" and \
                point.approach.name == "hybrid":
            hybrid.append(outcome.metrics.overhead_percent)
    return {"digests": digests,
            "hybrid_overhead_pct": sum(hybrid) / len(hybrid)}


# --------------------------------------------------------------------- #
# trace_stream
# --------------------------------------------------------------------- #
def trace_key(graph_id: int) -> str:
    return f"graph{graph_id}"


def trace_records(seed: int) -> list:
    return generate_mixed_trace(MixedPatternConfig(
        records=TRACE_RECORDS, universe=TRACE_UNIVERSE, seed=seed,
        tenants=TRACE_TENANTS,
    ))


def run_trace(records: list, cache_dir: str) -> Dict[str, object]:
    """The timed work: the stream through a cached engine (tt-cache on)."""
    engine = SweepEngine(max_workers=1, cache_dir=cache_dir)
    return {"stream": run_trace_stream(records, TRACE_STREAM, engine=engine)}


def summarize_trace(outputs: Dict[str, object]) -> Dict[str, object]:
    stream = outputs["stream"]
    digests: List[Tuple[str, str]] = []
    per_graph: Dict[int, float] = {}
    for record, metrics in zip(stream.records, stream.metrics):
        digests.append((trace_key(record.graph_id), digest(metrics)))
        per_graph[record.graph_id] = \
            metrics_from_dict(metrics).overhead_percent
    return {"digests": digests,
            "hybrid_overhead_pct": sum(per_graph.values()) / len(per_graph)}


# --------------------------------------------------------------------- #
# daemon_mix
# --------------------------------------------------------------------- #
def schedule_requests() -> List[Tuple[str, dict]]:
    """Every registered task graph x tiles x the ``reused`` ladder."""
    requests = []
    for task in registry.task_graph_names():
        names = [subtask.name
                 for subtask in registry.build_task_graph(task).drhw_subtasks]
        for tiles in SCHEDULE_TILES:
            for rung in range(len(names) + 1):
                requests.append((f"{task}@{tiles}/{rung}", {
                    "task": task, "tile_count": tiles,
                    "latency": SCHEDULE_LATENCY, "reused": names[:rung],
                }))
    return requests


def simulate_requests() -> List[Tuple[str, dict]]:
    requests = []
    for approach in SIMULATE_APPROACHES:
        for level in SIMULATE_LEVELS:
            perturbation = dataclasses.asdict(noise_profile(level))
            for seed in SIMULATE_SEEDS:
                requests.append((f"{approach}/{level}/{seed}", {
                    "workload": "multimedia", "approach": approach,
                    "tile_count": SIMULATE_TILES, "seed": seed,
                    "iterations": SIMULATE_ITERATIONS,
                    "perturbation": perturbation,
                }))
    return requests


def daemon_mix(seed: int) -> List[Tuple[str, str, dict]]:
    """The shuffled ``(endpoint, key, payload)`` sequence of one run.

    Every ``/simulate`` payload appears twice; whichever copy comes first
    is computed and the other must come from the result cache.
    """
    mix = [("schedule", key, payload) for key, payload in schedule_requests()]
    for key, payload in simulate_requests():
        mix += [("simulate", key, payload)] * 2
    random.Random(seed).shuffle(mix)
    return mix


def schedule_digest(body: Dict[str, object]) -> str:
    """Digest of a ``/schedule`` answer without its search counters."""
    return digest({key: value for key, value in body.items()
                   if key != "stats"})
