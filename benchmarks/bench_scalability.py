"""Benchmark of the run-time scheduling cost (Section 4 scalability claim).

Two complementary measurements:

* the experiment driver measures, for graphs of increasing size, how the
  run-time list heuristic's cost grows compared with the hybrid heuristic's
  run-time phase (which is a handful of set-membership checks);
* pytest-benchmark micro-benchmarks time the two run-time code paths
  directly on a representative 14-subtask graph (the average task size the
  paper quotes: "20 tasks with 14 subtasks on average in less than 0.1 ms").
"""

from __future__ import annotations

import pytest

from repro.core.hybrid import HybridPrefetchHeuristic
from repro.core.runtime_phase import run_time_phase
from repro.experiments.scalability import run_scalability
from repro.platform.description import Platform
from repro.scheduling.base import PrefetchProblem
from repro.scheduling.list_scheduler import build_initial_schedule
from repro.scheduling.prefetch_list import ListPrefetchScheduler
from repro.workloads.synthetic import scalability_graphs

LATENCY = 4.0


@pytest.mark.benchmark(group="scalability")
def test_scalability_table(benchmark):
    # jobs stays 1: the rows are wall-clock measurements and co-scheduled
    # worker processes would distort them.
    result = benchmark.pedantic(
        run_scalability,
        kwargs=dict(sizes=(7, 14, 28, 56, 112), repetitions=5, seed=11,
                    jobs=1),
        rounds=1, iterations=1,
    )
    print()
    print(result.format_table())

    # The run-time heuristic's cost grows faster than the graph size,
    # whereas the hybrid run-time phase stays linear.
    assert result.growth_factor() > result.size_factor()
    first, last = result.rows[0], result.rows[-1]
    assert (last.hybrid_runtime_operations / first.hybrid_runtime_operations
            <= result.size_factor() + 1e-9)
    for row in result.rows:
        assert row.hybrid_runtime_seconds <= row.runtime_heuristic_seconds


@pytest.fixture(scope="module")
def representative_problem():
    graph = scalability_graphs([14], seed=3)[0]
    platform = Platform(tile_count=16, reconfiguration_latency=LATENCY)
    placed = build_initial_schedule(graph, platform)
    return placed, PrefetchProblem(placed, LATENCY)


@pytest.mark.benchmark(group="runtime-cost")
def test_runtime_list_heuristic_cost(benchmark, representative_problem):
    _, problem = representative_problem
    scheduler = ListPrefetchScheduler()
    result = benchmark(scheduler.schedule, problem)
    assert result.overhead >= 0.0


@pytest.mark.benchmark(group="runtime-cost")
def test_hybrid_runtime_phase_cost(benchmark, representative_problem):
    placed, _ = representative_problem
    heuristic = HybridPrefetchHeuristic(
        LATENCY, design_scheduler=ListPrefetchScheduler()
    )
    entry = heuristic.design_time(placed, "bench")
    decision = benchmark(run_time_phase, entry, ())
    assert decision.operations == len(placed.drhw_names)
