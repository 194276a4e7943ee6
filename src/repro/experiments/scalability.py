"""Scalability of the run-time scheduling computation (Section 4).

The motivation for the hybrid heuristic is that the earlier fully run-time
approach does not scale: its cost per task is ``O(N log N)`` in the number
of loads ("increasing the size of the subtask graph by a factor of 32 was
leading to a 192-increase factor in the scheduling execution time"), whereas
the hybrid heuristic only performs a handful of set-membership checks at
run-time.  This driver measures both: the wall-clock time and the abstract
operation count of the run-time list heuristic versus the hybrid run-time
phase, for graphs of increasing size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.hybrid import HybridPrefetchHeuristic
from ..core.runtime_phase import run_time_phase
from ..platform.description import Platform
from ..runner import parallel_map
from ..scheduling.base import PrefetchProblem
from ..scheduling.list_scheduler import build_initial_schedule
from ..scheduling.prefetch_list import ListPrefetchScheduler
from ..workloads.synthetic import scalability_graphs
from .common import format_table

#: Graph sizes swept by default; the 32x range mirrors the paper's example.
DEFAULT_SIZES: Tuple[int, ...] = (7, 14, 28, 56, 112, 224)


@dataclass(frozen=True)
class ScalabilityRow:
    """Cost of the run-time work for one graph size."""

    subtasks: int
    loads: int
    runtime_heuristic_seconds: float
    runtime_heuristic_operations: int
    hybrid_runtime_seconds: float
    hybrid_runtime_operations: int
    design_time_seconds: float


@dataclass(frozen=True)
class ScalabilityResult:
    """Scaling of the run-time scheduling cost with the graph size."""

    rows: Tuple[ScalabilityRow, ...]

    def growth_factor(self) -> float:
        """Cost growth of the run-time heuristic from smallest to largest."""
        first, last = self.rows[0], self.rows[-1]
        if first.runtime_heuristic_operations == 0:
            return float("inf")
        return (last.runtime_heuristic_operations
                / first.runtime_heuristic_operations)

    def size_factor(self) -> float:
        """Graph-size growth from smallest to largest row."""
        return self.rows[-1].subtasks / self.rows[0].subtasks

    def format_table(self) -> str:
        """Render the scalability study as a table."""
        headers = ["subtasks", "loads", "run-time heuristic (ms)",
                   "run-time ops", "hybrid run-time (ms)", "hybrid ops",
                   "design-time (ms)"]
        rows = [
            (row.subtasks, row.loads,
             row.runtime_heuristic_seconds * 1000.0,
             row.runtime_heuristic_operations,
             row.hybrid_runtime_seconds * 1000.0,
             row.hybrid_runtime_operations,
             row.design_time_seconds * 1000.0)
            for row in self.rows
        ]
        table = format_table(
            headers, rows,
            title="Scalability of the run-time scheduling computation "
                  "(Section 4)",
        )
        note = (
            f"graph size grew {self.size_factor():.0f}x, run-time heuristic "
            f"cost grew {self.growth_factor():.0f}x; the hybrid run-time "
            "phase stays linear in the number of DRHW subtasks"
        )
        return f"{table}\n{note}"


def _measure_scalability(item) -> ScalabilityRow:
    """parallel_map worker: run-time cost measurements for one graph."""
    graph, platform, reconfiguration_latency, repetitions = item
    heuristic = ListPrefetchScheduler()
    hybrid = HybridPrefetchHeuristic(reconfiguration_latency,
                                     design_scheduler=heuristic)
    placed = build_initial_schedule(graph, platform)
    problem = PrefetchProblem(placed, reconfiguration_latency)

    start = time.perf_counter()
    for _ in range(repetitions):
        runtime_result = heuristic.schedule(problem)
    runtime_seconds = (time.perf_counter() - start) / repetitions

    start = time.perf_counter()
    entry = hybrid.design_time(placed, graph.name)
    design_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(repetitions):
        decision = run_time_phase(entry, reusable=())
    hybrid_seconds = (time.perf_counter() - start) / repetitions

    return ScalabilityRow(
        subtasks=len(graph),
        loads=problem.load_count,
        runtime_heuristic_seconds=runtime_seconds,
        runtime_heuristic_operations=runtime_result.stats.operations,
        hybrid_runtime_seconds=hybrid_seconds,
        hybrid_runtime_operations=decision.operations,
        design_time_seconds=design_seconds,
    )


def run_scalability(sizes: Sequence[int] = DEFAULT_SIZES,
                    tile_count: int = 16,
                    reconfiguration_latency: float = 4.0,
                    repetitions: int = 20,
                    seed: int = 11, jobs: int = 1) -> ScalabilityResult:
    """Measure run-time scheduling cost for graphs of increasing size.

    The design-time phase of the hybrid heuristic uses the list heuristic
    as its prefetch engine here (as the paper prescribes for large graphs),
    so even the largest sizes stay affordable.  ``jobs`` defaults to 1
    because the rows are wall-clock measurements: fan out only on machines
    with enough idle cores that co-scheduled rows don't distort timings
    (the abstract operation counts are deterministic either way).
    """
    platform = Platform(tile_count=tile_count,
                        reconfiguration_latency=reconfiguration_latency)
    graphs = scalability_graphs(sizes, seed=seed,
                                reconfiguration_latency=reconfiguration_latency)
    rows = parallel_map(
        _measure_scalability,
        [(graph, platform, reconfiguration_latency, repetitions)
         for graph in graphs],
        max_workers=jobs,
    )
    return ScalabilityResult(rows=tuple(rows))
