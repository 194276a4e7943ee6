"""Load-hiding rate of the prefetch heuristic (Section 5 claim).

Section 5 states that, assuming no reuse at all (the worst case), the
prefetch heuristic of ref. [7] "was able to hide at least 75 %" of the
reconfigurations.  This driver measures the fraction of loads whose latency
is completely hidden for the paper's multimedia benchmarks and for a family
of synthetic graphs, under both the list heuristic and the optimal
branch-and-bound scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..graphs.taskgraph import TaskGraph
from ..platform.description import Platform
from ..runner import parallel_map
from ..scheduling.base import PrefetchProblem
from ..scheduling.list_scheduler import build_initial_schedule
from ..scheduling.prefetch_bb import OptimalPrefetchScheduler
from ..scheduling.prefetch_list import ListPrefetchScheduler
from ..workloads.multimedia import (
    jpeg_decoder_graph,
    mpeg_encoder_graph,
    parallel_jpeg_graph,
    pattern_recognition_graph,
)
from ..workloads.synthetic import scalability_graphs
from .common import format_table

#: Minimum hiding rate the paper reports for the no-reuse worst case.
PAPER_MINIMUM_HIDE_RATE = 0.75


@dataclass(frozen=True)
class HideRateRow:
    """Hiding statistics for one graph."""

    graph_name: str
    subtasks: int
    loads: int
    list_hidden_fraction: float
    optimal_hidden_fraction: float


@dataclass(frozen=True)
class HideRateResult:
    """Hiding statistics over a collection of graphs."""

    rows: Tuple[HideRateRow, ...]

    @property
    def average_list_hidden(self) -> float:
        """Mean hiding fraction of the list heuristic."""
        return sum(row.list_hidden_fraction for row in self.rows) / len(self.rows)

    def format_table(self) -> str:
        """Render the hide-rate study as a table."""
        headers = ["graph", "subtasks", "loads", "hidden (list)",
                   "hidden (optimal)"]
        rows = [
            (row.graph_name, row.subtasks, row.loads,
             row.list_hidden_fraction, row.optimal_hidden_fraction)
            for row in self.rows
        ]
        table = format_table(
            headers, rows,
            title="Fraction of load latencies completely hidden "
                  "(no reuse, Section 5)",
        )
        note = (
            f"average hidden (list heuristic): {self.average_list_hidden:.2f}; "
            f"paper claims at least {PAPER_MINIMUM_HIDE_RATE:.2f} for the "
            "multimedia benchmarks"
        )
        return f"{table}\n{note}"


def multimedia_graphs() -> List[TaskGraph]:
    """The Table 1 benchmark graphs (MPEG in its three scenarios)."""
    return [
        pattern_recognition_graph(),
        jpeg_decoder_graph(),
        parallel_jpeg_graph(),
        mpeg_encoder_graph("B"),
        mpeg_encoder_graph("P"),
        mpeg_encoder_graph("I"),
    ]


def _measure_hide_rate(item) -> HideRateRow:
    """parallel_map worker: hiding statistics of one graph."""
    graph, platform, reconfiguration_latency = item
    placed = build_initial_schedule(graph, platform)
    problem = PrefetchProblem(placed, reconfiguration_latency)
    list_result = ListPrefetchScheduler().schedule(problem)
    optimal_result = OptimalPrefetchScheduler().schedule(problem)
    return HideRateRow(
        graph_name=graph.name,
        subtasks=len(graph),
        loads=problem.load_count,
        list_hidden_fraction=list_result.hidden_load_fraction,
        optimal_hidden_fraction=optimal_result.hidden_load_fraction,
    )


def run_hide_rate(extra_sizes: Sequence[int] = (10, 16, 24),
                  tile_count: int = 8,
                  reconfiguration_latency: float = 4.0,
                  seed: int = 23, jobs: int = 1) -> HideRateResult:
    """Measure the hiding fraction for benchmark and synthetic graphs.

    Every graph is measured independently; ``jobs > 1`` fans the graphs
    out through :func:`repro.runner.parallel_map`.
    """
    platform = Platform(tile_count=tile_count,
                        reconfiguration_latency=reconfiguration_latency)
    graphs = multimedia_graphs()
    graphs.extend(scalability_graphs(extra_sizes, seed=seed,
                                     reconfiguration_latency=reconfiguration_latency))
    rows = parallel_map(
        _measure_hide_rate,
        [(graph, platform, reconfiguration_latency) for graph in graphs],
        max_workers=jobs,
    )
    return HideRateResult(rows=tuple(rows))
