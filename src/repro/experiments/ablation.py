"""Ablation studies of the design choices the paper calls out.

Four design decisions of the hybrid heuristic are isolated and measured.
The per-graph studies live here; the two sweeps (inter-task
optimization and replacement policy) are the
:data:`~repro.experiments.artifacts.INTERTASK_ABLATION` and
:data:`~repro.experiments.artifacts.REPLACEMENT_ABLATION` declarations.

* **Critical-subtask pick metric** — the paper adds the heaviest (longest
  remaining path) delay-generating subtask to the CS subset; the ablation
  compares the resulting CS sizes against picking the lightest or the
  earliest delay generator.
* **Inter-task optimization** — the run-time improvement of Section 6 is
  switched off to quantify how much of the hybrid heuristic's quality comes
  from covering the initialization phase with the previous task's idle tail.
* **Replacement policy** — LRU (the default) against FIFO, LFU, a
  deterministic pseudo-random policy and the weight-aware policy.
* **Design-time prefetch engine** — the branch-and-bound scheduler against
  the list heuristic of ref. [7] as the engine used during critical-subtask
  selection (the paper uses branch and bound for small graphs and the
  heuristic for large ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.critical import CriticalSubtaskSelector, PICK_STRATEGIES
from ..platform.description import Platform
from ..scheduling.base import PrefetchProblem
from ..scheduling.list_scheduler import build_initial_schedule
from ..scheduling.prefetch_bb import OptimalPrefetchScheduler
from ..scheduling.prefetch_list import ListPrefetchScheduler
from .common import format_table
from .hide_rate import multimedia_graphs

#: Reconfiguration latency shared by every ablation (ms).
LATENCY_MS = 4.0


# ---------------------------------------------------------------------- #
# 1. Critical-subtask pick metric
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PickMetricRow:
    """CS subset sizes of one graph under different pick strategies."""

    graph_name: str
    critical_by_strategy: Dict[str, int]


@dataclass(frozen=True)
class PickMetricResult:
    """CS sizes per pick strategy over the multimedia graphs."""

    rows: Tuple[PickMetricRow, ...]

    def total(self, strategy: str) -> int:
        """Total CS subtasks over all graphs for one strategy."""
        return sum(row.critical_by_strategy[strategy] for row in self.rows)

    def format_table(self) -> str:
        """Render the pick-metric ablation."""
        headers = ["graph"] + list(PICK_STRATEGIES)
        rows = [
            [row.graph_name] + [row.critical_by_strategy[s]
                                for s in PICK_STRATEGIES]
            for row in self.rows
        ]
        rows.append(["TOTAL"] + [self.total(s) for s in PICK_STRATEGIES])
        return format_table(headers, rows,
                            title="Ablation — critical subtasks selected per "
                                  "pick strategy (fewer is better)")


def run_pick_metric_ablation(tile_count: int = 8) -> PickMetricResult:
    """Compare CS subset sizes for the different pick strategies."""
    platform = Platform(tile_count=tile_count,
                        reconfiguration_latency=LATENCY_MS)
    rows: List[PickMetricRow] = []
    for graph in multimedia_graphs():
        placed = build_initial_schedule(graph, platform)
        sizes: Dict[str, int] = {}
        for strategy in PICK_STRATEGIES:
            selector = CriticalSubtaskSelector(pick=strategy)
            sizes[strategy] = len(selector.select(placed, LATENCY_MS).critical)
        rows.append(PickMetricRow(graph_name=graph.name,
                                  critical_by_strategy=sizes))
    return PickMetricResult(rows=tuple(rows))


# ---------------------------------------------------------------------- #
# 2. Design-time prefetch engine
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class EngineAblationRow:
    """Design-time engine comparison for one graph."""

    graph_name: str
    loads: int
    optimal_overhead_percent: float
    heuristic_overhead_percent: float
    optimal_critical: int
    heuristic_critical: int

    @property
    def optimality_gap_percent_points(self) -> float:
        """Overhead gap between the heuristic and the optimal engine."""
        return (self.heuristic_overhead_percent
                - self.optimal_overhead_percent)


@dataclass(frozen=True)
class EngineAblationResult:
    """Branch-and-bound versus list heuristic as the design-time engine."""

    rows: Tuple[EngineAblationRow, ...]

    @property
    def maximum_gap(self) -> float:
        """Worst optimality gap over the studied graphs."""
        return max(row.optimality_gap_percent_points for row in self.rows)

    def format_table(self) -> str:
        """Render the engine ablation."""
        headers = ["graph", "loads", "overhead B&B (%)",
                   "overhead heuristic (%)", "critical B&B",
                   "critical heuristic"]
        rows = [
            (row.graph_name, row.loads, row.optimal_overhead_percent,
             row.heuristic_overhead_percent, row.optimal_critical,
             row.heuristic_critical)
            for row in self.rows
        ]
        return format_table(headers, rows,
                            title="Ablation — design-time prefetch engine "
                                  "(branch & bound vs list heuristic)")


def run_engine_ablation(tile_count: int = 8) -> EngineAblationResult:
    """Compare the two design-time prefetch engines on the benchmarks."""
    platform = Platform(tile_count=tile_count,
                        reconfiguration_latency=LATENCY_MS)
    rows: List[EngineAblationRow] = []
    for graph in multimedia_graphs():
        placed = build_initial_schedule(graph, platform)
        problem = PrefetchProblem(placed, LATENCY_MS)
        optimal = OptimalPrefetchScheduler().schedule(problem)
        heuristic = ListPrefetchScheduler().schedule(problem)
        optimal_cs = CriticalSubtaskSelector(
            scheduler=OptimalPrefetchScheduler()
        ).select(placed, LATENCY_MS)
        heuristic_cs = CriticalSubtaskSelector(
            scheduler=ListPrefetchScheduler()
        ).select(placed, LATENCY_MS)
        rows.append(EngineAblationRow(
            graph_name=graph.name,
            loads=problem.load_count,
            optimal_overhead_percent=optimal.overhead_percent,
            heuristic_overhead_percent=heuristic.overhead_percent,
            optimal_critical=len(optimal_cs.critical),
            heuristic_critical=len(heuristic_cs.critical),
        ))
    return EngineAblationResult(rows=tuple(rows))
