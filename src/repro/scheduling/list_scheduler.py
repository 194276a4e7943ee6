"""Initial subtask scheduling (the reconfiguration-free schedule).

The hybrid prefetch heuristic starts from "an initial subtask schedule that
neglects the reconfiguration latency" produced by the TCM design-time
scheduler.  This module provides that substrate: a classic critical-path
list scheduler that maps a task graph onto a bounded number of DRHW tiles
and ISPs, minimizing the makespan while ignoring loads entirely.

The scheduler is deterministic: ready subtasks are ordered by decreasing
weight (longest remaining path), ties are broken by graph insertion order.
Each subtask goes to the resource giving the earliest start; among equal
starts it spreads, preferring the least recently used resource, then the
lowest index.  On a tile pool larger than the task this gives every
subtask its own tile, which maximizes the reuse opportunities the paper's
replacement module exploits.  Communication between tiles is free, as in
the paper's evaluation, so every schedule it builds is eager: no subtask
could start before its placed start, which the replay kernel's floors
rely on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import SchedulingError
from ..graphs.analysis import subtask_weights
from ..graphs.subtask import ResourceClass
from ..graphs.taskgraph import TaskGraph
from ..graphs.validation import assert_valid
from ..platform.description import Platform
from .schedule import (
    PlacedSchedule,
    PlacedSubtask,
    ResourceId,
    isp_resource,
    tile_resource,
)


class ListScheduler:
    """Critical-path list scheduler for the initial (ideal) schedule."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    def schedule(self, graph: TaskGraph) -> PlacedSchedule:
        """Map ``graph`` onto the platform, ignoring reconfiguration.

        Raises
        ------
        SchedulingError
            If the graph contains ISP subtasks but the platform has no ISP,
            or if the graph is structurally invalid.
        """
        assert_valid(graph)
        if graph.isp_subtasks and self.platform.isp_count == 0:
            raise SchedulingError(
                f"graph {graph.name!r} contains ISP subtasks but platform "
                f"{self.platform.name!r} has no ISP"
            )

        weights = subtask_weights(graph)
        insertion_index = graph.core.index

        tiles = [tile_resource(i) for i in range(self.platform.tile_count)]
        isps = [isp_resource(i) for i in range(self.platform.isp_count)]
        resource_free: Dict[ResourceId, float] = {r: 0.0 for r in tiles + isps}

        finish: Dict[str, float] = {}
        placements: Dict[str, PlacedSubtask] = {}
        remaining_predecessors = {
            name: len(graph.predecessors(name)) for name in graph.subtask_names
        }
        ready = [name for name, count in remaining_predecessors.items()
                 if count == 0]
        scheduled_count = 0

        while scheduled_count < len(graph):
            if not ready:
                raise SchedulingError(
                    f"list scheduler stalled on graph {graph.name!r}; the graph "
                    "is not a DAG or bookkeeping is inconsistent"
                )
            ready.sort(key=lambda n: (-weights[n], insertion_index[n]))
            name = ready.pop(0)
            subtask = graph.subtask(name)
            candidates = (tiles if subtask.resource is ResourceClass.DRHW
                          else isps)
            placement = self._place(graph, name, candidates, resource_free,
                                    finish)
            placements[name] = placement
            finish[name] = placement.finish
            resource_free[placement.resource] = placement.finish
            scheduled_count += 1
            for successor in graph.successors(name):
                remaining_predecessors[successor] -= 1
                if remaining_predecessors[successor] == 0:
                    ready.append(successor)

        return PlacedSchedule(graph, placements)

    # ------------------------------------------------------------------ #
    def _place(self, graph: TaskGraph, name: str,
               candidates: List[ResourceId],
               resource_free: Dict[ResourceId, float],
               finish: Dict[str, float]) -> PlacedSubtask:
        """Choose the resource giving the earliest start time for ``name``."""
        subtask = graph.subtask(name)
        ready_time = max((finish[predecessor]
                          for predecessor in graph.predecessors(name)),
                         default=0.0)
        best: Optional[PlacedSubtask] = None
        best_key = None
        for resource in candidates:
            start = max(ready_time, resource_free[resource])
            # Among equal starts, the least recently used resource.
            key = (start, resource_free[resource], resource.index)
            if best is None or key < best_key:
                best = PlacedSubtask(name=name, resource=resource, start=start,
                                     finish=start + subtask.execution_time)
                best_key = key
        if best is None:
            raise SchedulingError(
                f"no resource available for subtask {name!r} of graph "
                f"{graph.name!r}"
            )
        return best


def build_initial_schedule(graph: TaskGraph, platform: Platform
                           ) -> PlacedSchedule:
    """Convenience wrapper: schedule ``graph`` on ``platform`` ignoring loads."""
    return ListScheduler(platform).schedule(graph)
