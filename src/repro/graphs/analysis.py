"""Timing analyses over subtask graphs.

These analyses only look at the graph structure and the subtask execution
times; they deliberately ignore resource constraints.  They provide the
quantities the paper's heuristics rely on:

* **ASAP times** — earliest possible start of each subtask assuming
  unlimited resources.
* **Subtask weights** — the paper assigns to every subtask the length of the
  longest path from the *beginning of its execution* to the end of the whole
  graph.  Subtasks on the critical path always carry the largest weights.
  The critical-subtask selection and the initialization-phase load order are
  both driven by these weights, which the graph computes once into its
  :class:`~repro.graphs.taskgraph.GraphCore`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

from ..errors import GraphError
from .taskgraph import TaskGraph


def asap_times(graph: TaskGraph) -> Dict[str, float]:
    """Earliest start time of each subtask with unlimited resources."""
    start: Dict[str, float] = {}
    for name in graph.topological_order():
        ready = 0.0
        for predecessor in graph.predecessors(name):
            ready = max(ready, start[predecessor]
                        + graph.execution_time(predecessor))
        start[name] = ready
    return start


def subtask_weights(graph: TaskGraph) -> Dict[str, float]:
    """Longest path (in execution time) from each subtask's start to the end.

    This is the weight metric of the paper: ``weight(s)`` is the execution
    time of ``s`` plus the longest chain of successors after it.  It equals
    the critical-path length for subtasks on the critical path and decreases
    for less critical subtasks.  The result is a fresh dict in reverse
    topological order.
    """
    core = graph.core
    names, weights = core.names, core.weights
    return {names[sid]: weights[sid] for sid in reversed(core.order)}


def parallelism_profile(graph: TaskGraph, resolution: int = 128) -> List[int]:
    """Number of concurrently-executing subtasks over time (ASAP schedule).

    The profile is sampled at ``resolution`` evenly spaced instants over the
    critical-path length and is mainly used by the synthetic-workload
    generators and by reporting code.  Bisection on the sorted instants
    finds where ``start <= instant < start + execution time`` holds for
    each subtask, and a difference array sums the subtasks in one pass.
    """
    if len(graph) == 0:
        return [0] * resolution
    starts = asap_times(graph)
    makespan = graph.critical_path_length()
    if makespan <= 0:
        return [0] * resolution
    instants = [makespan * (step + 0.5) / resolution
                for step in range(resolution)]
    delta = [0] * (resolution + 1)
    for name, start in starts.items():
        first = bisect_left(instants, start)
        end = bisect_left(instants, start + graph.execution_time(name))
        if first < end:
            delta[first] += 1
            delta[end] -= 1
    profile: List[int] = []
    active = 0
    for step in range(resolution):
        active += delta[step]
        profile.append(active)
    return profile


def max_parallelism(graph: TaskGraph, resolution: int = 256) -> int:
    """Peak number of concurrently-executing subtasks (ASAP schedule)."""
    profile = parallelism_profile(graph, resolution)
    return max(profile) if profile else 0


def weight_ordered_subtasks(graph: TaskGraph,
                            names: Optional[Sequence[str]] = None) -> List[str]:
    """Subtask names sorted by decreasing weight (ties by insertion order).

    The paper loads critical subtasks "according to the subtask weights (the
    subtask with the greatest weight is loaded first)"; this helper provides
    that deterministic order.
    """
    core = graph.core
    index, weights = core.index, core.weights
    candidates = list(names) if names is not None else list(core.names)
    for name in candidates:
        if name not in index:
            raise GraphError(
                f"subtask {name!r} is not part of graph {graph.name!r}"
            )
    return sorted(candidates, key=lambda n: (-weights[index[n]], index[n]))
