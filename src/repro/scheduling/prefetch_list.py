"""Run-time list-scheduling prefetch heuristic (ref. [7]).

This is the reproduction of the authors' earlier fully run-time prefetch
scheduler the hybrid heuristic is compared against — and which the hybrid
heuristic reuses at design-time for large graphs.  It is based on list
scheduling: loads are ordered by a priority metric and issued greedily on
the single reconfiguration port as soon as their target tile becomes
reconfigurable.

Two priority metrics are provided:

* ``"ideal-start"`` (default) — loads are ordered by the time their subtask
  is needed in the ideal schedule (earliest-needed-first).  This is the
  natural list-scheduling order for a single reconfiguration port.
* ``"weight"`` — loads are ordered by decreasing subtask weight (longest
  path from the subtask to the end of the graph), the metric the paper uses
  for the critical-subtask selection and the initialization phase.

The dominant cost is the sort of the loads, i.e. ``O(N log N)`` in the
number of loads — matching the complexity the paper reports for ref. [7].
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..errors import SchedulingError
from .base import PrefetchProblem, PrefetchResult, PrefetchScheduler, SchedulerStats
from .evaluator import replay_schedule

#: Priority metrics understood by :class:`ListPrefetchScheduler`.
PRIORITY_METRICS = ("ideal-start", "weight")


class ListPrefetchScheduler(PrefetchScheduler):
    """List-scheduling prefetch heuristic with a configurable priority metric."""

    name = "run-time-list"

    def __init__(self, priority: str = "ideal-start") -> None:
        if priority not in PRIORITY_METRICS:
            raise SchedulingError(
                f"unknown priority metric {priority!r}; expected one of "
                f"{PRIORITY_METRICS}"
            )
        self.priority = priority

    def load_order(self, problem: PrefetchProblem) -> Tuple[str, ...]:
        """Compute the priority order of the loads for ``problem``.

        ``"weight"`` sorts by ``(-weight, ideal start, name)``; the default
        is earliest-needed-first, simultaneous needs broken towards the
        heavier (more critical) subtask, as in the paper: ``(ideal start,
        -weight, name)``.  Both orders are the schedule's static ones,
        filtered by ``problem.reused``.
        """
        core = problem.placed.core
        order = (core.by_weight if self.priority == "weight"
                 else core.by_start_weight)
        reused = problem.reused
        return tuple(name for name in order if name not in reused)

    def schedule(self, problem: PrefetchProblem) -> PrefetchResult:
        order = self.load_order(problem)
        timed = replay_schedule(
            problem.placed,
            problem.reconfiguration_latency,
            order,
            priority_order=order,
            release_time=problem.release_time,
            controller_available=problem.controller_available,
        )
        operations = _nlogn(len(order))
        stats = SchedulerStats(operations=operations, evaluations=1)
        return PrefetchResult(problem=problem, timed=timed, load_order=order,
                              stats=stats, scheduler_name=self.name)


def _nlogn(count: int) -> int:
    """Elementary-operation estimate of sorting ``count`` loads."""
    if count <= 1:
        return count
    return int(math.ceil(count * math.log2(count))) + count
