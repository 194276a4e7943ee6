"""Run-time list-scheduling prefetch heuristic (ref. [7]).

This is the reproduction of the authors' earlier fully run-time prefetch
scheduler the hybrid heuristic is compared against — and which the hybrid
heuristic reuses at design-time for large graphs.  It is based on list
scheduling: loads are ordered by a priority metric and issued greedily on
the single reconfiguration port as soon as their target tile becomes
reconfigurable.

Loads are ordered by the time their subtask is needed in the ideal
schedule (earliest-needed-first), simultaneous needs broken towards the
heavier subtask (longest path from the subtask to the end of the graph,
the metric the paper uses for the critical-subtask selection and the
initialization phase).  This is the natural list-scheduling order for a
single reconfiguration port.

The dominant cost is the sort of the loads, i.e. ``O(N log N)`` in the
number of loads — matching the complexity the paper reports for ref. [7].
"""

from __future__ import annotations

import math
from typing import Tuple

from .base import PrefetchProblem, PrefetchResult, PrefetchScheduler, SchedulerStats
from .evaluator import replay_schedule


class ListPrefetchScheduler(PrefetchScheduler):
    """List-scheduling prefetch heuristic: earliest-needed load first."""

    name = "run-time-list"

    def load_order(self, problem: PrefetchProblem) -> Tuple[str, ...]:
        """The priority order of the loads for ``problem``.

        Earliest-needed-first, simultaneous needs broken towards the
        heavier (more critical) subtask, as in the paper: ``(ideal start,
        -weight, name)``.  It is the schedule's static order, filtered by
        ``problem.reused``.
        """
        reused = problem.reused
        return tuple(name for name in problem.placed.core.by_start_weight
                     if name not in reused)

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
