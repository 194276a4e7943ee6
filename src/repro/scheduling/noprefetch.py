"""No-prefetch baseline scheduler.

This scheduler models a system without any configuration-prefetch support:
a subtask's configuration load is only requested when the subtask is
otherwise ready to execute (all predecessors finished and its tile free),
so every non-reused load directly delays the execution it precedes.  This
is the first simulation of Section 7 ("The first one did not include any
prefetch module"), which exhibits the full reconfiguration overhead the
other techniques then try to hide.
"""

from __future__ import annotations

from .base import PrefetchProblem, PrefetchResult, PrefetchScheduler, SchedulerStats
from .evaluator import replay_schedule


class OnDemandScheduler(PrefetchScheduler):
    """Loads are issued on demand, exactly when the subtask needs them."""

    name = "no-prefetch"

    def schedule(self, problem: PrefetchProblem) -> PrefetchResult:
        # Requests are served in readiness order; simultaneous requests are
        # served most-urgent (heaviest subtask) first, which is what a
        # priority-aware loader without prefetching would do.
        reused = problem.reused
        loads = tuple(name for name in problem.placed.core.by_start_weight
                      if name not in reused)
        timed = replay_schedule(
            problem.placed,
            problem.reconfiguration_latency,
            loads,
            priority_order=loads,
            on_demand=True,
            release_time=problem.release_time,
            controller_available=problem.controller_available,
        )
        # The "scheduling" work of the baseline is a single pass over the
        # loads to queue them in readiness order.
        stats = SchedulerStats(operations=len(loads), evaluations=1)
        return PrefetchResult(problem=problem, timed=timed, load_order=loads,
                              stats=stats, scheduler_name=self.name)
