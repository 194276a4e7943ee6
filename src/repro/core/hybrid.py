"""Hybrid design-time / run-time prefetch heuristic (the paper's contribution).

The heuristic splits the configuration-prefetch scheduling effort:

* :meth:`HybridPrefetchHeuristic.design_time` runs once per (task, scenario,
  Pareto point): it identifies the Critical Subtask subset with the
  Figure-4 loop and stores the zero-overhead design-time schedule of the
  non-critical loads (see :mod:`repro.core.critical` and
  :mod:`repro.core.store`).

* :meth:`HybridPrefetchHeuristic.run_time` runs for every task execution:
  it asks the reuse module which configurations are resident, loads the
  missing critical subtasks during the initialization phase (design-time
  fixed order, heaviest first), cancels the design-time loads of reusable
  non-critical subtasks, and then simply executes the stored design-time
  schedule.  The only run-time computation is a set-membership check per
  DRHW subtask.

The heavyweight work (branch-and-bound prefetch scheduling, critical-subtask
selection) happens exclusively in :meth:`design_time`, which reproduces the
paper's headline claim: run-time flexibility with a negligible run-time
scheduling penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..scheduling.base import PrefetchScheduler
from ..scheduling.evaluator import replay_schedule
from ..scheduling.pool import SchedulerPool
from ..scheduling.prefetch_bb import OptimalPrefetchScheduler
from ..scheduling.schedule import LoadEntry, PlacedSchedule, TimedSchedule
from .critical import CriticalSubtaskSelector
from .runtime_phase import RuntimeDecision, run_time_phase
from .store import DesignTimeEntry, DesignTimeStore


@dataclass(frozen=True)
class HybridExecution:
    """Timed outcome of executing one task with the hybrid heuristic."""

    entry: DesignTimeEntry
    decision: RuntimeDecision
    initialization_loads: Tuple[LoadEntry, ...]
    timed: TimedSchedule
    release_time: float

    @property
    def initialization_end(self) -> float:
        """Absolute time the initialization phase completes."""
        if not self.initialization_loads:
            return self.release_time
        return max(load.finish for load in self.initialization_loads)

    @property
    def initialization_duration(self) -> float:
        """Time spent in the initialization phase (the visible overhead)."""
        return max(0.0, self.initialization_end - self.release_time)

    @property
    def makespan(self) -> float:
        """Absolute completion time of the task."""
        return self.timed.makespan

    @property
    def span(self) -> float:
        """Task execution time measured from its release."""
        return self.makespan - self.release_time

    @property
    def ideal_makespan(self) -> float:
        """Makespan of the reconfiguration-free schedule."""
        return self.entry.ideal_makespan

    @property
    def overhead(self) -> float:
        """Reconfiguration overhead added to the ideal execution time."""
        return max(0.0, self.span - self.ideal_makespan)

    @property
    def overhead_percent(self) -> float:
        """Overhead as a percentage of the ideal execution time."""
        if self.ideal_makespan <= 0:
            return 0.0
        return 100.0 * self.overhead / self.ideal_makespan

    @property
    def load_count(self) -> int:
        """Total number of loads performed (initialization + design-time)."""
        return len(self.initialization_loads) + self.timed.load_count

    @property
    def all_loads(self) -> Tuple[LoadEntry, ...]:
        """Every load of this execution in chronological order."""
        return tuple(sorted(self.initialization_loads + self.timed.loads,
                            key=lambda load: load.start))

    @property
    def controller_free(self) -> float:
        """Time from which the reconfiguration port is idle again."""
        loads = self.all_loads
        if not loads:
            return self.release_time
        return max(load.finish for load in loads)

    @property
    def idle_tail(self) -> float:
        """Idle window of the reconfiguration port before the task finishes."""
        return max(0.0, self.makespan - max(self.controller_free,
                                            self.release_time))

    @property
    def runtime_operations(self) -> int:
        """Run-time scheduling operations (the hybrid heuristic's penalty)."""
        return self.decision.operations


class HybridPrefetchHeuristic:
    """Facade bundling the design-time and run-time phases.

    The design-time phase repeatedly solves ``with_reused`` variants of
    the *same* prefetch problem (the Figure-4 critical-selection loop
    grows the reused set one subtask at a time), so the default design
    engine routes its exact searches through a
    :class:`~repro.scheduling.pool.SchedulerPool`: every variant after the
    first starts from a warm transposition table.  ``scheduler_pool``
    shares a caller-owned pool (e.g. one per design-time exploration or
    per sweep worker) instead of a private one; passing an explicit
    ``design_scheduler`` takes precedence and is used as-is.  Warm engines
    return bit-identical schedules to cold ones, so this is purely a
    design-time wall-clock optimization.
    """

    name = "hybrid"

    def __init__(self, reconfiguration_latency: float,
                 design_scheduler: Optional[PrefetchScheduler] = None,
                 scheduler_pool: Optional[SchedulerPool] = None) -> None:
        if reconfiguration_latency < 0:
            raise SchedulingError(
                "reconfiguration latency must be non-negative, got "
                f"{reconfiguration_latency}"
            )
        self.reconfiguration_latency = reconfiguration_latency
        if design_scheduler is None:
            if scheduler_pool is None:
                scheduler_pool = SchedulerPool()
            self.scheduler_pool = scheduler_pool
            design_scheduler = OptimalPrefetchScheduler(
                pool=self.scheduler_pool
            )
        else:
            self.scheduler_pool = scheduler_pool
        self.design_scheduler = design_scheduler
        self._selector = CriticalSubtaskSelector(scheduler=self.design_scheduler)

    # ------------------------------------------------------------------ #
    # Design-time phase
    # ------------------------------------------------------------------ #
    def design_time(self, placed: PlacedSchedule, task_name: str,
                    scenario_name: str = "default",
                    point_key: str = "default") -> DesignTimeEntry:
        """Run the design-time phase for one scheduled scenario."""
        critical = self._selector.select(placed, self.reconfiguration_latency)
        return DesignTimeEntry(
            task_name=task_name,
            scenario_name=scenario_name,
            point_key=point_key,
            placed=placed,
            critical=critical,
            reconfiguration_latency=self.reconfiguration_latency,
        )

    def build_store(self, schedules: Iterable[Tuple[str, str, str, PlacedSchedule]]
                    ) -> DesignTimeStore:
        """Run the design-time phase for every (task, scenario, point, schedule)."""
        store = DesignTimeStore()
        for task_name, scenario_name, point_key, placed in schedules:
            store.add(self.design_time(placed, task_name, scenario_name,
                                       point_key))
        return store

    # ------------------------------------------------------------------ #
    # Run-time phase
    # ------------------------------------------------------------------ #
    def run_time(self, entry: DesignTimeEntry, reusable: Iterable[str],
                 release_time: float = 0.0,
                 controller_available: Optional[float] = None
                 ) -> HybridExecution:
        """Execute one task instance with the hybrid heuristic.

        Parameters
        ----------
        entry:
            Design-time entry of the scenario selected by the run-time
            scheduler.
        reusable:
            Subtasks whose configuration the reuse module found resident
            (either left over from previous executions or prefetched by the
            inter-task optimization).
        release_time:
            Absolute time the task is released.
        controller_available:
            Absolute time from which the reconfiguration port may serve this
            task (it may still be finishing inter-task prefetch loads).
        """
        decision = run_time_phase(entry, reusable)
        placed = entry.placed
        core = placed.core
        latency = entry.reconfiguration_latency

        controller = max(release_time,
                         controller_available if controller_available is not None
                         else release_time)
        initialization: List[LoadEntry] = []
        for name in decision.initialization_loads:
            sid = core.index[name]
            finish = controller + latency
            initialization.append(LoadEntry(
                subtask=name,
                configuration=core.configuration[sid],
                resource=core.resources[core.resource_of[sid]],
                start=controller,
                finish=finish,
            ))
            controller = finish

        # The stored design-time schedule only starts once the initialization
        # phase has completed; when no critical subtask needs loading the
        # task starts right at its release — a busy reconfiguration port only
        # delays the remaining loads, never the computation itself.
        if initialization:
            design_release = max(release_time, initialization[-1].finish)
        else:
            design_release = release_time
        timed = replay_schedule(
            placed,
            latency,
            decision.performed_loads,
            priority_order=decision.performed_loads,
            release_time=design_release,
            controller_available=controller,
        )
        return HybridExecution(
            entry=entry,
            decision=decision,
            initialization_loads=tuple(initialization),
            timed=timed,
            release_time=release_time,
        )

    def estimate_overhead(self, entry: DesignTimeEntry,
                          reusable: Iterable[str]) -> float:
        """Closed-form overhead estimate: missing critical loads only.

        By the definition of the CS subset the design-time schedule adds no
        overhead, so the only visible overhead is the initialization phase:
        one reconfiguration latency per critical subtask that cannot be
        reused.
        """
        reusable_set = set(reusable)
        missing = [name for name in entry.critical_subtasks
                   if name not in reusable_set]
        return len(missing) * entry.reconfiguration_latency
