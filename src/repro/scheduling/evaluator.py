"""Schedule replay with reconfiguration loads.

:func:`replay_schedule` is the timing engine every prefetch scheduler and
the system simulator build on.  Given a placed (reconfiguration-free)
schedule, the set of subtasks whose configurations must actually be loaded
and a load priority order, it replays the execution on the platform model:

* every DRHW tile executes its subtasks in the order of the placed schedule;
* a subtask starts once its predecessors have finished, its resource is
  free and (when it needs one) its configuration load has completed;
* the single reconfiguration port performs at most one load at a time; a
  load for a subtask may start as soon as the previous subtask on its tile
  has finished (the tile is then reconfigurable), or — in the *on-demand*
  mode used by the no-prefetch baseline — only once the subtask is otherwise
  ready to run;
* whenever the port is free, the highest-priority enabled load is issued
  (greedy list dispatch).

The function returns a :class:`~repro.scheduling.schedule.TimedSchedule`,
a view over the kernel's columns: every load and execution with the
binding constraint of every start time, which the critical-subtask
selection uses to find the subtasks "that generate delays".  The
simulator's per-task path reads the columns by subtask id; the entries
are built only when something reads them.

Since the introduction of the incremental replay kernel this is a thin
wrapper over :class:`repro.scheduling.replay.ReplayState`: the state is
driven to completion with the greedy dispatcher in place, so every caller
of this function — the list heuristics, the no-prefetch baseline, the
hybrid run-time phase and the simulator — shares one timing engine with
the stateful branch-and-bound search and with the noise realization
(:func:`repro.sim.noise.realize_task`), which replays committed load
orders on the same kernel.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .replay import ReplayState
from .schedule import PlacedSchedule, TimedSchedule


def replay_schedule(placed: PlacedSchedule,
                    reconfiguration_latency: float,
                    loads_needed: Iterable[str],
                    priority_order: Optional[Sequence[str]] = None,
                    *,
                    on_demand: bool = False,
                    release_time: float = 0.0,
                    controller_available: Optional[float] = None
                    ) -> TimedSchedule:
    """Replay ``placed`` accounting for the configuration loads.

    Parameters
    ----------
    placed:
        The initial schedule that neglects reconfiguration.
    reconfiguration_latency:
        Time one load occupies the reconfiguration port.
    loads_needed:
        Names of the subtasks whose configuration must be loaded (DRHW
        subtasks that cannot be reused).  ISP subtasks in this collection
        are ignored.
    priority_order:
        Preferred issue order of the loads; whenever the reconfiguration
        port is free, the enabled load appearing earliest in this sequence
        is issued.  Loads missing from the sequence are ordered after it by
        ideal start time.
    on_demand:
        When true, a load may only start once its subtask is otherwise ready
        to execute (all predecessors finished and the tile free).  This is
        the no-prefetch baseline; the default allows prefetching a load as
        soon as the target tile becomes reconfigurable.
    release_time:
        Absolute time the task is released; nothing (load or execution)
        happens before it.
    controller_available:
        Absolute time from which the reconfiguration port is available
        (e.g. because it is still finishing loads of the previous task).
        Defaults to ``release_time``.
    """
    state = ReplayState.start(
        placed,
        reconfiguration_latency,
        loads_needed,
        on_demand=on_demand,
        release_time=release_time,
        controller_available=controller_available,
    )
    return state.run_order(priority_order).finish()


def needed_loads(placed: PlacedSchedule,
                 reused: Iterable[str] = ()) -> List[str]:
    """DRHW subtasks of ``placed`` that must be loaded given ``reused``.

    ``reused`` lists the subtasks whose configuration is already resident on
    the tile they are placed on; every other DRHW subtask needs a load.
    The result is ordered by ideal start time (ties by name) for
    reproducibility: the schedule's static order, filtered.
    """
    reused_set = frozenset(reused)
    return [name for name in placed.core.by_start if name not in reused_set]
