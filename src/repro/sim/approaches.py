"""Scheduling approaches compared by the paper's evaluation.

Section 7 simulates the same workloads under five prefetch-scheduling
approaches; each is implemented here behind the common
:class:`SchedulingApproach` interface so the system simulator can swap them:

``no-prefetch``
    No prefetch module at all: every non-reused configuration is loaded on
    demand, right before the subtask that needs it.
``design-time``
    An optimal prefetch schedule computed entirely at design-time.  Because
    nothing is known about the run-time state, previously loaded
    configurations can never be reused: every DRHW subtask is loaded on
    every execution, but the loads are overlapped as well as possible.
``run-time``
    The fully run-time list-scheduling heuristic of ref. [7] combined with
    the reuse and replacement modules: loads of resident configurations are
    skipped and the rest are scheduled at run-time (``O(N log N)`` work per
    task).
``run-time+inter-task``
    The run-time heuristic extended with the inter-task optimization of
    Section 6: the idle tail of the reconfiguration port is used to prefetch
    configurations of the next task in the run-time schedule.
``hybrid``
    The paper's contribution: critical subtasks and the schedule of the
    remaining loads are fixed at design-time; at run-time only the missing
    critical subtasks are loaded (initialization phase), reusable
    non-critical loads are cancelled, and the idle tail prefetches the next
    task's critical subtasks.
``adaptive``
    The run-time heuristic with a feedback-controlled inter-task prefetch
    depth: a PI controller (:mod:`repro.sim.noise` documents the
    kp/ki/headroom knobs) widens or narrows how many upcoming
    configurations are prefetched based on the realized stall and waste of
    a lookback window of task executions — the approach built to survive
    the stochastic perturbation layer.

One pipeline, pluggable policies
--------------------------------
The approaches differ only in policy.  :meth:`SchedulingApproach.execute_task`
is the one execute pipeline: for every approach it applies the task to the
shared :class:`~repro.sim.state.SystemState`, computes when the
reconfiguration port is free again, asks for the inter-task plan and builds
the :class:`~repro.sim.metrics.TaskExecutionRecord` and the
:class:`~repro.sim.noise.TaskPlan` the perturbation layer re-times under
noise.  Each approach supplies two hooks:
:meth:`~SchedulingApproach.schedule_task` returns this task's
:class:`TaskSchedule` (reuse analysis and load schedule), and
:meth:`~SchedulingApproach.prefetch_next` returns the inter-task plan for
the following task, or ``None``.  :meth:`SchedulingApproach.observe` feeds
the realized records back (the adaptive controller's input, a no-op for
the paper's five approaches).
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Tuple)

from ..core.hybrid import HybridPrefetchHeuristic
from ..core.intertask import (
    InterTaskPlan,
    PrefetchRequest,
    TileWindow,
    plan_intertask_prefetch,
)
from ..core.store import DesignTimeStore
from ..errors import ConfigurationError
from ..reuse.reuse import ReuseDecision, ReuseModule
from ..scheduling.base import PrefetchProblem, PrefetchScheduler
from ..scheduling.evaluator import replay_schedule
from ..scheduling.noprefetch import OnDemandScheduler
from ..scheduling.pool import SchedulerPool
from ..scheduling.prefetch_bb import OptimalPrefetchScheduler
from ..scheduling.prefetch_list import ListPrefetchScheduler
from ..scheduling.schedule import LoadEntry, PlacedSchedule, TimedSchedule
from ..tcm.design_time import TcmDesignTimeResult
from ..tcm.run_time import ScheduledTask
from .metrics import TaskExecutionRecord
from .noise import TaskPlan
from .state import SystemState


@dataclass
class TaskContext:
    """Everything an approach needs to execute one task instance."""

    scheduled: ScheduledTask
    release_time: float
    state: SystemState
    reuse_module: ReuseModule
    reconfiguration_latency: float
    next_scheduled: Optional[ScheduledTask] = None
    #: True when ``next_scheduled`` belongs to the next iteration of the
    #: application mix (only run-time decided optimizations may use it; a
    #: purely design-time schedule does not know which mix follows).
    next_crosses_iteration: bool = False

    @property
    def placed(self) -> PlacedSchedule:
        """Placed schedule of the selected Pareto point."""
        return self.scheduled.point.placed


@dataclass(frozen=True)
class TaskSchedule:
    """One approach's policy decisions for one task execution.

    ``decision`` binds the logical tiles, and its ``reused`` set is what
    the record counts as reused; ``reused`` holds the subtasks that skip
    their load when the task is applied to the platform state; ``timed``
    is the task's replay, read by subtask id; ``initialization`` holds
    the hybrid's initialization loads, issued before the loads of
    ``timed``; ``on_demand`` marks loads that wait until their subtask is
    otherwise ready (the no-prefetch baseline).
    """

    placed: PlacedSchedule
    decision: ReuseDecision
    reused: FrozenSet[str]
    timed: TimedSchedule
    initialization: Tuple[LoadEntry, ...] = ()
    scheduler_operations: int = 0
    loads_cancelled: int = 0
    on_demand: bool = False

    @property
    def makespan(self) -> float:
        """Absolute completion time of the task."""
        return self.timed.makespan

    def tile_availability(self, ctx: TaskContext) -> Dict[int, float]:
        """When every physical tile may take an inter-task load.

        A tile the task uses is free once its last subtask finishes; any
        other tile once it is idle, but not before the task's release.
        """
        finishes = self.timed.columns.finishes
        tile_last = self.placed.core.tile_last
        releases: Dict[int, float] = {}
        for logical, physical in self.decision.tile_binding.items():
            last = tile_last.get(logical)
            if last is not None:
                releases[physical] = finishes[last]
        return {tile.index: releases.get(
                    tile.index, max(ctx.release_time, tile.busy_until))
                for tile in ctx.state.tiles}


@dataclass(frozen=True)
class TaskOutcome:
    """Result of executing one task instance.

    ``plan`` carries the planned execution (placement, loads, inter-task
    prefetches) for the stochastic perturbation layer.
    """

    record: TaskExecutionRecord
    finish_time: float
    controller_free: float
    plan: TaskPlan


class SchedulingApproach(abc.ABC):
    """Interface of a prefetch-scheduling approach usable by the simulator."""

    #: Name used in experiment tables (matches the paper's terminology).
    name: str = "approach"
    #: Whether the approach prefetches for the next task in the sequence.
    uses_intertask: bool = False
    #: Warm branch-and-bound engine pool bound by the execution driver
    #: (``run_group`` binds one per worker process); ``None`` keeps each
    #: approach on its private engines.  Approaches without an exact
    #: design engine simply ignore it.
    scheduler_pool: Optional[SchedulerPool] = None

    def bind_scheduler_pool(self, pool: Optional[SchedulerPool]) -> None:
        """Share ``pool``'s warm engines for this approach's exact searches.

        Must be called before :meth:`prepare`; warm engines return
        bit-identical schedules, so binding (or not) never changes any
        simulation result — only the design-time search effort.
        """
        self.scheduler_pool = pool

    def prepare(self, design_result: TcmDesignTimeResult,
                reconfiguration_latency: float) -> None:
        """Perform the approach's design-time work (default: nothing)."""

    @abc.abstractmethod
    def schedule_task(self, ctx: TaskContext) -> TaskSchedule:
        """Policy hook: reuse analysis and load schedule of this task."""

    def prefetch_next(self, ctx: TaskContext, schedule: TaskSchedule,
                      controller_free: float) -> Optional[InterTaskPlan]:
        """Policy hook: inter-task prefetch loads for ``ctx.next_scheduled``.

        Called only when another task follows, after ``schedule`` was
        applied to the platform state; ``controller_free`` is when the
        port finishes this task's loads.  The default prefetches nothing.
        """
        return None

    def execute_task(self, ctx: TaskContext) -> TaskOutcome:
        """Execute one task instance and update the shared platform state."""
        schedule = self.schedule_task(ctx)
        placed = schedule.placed
        timed = schedule.timed
        columns = timed.columns
        decision = schedule.decision
        names = placed.core.names
        # Every load's completion by name, in port order.
        load_finish = {entry.subtask: entry.finish
                       for entry in schedule.initialization}
        for lid, finish in zip(columns.load_ids, columns.load_finishes):
            load_finish[names[lid]] = finish
        ctx.state.apply_task_execution(placed, decision.tile_binding,
                                       schedule.reused, timed, load_finish)
        controller_free = max(ctx.state.controller_free,
                              max(load_finish.values(),
                                  default=ctx.release_time))
        intertask = (self.prefetch_next(ctx, schedule, controller_free)
                     if ctx.next_scheduled is not None else None)
        intertask_loads = intertask.loads if intertask is not None else ()
        for load in intertask_loads:
            ctx.state.record_load(load.tile, load.configuration, load.finish)
        if intertask is not None:
            controller_free = max(controller_free, intertask.controller_free)
        record = TaskExecutionRecord(
            task_name=ctx.scheduled.task_name,
            scenario_name=ctx.scheduled.scenario_name,
            point_key=ctx.scheduled.point_key,
            release_time=ctx.release_time,
            finish_time=timed.makespan,
            ideal_makespan=placed.makespan,
            overhead=max(0.0, timed.makespan - ctx.release_time
                         - placed.makespan),
            loads_performed=len(load_finish),
            loads_reused=len(decision.reused),
            loads_cancelled=schedule.loads_cancelled,
            initialization_loads=len(schedule.initialization),
            intertask_prefetches=len(intertask_loads),
            scheduler_operations=schedule.scheduler_operations,
            reuse_operations=decision.operations,
            energy=ctx.state.platform.energy.task_energy(
                loads=len(load_finish),
                busy_time=placed.core.total_execution_time,
            ),
        )
        plan = TaskPlan(
            placed=placed,
            tile_binding=dict(decision.tile_binding),
            reused=schedule.reused,
            timed=timed,
            initialization=schedule.initialization,
            intertask_loads=intertask_loads,
            on_demand=schedule.on_demand,
        )
        return TaskOutcome(record=record, finish_time=timed.makespan,
                           controller_free=controller_free, plan=plan)

    def observe(self, record: TaskExecutionRecord) -> None:
        """Feedback hook: the *realized* record of a finished task.

        Called by the simulator after every task execution — with the
        realized record under the perturbation layer, the planned one
        otherwise.  The default is a no-op; feedback-controlled approaches
        (``adaptive``) use it to drive their controllers.
        """

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _schedule_with(scheduler: PrefetchScheduler, ctx: TaskContext,
                       decision: ReuseDecision,
                       on_demand: bool = False) -> TaskSchedule:
        """Let ``scheduler`` place the loads ``decision`` does not reuse."""
        result = scheduler.schedule(PrefetchProblem(
            placed=ctx.placed,
            reconfiguration_latency=ctx.reconfiguration_latency,
            reused=decision.reused,
            release_time=ctx.release_time,
            controller_available=ctx.state.controller_free,
        ))
        return TaskSchedule(
            placed=ctx.placed,
            decision=decision,
            reused=decision.reused,
            timed=result.timed,
            scheduler_operations=result.stats.operations,
            on_demand=on_demand,
        )

    def _plan_intertask(self, ctx: TaskContext, schedule: TaskSchedule,
                        requests: Sequence[PrefetchRequest],
                        controller_free: float,
                        avoid_configurations: Iterable[str] = ()
                        ) -> InterTaskPlan:
        """Plan inter-task prefetch loads into the idle tail of ``schedule``.

        Tiles already holding a requested configuration are never offered
        (overwriting them would destroy the very reuse the prefetch is
        after).  Tiles holding an ``avoid_configurations`` member (e.g. a
        critical configuration of some other task) are only offered when
        fewer unencumbered tiles exist than requests left to load.
        """
        requested = {request.configuration for request in requests}
        resident = {tile.configuration for tile in ctx.state.tiles
                    if tile.configuration is not None}
        pending = [request for request in requests
                   if request.configuration not in resident]
        avoid = set(avoid_configurations)
        available = schedule.tile_availability(ctx)
        windows: List[TileWindow] = []
        fallback: List[TileWindow] = []
        for tile in ctx.state.tiles:
            held = tile.configuration
            if held is not None and held in requested:
                continue
            window = TileWindow(tile=tile.index,
                                available_from=available[tile.index],
                                resident_configuration=held)
            if held is not None and held in avoid:
                fallback.append(window)
            else:
                windows.append(window)
        if len(windows) < len(pending):
            windows += fallback
        return plan_intertask_prefetch(
            requests=pending,
            tiles=windows,
            controller_free=controller_free,
            task_finish=schedule.makespan,
            reconfiguration_latency=ctx.reconfiguration_latency,
            allow_overrun=False,
        )


def _point_key(scheduled: ScheduledTask) -> Tuple[str, str, str]:
    """(task, scenario, Pareto point) identity of a scheduled task."""
    return (scheduled.task_name, scheduled.scenario_name,
            scheduled.point_key)


def _requests(placed: PlacedSchedule,
              subtasks: Sequence[str]) -> Tuple[PrefetchRequest, ...]:
    """Inter-task prefetch requests for ``subtasks`` of ``placed``, in order.

    The orders asked for are static (a load order, a critical subset), so
    each is built once and kept on the schedule's core."""
    core = placed.core
    key = tuple(subtasks)
    requests = core.requests.get(key)
    if requests is None:
        index, configuration = core.index, core.configuration
        requests = core.requests[key] = tuple(
            PrefetchRequest(subtask=name,
                            configuration=configuration[index[name]])
            for name in key)
    return requests


# ---------------------------------------------------------------------- #
# Baselines
# ---------------------------------------------------------------------- #
class NoPrefetchApproach(SchedulingApproach):
    """On-demand loading without any prefetch module (first baseline)."""

    name = "no-prefetch"

    def __init__(self) -> None:
        self._scheduler = OnDemandScheduler()

    def schedule_task(self, ctx: TaskContext) -> TaskSchedule:
        decision = ctx.reuse_module.analyze(ctx.placed, ctx.state.tiles,
                                            now=ctx.release_time)
        return self._schedule_with(self._scheduler, ctx, decision,
                                   on_demand=True)


class DesignTimePrefetchApproach(SchedulingApproach):
    """Optimal prefetch decided entirely at design-time (second baseline).

    The prefetch order of every scenario/point is computed during
    :meth:`prepare`; at run-time it is replayed as-is.  Because the
    decisions were frozen at design-time, reuse is impossible: every DRHW
    subtask is loaded on every execution.

    ``static_intertask`` extends the design-time schedule across task
    boundaries: when the task sequence itself is known at design-time (as it
    is for the Pocket GL inter-task scenarios of Figure 7), loads of the
    next task may be scheduled into the idle tail of the current one.  This
    still involves no run-time decision and no reuse; it merely widens the
    window the static prefetch schedule can use.  The multimedia mix of
    Figure 6 draws its task sequence randomly at run-time, so there the flag
    stays off.
    """

    name = "design-time"

    def __init__(self, static_intertask: bool = False) -> None:
        self._orders: Dict[Tuple[str, str, str], Tuple[str, ...]] = {}
        self._scheduler = OptimalPrefetchScheduler()
        self.uses_intertask = static_intertask
        self._pending_prefetched: Dict[Tuple[str, str, str], frozenset] = {}

    def prepare(self, design_result: TcmDesignTimeResult,
                reconfiguration_latency: float) -> None:
        self._orders.clear()
        self._pending_prefetched.clear()
        # Re-preparing against the same exploration (every sweep point of a
        # group does) re-solves the same placed schedules: route the exact
        # searches through the bound worker pool — or, failing that, the
        # exploration's own pool — so later points start warm.
        self._scheduler.pool = (self.scheduler_pool
                                if self.scheduler_pool is not None
                                else design_result.scheduler_pool)
        for task_name, scenario_name, point_key, placed in design_result.schedules():
            result = self._scheduler.schedule(PrefetchProblem(
                placed=placed,
                reconfiguration_latency=reconfiguration_latency,
            ))
            self._orders[(task_name, scenario_name, point_key)] = (
                result.load_order
            )

    def schedule_task(self, ctx: TaskContext) -> TaskSchedule:
        placed = ctx.placed
        key = _point_key(ctx.scheduled)
        try:
            order = self._orders[key]
        except KeyError as exc:
            raise ConfigurationError(
                f"design-time prefetch approach was not prepared for {key}"
            ) from exc
        prefetched = self._pending_prefetched.pop(key, frozenset())
        if prefetched:
            # Tolerate stale static plans: a prefetch recorded last task may
            # have been abandoned or faulted away under the perturbation
            # layer, so only configurations actually resident count —
            # anything else falls back to an on-demand load.  In the
            # noise-free world every claimed configuration is resident and
            # this filter is the identity.
            resident = {tile.configuration for tile in ctx.state.tiles
                        if tile.configuration is not None}
            graph = placed.graph
            prefetched = frozenset(
                name for name in prefetched
                if graph.subtask(name).configuration in resident
            )
        decision = ctx.reuse_module.analyze(placed, ctx.state.tiles,
                                            now=ctx.release_time)
        timed = replay_schedule(
            placed,
            ctx.reconfiguration_latency,
            [name for name in placed.drhw_names if name not in prefetched],
            priority_order=order,
            release_time=ctx.release_time,
            controller_available=ctx.state.controller_free,
        )
        return TaskSchedule(
            placed=placed,
            # Frozen design-time decisions never exploit resident
            # configurations: the reuse analysis only binds the tiles.
            decision=ReuseDecision(decision.tile_binding, frozenset(),
                                   decision.operations, decision.drhw_tiles),
            reused=prefetched,
            timed=timed,
        )

    def prefetch_next(self, ctx: TaskContext, schedule: TaskSchedule,
                      controller_free: float) -> Optional[InterTaskPlan]:
        """Schedule loads of the next task into the current idle tail.

        The static plan knows no tile contents, so every tile is offered
        as a blank window once the current task releases it.
        """
        if not self.uses_intertask or ctx.next_crosses_iteration:
            return None
        next_key = _point_key(ctx.next_scheduled)
        next_order = self._orders.get(next_key)
        if not next_order:
            return None
        windows = [TileWindow(tile=tile, available_from=available,
                              resident_configuration=None)
                   for tile, available
                   in schedule.tile_availability(ctx).items()]
        plan = plan_intertask_prefetch(
            requests=_requests(ctx.next_scheduled.point.placed, next_order),
            tiles=windows,
            controller_free=controller_free,
            task_finish=schedule.makespan,
            reconfiguration_latency=ctx.reconfiguration_latency,
            allow_overrun=False,
        )
        self._pending_prefetched[next_key] = frozenset(plan.prefetched_subtasks)
        return plan


# ---------------------------------------------------------------------- #
# Run-time heuristic of ref. [7]
# ---------------------------------------------------------------------- #
class RunTimeApproach(SchedulingApproach):
    """Fully run-time list-scheduling prefetch with reuse (ref. [7])."""

    name = "run-time"

    def __init__(self) -> None:
        self._scheduler = ListPrefetchScheduler()

    def schedule_task(self, ctx: TaskContext) -> TaskSchedule:
        # The next task's configurations are protected from eviction.
        next_task = ctx.next_scheduled
        upcoming = (next_task.point.placed.core.configurations
                    if next_task is not None else ())
        decision = ctx.reuse_module.analyze(
            ctx.placed, ctx.state.tiles, now=ctx.release_time,
            upcoming_configurations=upcoming,
        )
        return self._schedule_with(self._scheduler, ctx, decision)

    def prefetch_next(self, ctx: TaskContext, schedule: TaskSchedule,
                      controller_free: float) -> Optional[InterTaskPlan]:
        if not self.uses_intertask:
            return None
        return self._plan_intertask(ctx, schedule,
                                    self._next_task_requests(ctx),
                                    controller_free)

    def _next_task_requests(self, ctx: TaskContext
                            ) -> Sequence[PrefetchRequest]:
        """Loads of the next task, in the run-time heuristic's priority order."""
        next_placed = ctx.next_scheduled.point.placed
        order = self._scheduler.load_order(PrefetchProblem(
            placed=next_placed,
            reconfiguration_latency=ctx.reconfiguration_latency,
        ))
        return _requests(next_placed, order)


class RunTimeInterTaskApproach(RunTimeApproach):
    """Run-time heuristic plus the inter-task optimization of Section 6."""

    name = "run-time+inter-task"
    uses_intertask = True


class AdaptivePrefetchApproach(RunTimeApproach):
    """Run-time heuristic with a PI-controlled inter-task prefetch depth.

    The static approaches prefetch a fixed amount of upcoming work no
    matter what the platform does; under the stochastic perturbation layer
    that is exactly wrong — failed and abandoned prefetches are wasted
    port time, while uncovered stalls are wasted compute time.  This
    approach closes the loop in the ``PIPrefetcher`` idiom: after every
    task the simulator feeds the *realized* record into :meth:`observe`,
    which computes an error sample (stall above the setpoint pushes the
    prefetch depth up, waste pushes it down) and applies a PI update

    ``depth += max_depth * (kp * error + ki * sum(window))``

    clamped to ``[headroom, max_depth]``.  The next task's inter-task
    prefetch requests are truncated to the controlled depth.  See
    :mod:`repro.sim.noise` for the knob semantics; everything is
    deterministic, so the seed-reproducibility contract holds.
    """

    name = "adaptive"
    uses_intertask = True

    def __init__(self, kp: float = 0.6, ki: float = 0.15, headroom: int = 1,
                 max_depth: int = 8, lookback: int = 12,
                 target_overhead: float = 0.05,
                 waste_weight: float = 0.5) -> None:
        super().__init__()
        if kp < 0.0 or ki < 0.0:
            raise ConfigurationError("controller gains must be >= 0")
        if headroom < 0:
            raise ConfigurationError("headroom must be >= 0")
        if max_depth < max(1, headroom):
            raise ConfigurationError(
                "max_depth must be >= 1 and >= headroom"
            )
        if lookback < 1:
            raise ConfigurationError("lookback must be >= 1")
        if target_overhead < 0.0 or waste_weight < 0.0:
            raise ConfigurationError(
                "target_overhead and waste_weight must be >= 0"
            )
        self.kp = kp
        self.ki = ki
        self.headroom = headroom
        self.max_depth = max_depth
        self.lookback = lookback
        self.target_overhead = target_overhead
        self.waste_weight = waste_weight
        self._errors: deque = deque(maxlen=lookback)
        self._depth = float(max_depth)

    @property
    def depth(self) -> int:
        """Current prefetch depth (how many upcoming loads to request)."""
        return int(round(self._depth))

    def prepare(self, design_result: TcmDesignTimeResult,
                reconfiguration_latency: float) -> None:
        # A fresh simulation run resets the controller: feedback from one
        # run must never leak into another (seed determinism).
        self._errors.clear()
        self._depth = float(self.max_depth)

    def observe(self, record: TaskExecutionRecord) -> None:
        ideal = record.ideal_makespan
        stall = record.overhead / ideal if ideal > 0.0 else 0.0
        issued = record.loads_performed + record.intertask_prefetches
        waste = (record.prefetches_abandoned + 0.5 * record.loads_retried)
        waste_norm = waste / max(1.0, float(issued))
        error = (stall - self.target_overhead
                 - self.waste_weight * waste_norm)
        self._errors.append(error)
        update = self.kp * error + self.ki * sum(self._errors)
        depth = self._depth + update * self.max_depth
        self._depth = min(float(self.max_depth),
                          max(float(self.headroom), depth))

    def _next_task_requests(self, ctx: TaskContext
                            ) -> Sequence[PrefetchRequest]:
        requests = super()._next_task_requests(ctx)
        return requests[:self.depth]


# ---------------------------------------------------------------------- #
# The hybrid heuristic (the paper's contribution)
# ---------------------------------------------------------------------- #
class HybridApproach(SchedulingApproach):
    """Hybrid design-time/run-time prefetch heuristic with inter-task support."""

    name = "hybrid"

    def __init__(self, use_intertask: bool = True) -> None:
        self.uses_intertask = use_intertask
        self._heuristic: Optional[HybridPrefetchHeuristic] = None
        self._store: Optional[DesignTimeStore] = None
        self._critical_configurations: frozenset = frozenset()

    @property
    def store(self) -> DesignTimeStore:
        """The design-time store built by :meth:`prepare`."""
        if self._store is None:
            raise ConfigurationError(
                "hybrid approach used before prepare() was called"
            )
        return self._store

    def prepare(self, design_result: TcmDesignTimeResult,
                reconfiguration_latency: float) -> None:
        pool = (self.scheduler_pool if self.scheduler_pool is not None
                else design_result.scheduler_pool)
        self._heuristic = HybridPrefetchHeuristic(reconfiguration_latency,
                                                  scheduler_pool=pool)
        self._store = design_result.build_design_store(reconfiguration_latency,
                                                       pool)
        # Critical configurations of *any* task are the expensive ones to
        # lose: keeping them resident is what the weight-aware replacement
        # of refs. [6, 7] is after, so they are flagged to the replacement
        # policy and avoided as inter-task prefetch victims.
        self._critical_configurations = frozenset(
            configuration
            for entry in self._store
            for configuration in entry.critical_configurations
        )

    def schedule_task(self, ctx: TaskContext) -> TaskSchedule:
        entry = self.store.get(*_point_key(ctx.scheduled))
        # The union of every task's critical configurations already holds
        # the next task's (the replacement policy only tests membership).
        decision = ctx.reuse_module.analyze(
            entry.placed, ctx.state.tiles, now=ctx.release_time,
            upcoming_configurations=self._critical_configurations,
        )
        execution = self._heuristic.run_time(
            entry,
            reusable=decision.reused,
            release_time=ctx.release_time,
            controller_available=ctx.state.controller_free,
        )
        # Initialization loads are exactly the critical subtasks the
        # decision could not reuse, so the reused set applies unchanged.
        return TaskSchedule(
            placed=entry.placed,
            decision=decision,
            reused=decision.reused,
            timed=execution.timed,
            initialization=execution.initialization_loads,
            scheduler_operations=execution.runtime_operations,
            loads_cancelled=execution.decision.cancelled_count,
        )

    def prefetch_next(self, ctx: TaskContext, schedule: TaskSchedule,
                      controller_free: float) -> Optional[InterTaskPlan]:
        """Prefetch the next task's critical subtasks into the idle tail."""
        if not self.uses_intertask:
            return None
        entry = self.store.get(*_point_key(ctx.next_scheduled))
        return self._plan_intertask(
            ctx, schedule,
            _requests(entry.placed, entry.critical_subtasks),
            controller_free,
            avoid_configurations=self._critical_configurations,
        )


#: Registry of the evaluated approaches, keyed by name: the paper's five
#: plus the feedback-controlled ``adaptive`` prefetcher.
APPROACHES = {
    NoPrefetchApproach.name: NoPrefetchApproach,
    DesignTimePrefetchApproach.name: DesignTimePrefetchApproach,
    RunTimeApproach.name: RunTimeApproach,
    RunTimeInterTaskApproach.name: RunTimeInterTaskApproach,
    HybridApproach.name: HybridApproach,
    AdaptivePrefetchApproach.name: AdaptivePrefetchApproach,
}


def make_approach(name: str) -> SchedulingApproach:
    """Instantiate one of the registered approaches by name."""
    try:
        factory = APPROACHES[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scheduling approach {name!r}; available: "
            f"{sorted(APPROACHES)}"
        ) from exc
    return factory()
