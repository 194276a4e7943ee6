"""TCM design-time scheduling (Pareto-curve generation).

The design-time phase of the TCM environment explores, for every scenario
of every task, a set of assignment/scheduling options and keeps the Pareto
front over execution time and energy.  This reproduction sweeps the number
of DRHW tiles made available to the scenario: using more tiles shortens the
makespan (more parallelism) but costs more energy (more resident area and
more loads), which yields the time/energy trade-off the run-time scheduler
navigates.

The explorer also drives the design-time phase of the hybrid prefetch
heuristic: for every Pareto point of every scenario it can build the
corresponding :class:`~repro.core.store.DesignTimeEntry` so that the
run-time phase finds a precomputed critical-subtask schedule for whatever
the TCM run-time scheduler selects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.hybrid import HybridPrefetchHeuristic
from ..core.store import DesignTimeStore
from ..errors import ConfigurationError
from ..graphs.analysis import max_parallelism
from ..platform.description import Platform
from ..scheduling.list_scheduler import ListScheduler
from ..scheduling.pool import SchedulerPool
from ..scheduling.schedule import (
    PlacedSchedule,
    placed_schedule_from_dict,
    placed_schedule_to_dict,
)
from .pareto import ParetoCurve, ParetoPoint
from .scenario import Scenario, TaskSet

#: Key of a Pareto curve: (task name, scenario name).
CurveKey = Tuple[str, str]


def point_key_for_tiles(tile_count: int) -> str:
    """Canonical Pareto-point key for a schedule using ``tile_count`` tiles."""
    return f"tiles{tile_count}"


@dataclass
class TcmDesignTimeResult:
    """Output of the TCM design-time exploration for a whole application."""

    platform: Platform
    curves: Dict[CurveKey, ParetoCurve] = field(default_factory=dict)
    #: Memoized design stores keyed by reconfiguration latency.  Excluded
    #: from comparisons/repr: it is a pure cache over the immutable curves
    #: above.
    _store_cache: Dict[float, DesignTimeStore] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Warm-engine pool shared by every design-store build over this
    #: exploration's placed schedules (the natural owner: the pool's
    #: engines are keyed on exactly those schedules, so their lifetimes
    #: coincide).  Hybrid heuristics prepared against this result route
    #: their ``with_reused`` critical-selection variants through it, so the
    #: transposition work of one build warms every later one at the same
    #: latency.  A pure cache like ``_store_cache``: excluded from
    #: comparisons/repr, dropped on (de)serialization.
    scheduler_pool: SchedulerPool = field(
        default_factory=SchedulerPool, repr=False, compare=False
    )
    #: Observability of the design-store memoization: how many
    #: ``build_design_store`` calls hit the cache or missed it.
    store_cache_hits: int = field(default=0, repr=False, compare=False)
    store_cache_misses: int = field(default=0, repr=False, compare=False)

    def curve(self, task_name: str, scenario_name: str) -> ParetoCurve:
        """Pareto curve of one scenario."""
        key = (task_name, scenario_name)
        try:
            return self.curves[key]
        except KeyError as exc:
            raise ConfigurationError(
                f"no Pareto curve for {key}; available: {sorted(self.curves)}"
            ) from exc

    @property
    def curve_count(self) -> int:
        """Number of (task, scenario) curves explored."""
        return len(self.curves)

    def attach_tt_store(self, store) -> None:
        """Bind an on-disk transposition store to this exploration's pool.

        A :class:`~repro.tcm.design_time.TcmDesignTimeResult` rebuilt from
        the exploration cache starts with a cold
        :attr:`scheduler_pool`; attaching the sweep's
        :class:`~repro.scheduling.ttstore.TranspositionStore` (keyed by
        placed-schedule *content*, so the freshly deserialized schedules
        still hit) lets every design-store build over these curves start
        from the certificates earlier processes persisted.  ``None``
        detaches.
        """
        self.scheduler_pool.attach_tt_store(store)

    def schedules(self) -> List[Tuple[str, str, str, PlacedSchedule]]:
        """Every (task, scenario, point key, placed schedule) tuple."""
        result = []
        for (task_name, scenario_name), curve in sorted(self.curves.items()):
            for point in curve:
                result.append((task_name, scenario_name, point.key,
                               point.placed))
        return result

    def build_design_store(self, reconfiguration_latency: float,
                           scheduler_pool: Optional[SchedulerPool] = None
                           ) -> DesignTimeStore:
        """Run the hybrid design-time phase for every Pareto point.

        The design engine is always the paper's (the exact search with a
        list-scheduling fallback), so the store only depends on the
        (immutable) explored schedules and the latency: repeated builds
        at one latency — e.g. every hybrid sweep point in one engine
        group, or every test sharing a session exploration — return one
        memoized store instead of re-running the critical-subtask
        selection.

        Warm tables make even the *misses* cheap: the engine routes its
        searches through ``scheduler_pool`` (default: this result's
        :attr:`scheduler_pool`), which keeps the transposition suffixes
        of one placed schedule's ``with_reused`` variants across the
        whole critical-selection loop and across builds.  Warm tables
        change how fast the engine searches, never which schedule it
        returns, so the pool is not part of the memo key.
        """
        store = self._store_cache.get(reconfiguration_latency)
        if store is None:
            self.store_cache_misses += 1
            hybrid = HybridPrefetchHeuristic(
                reconfiguration_latency,
                scheduler_pool=(self.scheduler_pool if scheduler_pool is None
                                else scheduler_pool))
            store = hybrid.build_store(self.schedules())
            self._store_cache[reconfiguration_latency] = store
        else:
            self.store_cache_hits += 1
        return store


# ---------------------------------------------------------------------- #
# (De)serialization — used by the runner's on-disk exploration cache
# ---------------------------------------------------------------------- #
def exploration_to_dict(result: TcmDesignTimeResult) -> Dict[str, Any]:
    """Convert an exploration result into a JSON-serializable dictionary.

    Only the curves are stored: the platform is cheap to rebuild and the
    memoized design stores are pure caches over the curves.
    """
    curves = []
    for (task_name, scenario_name), curve in sorted(result.curves.items()):
        curves.append({
            "task": task_name,
            "scenario": scenario_name,
            "points": [
                {
                    "key": point.key,
                    "execution_time": point.execution_time,
                    "energy": point.energy,
                    "tile_count": point.tile_count,
                    "placed": placed_schedule_to_dict(point.placed),
                }
                for point in curve
            ],
        })
    return {"curves": curves}


def exploration_from_dict(payload: Dict[str, Any],
                          platform: Platform) -> TcmDesignTimeResult:
    """Rebuild an exploration result written by :func:`exploration_to_dict`.

    Every placed schedule is revalidated by its constructor, so a corrupted
    payload raises :class:`~repro.errors.ConfigurationError` (or a schedule
    validation error) instead of producing a silently broken exploration.
    """
    result = TcmDesignTimeResult(platform=platform)
    try:
        for curve_payload in payload["curves"]:
            task_name = str(curve_payload["task"])
            scenario_name = str(curve_payload["scenario"])
            points = [
                ParetoPoint(
                    key=str(item["key"]),
                    execution_time=float(item["execution_time"]),
                    energy=float(item["energy"]),
                    tile_count=int(item["tile_count"]),
                    placed=placed_schedule_from_dict(item["placed"]),
                )
                for item in curve_payload["points"]
            ]
            result.curves[(task_name, scenario_name)] = ParetoCurve(
                task_name, scenario_name, points
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed design-time exploration payload: {exc}"
        ) from exc
    return result


class TcmDesignTimeScheduler:
    """Generates Pareto curves by sweeping the tile budget of each scenario."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    # ------------------------------------------------------------------ #
    def explore_scenario(self, task_name: str, scenario: Scenario
                         ) -> ParetoCurve:
        """Build the Pareto curve of one scenario.

        The budgets are 1 tile up to the scenario's parallelism (more
        tiles cannot shorten the makespan any further), plus the whole
        tile pool: that schedule is as fast as the widest Pareto point and
        leaves every configuration on its own tile, which is what the
        overhead experiments (and the reuse module) rely on.
        """
        graph = scenario.graph
        tile_count = self.platform.tile_count
        parallelism = max(1, max_parallelism(graph))
        budgets = list(range(1, min(parallelism, tile_count) + 1))
        if budgets[-1] != tile_count:
            budgets.append(tile_count)
        points: List[ParetoPoint] = []
        for budget in budgets:
            placed = self._schedule_with_budget(graph, budget)
            points.append(self._make_point(placed, budget))
        return ParetoCurve(task_name, scenario.name, points)

    def explore(self, task_set: TaskSet) -> TcmDesignTimeResult:
        """Build the Pareto curves of every scenario of every task."""
        result = TcmDesignTimeResult(platform=self.platform)
        for task in task_set:
            for scenario in task:
                result.curves[(task.name, scenario.name)] = (
                    self.explore_scenario(task.name, scenario)
                )
        return result

    # ------------------------------------------------------------------ #
    def _schedule_with_budget(self, graph, tile_count: int) -> PlacedSchedule:
        return ListScheduler(self.platform.with_tiles(tile_count)).schedule(graph)

    def _make_point(self, placed: PlacedSchedule, tile_count: int
                    ) -> ParetoPoint:
        graph = placed.graph
        busy_time = graph.total_execution_time
        makespan = placed.makespan
        idle_tile_time = max(0.0, tile_count * makespan - busy_time)
        energy = self.platform.energy.task_energy(
            loads=len(placed.drhw_names),
            busy_time=busy_time,
            idle_tile_time=idle_tile_time,
        )
        return ParetoPoint(
            key=point_key_for_tiles(tile_count),
            execution_time=makespan,
            energy=energy,
            tile_count=tile_count,
            placed=placed,
        )
