"""Process-wide warm state behind the online scheduling service.

One :class:`ServiceState` lives for the whole life of a ``repro serve``
daemon and is shared by every request thread.  It owns the *warm trio*
the batch drivers build per run and throw away:

* a :class:`~repro.scheduling.pool.SchedulerPool` — warm branch-and-bound
  engines (and their transposition tables) keyed by placed-schedule
  identity, shared across *all* requests;
* a bounded LRU of **resident explorations** — live ``(workload,
  platform, TcmDesignTimeResult)`` trios keyed by (workload spec, tile
  count).  Keeping the trio alive keeps its placed schedules alive, which
  is what keeps the pool's engines for them warm: near-identical requests
  (the ``with_reused`` ladder, different seeds/approaches on one
  platform) batch onto the same warm engines instead of re-exploring;
* the optional on-disk caches of a ``--cache-dir``
  (:class:`~repro.runner.cache.ResultCache`, exploration memoization,
  :class:`~repro.scheduling.ttstore.TranspositionStore`), so the daemon
  interoperates byte-for-byte with CLI sweeps pointed at the same
  directory.

Concurrency discipline
----------------------
All *computation* (exact searches, simulations) is serialized by
``compute_lock`` — the engines are single-threaded by design, and one
process-wide pool must never run two searches at once.  Throughput under
concurrent clients comes from the request front-end instead: in-flight
deduplication (:mod:`repro.service.dedup`), resident-exploration warm
hits, and the result cache.  The bookkeeping lock (``_lock``) only
guards counters and the LRUs and is never held across a computation.

Admission control
-----------------
``max_pending`` bounds how many requests may sit on ``compute_lock`` at
once; past that, :meth:`admission` sheds the request with
:class:`~repro.service.errors.ServiceOverloaded` (HTTP 429 + a retry
hint) instead of letting the queue grow without bound.  Followers of an
in-flight leader do **not** occupy admission slots — they add no work.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..platform.description import Platform
from ..runner.cache import ResultCache
from ..runner.engine import explore_platform, simulate_point
from ..runner.spec import SweepPoint, WorkloadSpec
from ..sim.metrics import SimulationMetrics
from ..scheduling.list_scheduler import build_initial_schedule
from ..scheduling.pool import SchedulerPool
from ..scheduling.schedule import PlacedSchedule
from ..scheduling.ttstore import TranspositionStore
from ..tcm.design_time import TcmDesignTimeResult
from ..workloads import registry as workload_registry
from ..workloads.base import Workload
from .errors import BadRequest, ServiceOverloaded

#: Requests allowed to wait on the compute lock before shedding starts.
DEFAULT_MAX_PENDING = 8

#: Resident (workload, platform, exploration) trios kept alive at once.
DEFAULT_MAX_EXPLORATIONS = 8

#: Placed schedules (``/schedule`` warm cores) kept alive at once.
DEFAULT_MAX_SCHEDULES = 32

#: Retry hint (seconds) attached to shed responses.
DEFAULT_SHED_RETRY_AFTER = 1.0


class ServiceState:
    """The warm, lock-disciplined heart of one service process."""

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None,
                 tt_cache: bool = True,
                 max_pending: int = DEFAULT_MAX_PENDING,
                 max_explorations: int = DEFAULT_MAX_EXPLORATIONS,
                 max_schedules: int = DEFAULT_MAX_SCHEDULES,
                 shed_retry_after: float = DEFAULT_SHED_RETRY_AFTER) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if max_explorations < 1:
            raise ValueError("max_explorations must be at least 1")
        if max_schedules < 1:
            raise ValueError("max_schedules must be at least 1")
        #: Serializes every computation (see module docstring).
        self.compute_lock = threading.Lock()
        #: Guards counters and LRUs only; never held across a computation.
        self._lock = threading.Lock()

        self.result_cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        self.exploration_dir: Optional[str] = (
            str(Path(cache_dir) / "explorations")
            if cache_dir is not None else None
        )
        self.tt_store: Optional[TranspositionStore] = (
            TranspositionStore(str(Path(cache_dir) / "ttables"))
            if cache_dir is not None and tt_cache else None
        )
        self.scheduler_pool = SchedulerPool(tt_store=self.tt_store)

        self.max_pending = max_pending
        self.max_explorations = max_explorations
        self.max_schedules = max_schedules
        self.shed_retry_after = shed_retry_after

        #: (workload spec, tile count) -> (workload, platform, design).
        self._explorations: "OrderedDict[Tuple[WorkloadSpec, int], Tuple[Workload, Platform, TcmDesignTimeResult]]" = (
            OrderedDict()
        )
        #: (task name, tile count, latency) -> placed schedule.
        self._schedules: "OrderedDict[Tuple[str, int, float], PlacedSchedule]" = (
            OrderedDict()
        )

        self._pending = 0
        self.shed_count = 0
        #: Resident-exploration LRU hits/builds (per-stream trace runs
        #: report an exploration-LRU hit rate from them).
        self.exploration_lru_hits = 0
        self.exploration_builds = 0
        #: Resident placed-schedule LRU hits (the ``/schedule`` path).
        self.schedule_lru_hits = 0
        self.result_cache_hits = 0
        self.result_cache_stores = 0
        self.simulations = 0

    # ------------------------------------------------------------------ #
    # Admission control
    # ------------------------------------------------------------------ #
    @contextmanager
    def admission(self):
        """Occupy one admission slot for the duration of a computation.

        Raises :class:`ServiceOverloaded` (shedding the request) when
        ``max_pending`` computations are already queued or running.
        """
        with self._lock:
            if self._pending >= self.max_pending:
                self.shed_count += 1
                raise ServiceOverloaded(self.shed_retry_after)
            self._pending += 1
        try:
            yield
        finally:
            with self._lock:
                self._pending -= 1

    @property
    def pending(self) -> int:
        """Computations currently admitted (queued or running)."""
        with self._lock:
            return self._pending

    # ------------------------------------------------------------------ #
    # Warm state
    # ------------------------------------------------------------------ #
    def exploration_for(self, workload_spec: WorkloadSpec, tile_count: int
                        ) -> Tuple[Workload, Platform, TcmDesignTimeResult]:
        """The resident exploration trio for one platform, built on a miss.

        A resident hit is the service's *batching* win: every request
        against the same (workload, tile count) — different seeds,
        approaches, ``reused`` sets — shares one live exploration, whose
        placed schedules keep the scheduler pool's engines warm.  Misses
        still go through the on-disk exploration cache when a cache
        directory is configured, exactly like a CLI sweep would.

        Callers must hold :attr:`compute_lock` (a miss runs the TCM
        design-time exploration).
        """
        key = (workload_spec, tile_count)
        with self._lock:
            trio = self._explorations.get(key)
            if trio is not None:
                self._explorations.move_to_end(key)
                self.exploration_lru_hits += 1
                return trio
        built = explore_platform(workload_spec, tile_count,
                                 self.exploration_dir)
        built[2].attach_tt_store(self.tt_store)
        evicted: Optional[TcmDesignTimeResult] = None
        with self._lock:
            self.exploration_builds += 1
            self._explorations[key] = built
            if len(self._explorations) > self.max_explorations:
                _, (_, _, evicted) = self._explorations.popitem(last=False)
        if evicted is not None:
            # The evicted trio's warm tables persist (certificates only);
            # dropping the last reference then retires its pool engines.
            evicted.scheduler_pool.flush()
        return built

    def placed_schedule_for(self, task: str, tile_count: int,
                            reconfiguration_latency: float
                            ) -> PlacedSchedule:
        """The resident placed schedule of one ``/schedule`` core.

        Keeping the schedule alive between requests is what keys
        consecutive solves (the ``with_reused`` ladder) onto one warm
        pool engine.  Callers must hold :attr:`compute_lock`.
        """
        if not workload_registry.has_task_graph(task):
            # Structured 400: the unknown name and the registry's current
            # universe travel as payload fields, not a repr inside the
            # message.
            raise BadRequest(
                f"unknown task {task!r}",
                detail={
                    "unknown_task": task,
                    "available_tasks": workload_registry.task_graph_names(),
                },
            )
        key = (task, tile_count, reconfiguration_latency)
        with self._lock:
            placed = self._schedules.get(key)
            if placed is not None:
                self._schedules.move_to_end(key)
                self.schedule_lru_hits += 1
                return placed
        graph = workload_registry.build_task_graph(task)
        platform = Platform(
            tile_count=tile_count,
            reconfiguration_latency=reconfiguration_latency,
        )
        placed = build_initial_schedule(graph, platform)
        with self._lock:
            self._schedules[key] = placed
            if len(self._schedules) > self.max_schedules:
                self._schedules.popitem(last=False)
        return placed

    # ------------------------------------------------------------------ #
    # The warm simulate path (the sweep engine's per-point step)
    # ------------------------------------------------------------------ #
    def load_cached(self, point: SweepPoint) -> Optional[SimulationMetrics]:
        """The memoized result of ``point``, if a cache holds one."""
        if self.result_cache is None:
            return None
        cached = self.result_cache.load(point)
        if cached is not None:
            with self._lock:
                self.result_cache_hits += 1
        return cached

    def simulate_point(self, point: SweepPoint) -> SimulationMetrics:
        """Run one sweep point on the warm state (compute lock held).

        The resident exploration and the shared scheduler pool go through
        :func:`repro.runner.engine.simulate_point`, the sweep engine's own
        per-point step, so a service answer is byte-identical to a CLI
        sweep of the same point (warm pool tables only prune, they never
        answer).
        """
        workload, platform, design = self.exploration_for(point.workload,
                                                          point.tile_count)
        metrics = simulate_point(point, workload, platform, design,
                                 self.scheduler_pool)
        with self._lock:
            self.simulations += 1
        if self.result_cache is not None:
            self.result_cache.store(point, metrics)
            with self._lock:
                self.result_cache_stores += 1
        return metrics

    # ------------------------------------------------------------------ #
    # Observability / shutdown
    # ------------------------------------------------------------------ #
    def warm_snapshot(self) -> Dict[str, object]:
        """Warm-state counters for the ``/metrics`` endpoint."""
        pool = self.scheduler_pool
        with self._lock:
            resident = len(self._explorations)
            schedules = len(self._schedules)
            exploration_lookups = (self.exploration_lru_hits
                                   + self.exploration_builds)
            snapshot = {
                "exploration_lru_hits": self.exploration_lru_hits,
                "exploration_builds": self.exploration_builds,
                "exploration_lru_hit_rate": (
                    self.exploration_lru_hits / exploration_lookups
                    if exploration_lookups else 0.0
                ),
                "schedule_lru_hits": self.schedule_lru_hits,
                "resident_explorations": resident,
                "resident_schedules": schedules,
                "result_cache_hits": self.result_cache_hits,
                "result_cache_stores": self.result_cache_stores,
                "simulations": self.simulations,
            }
        snapshot.update({
            "pool_hits": pool.pool_hits,
            "pool_misses": pool.pool_misses,
            "pool_engines": pool.engine_count,
            "tt_warm_hits": pool.tt_warm_hits,
        })
        return snapshot

    def admission_snapshot(self) -> Dict[str, object]:
        """Admission-gate counters for the ``/metrics`` endpoint."""
        with self._lock:
            return {
                "pending": self._pending,
                "max_pending": self.max_pending,
                "shed": self.shed_count,
                "retry_after": self.shed_retry_after,
            }

    def close(self) -> None:
        """Flush every warm table to the store (clean-shutdown path)."""
        with self._lock:
            trios = list(self._explorations.values())
            self._explorations.clear()
            self._schedules.clear()
        for _, _, design in trios:
            design.scheduler_pool.flush()
        self.scheduler_pool.flush()
