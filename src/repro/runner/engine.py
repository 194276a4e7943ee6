"""Parallel sweep execution with shared design-time exploration.

:class:`SweepEngine` executes the points of a
:class:`~repro.runner.spec.SweepSpec` with three properties the
experiment drivers rely on:

* **Determinism** — a point's result depends only on the point itself
  (the simulator draws everything from seeded RNGs), so sequential
  execution, process-pool execution and cached replay all produce
  bit-identical :class:`~repro.sim.metrics.SimulationMetrics`.
* **Shared exploration** — points are grouped by (workload, tile count)
  and each group runs one TCM design-time exploration which every
  approach/seed/config at that platform reuses, instead of re-exploring
  per simulation run.
* **Memoization** — with a cache directory configured, completed points
  are persisted through :class:`~repro.runner.cache.ResultCache` and a
  warm rerun returns without simulating anything.

``max_workers=1`` (the default) runs everything in-process, which keeps
small callers (tests, quick experiment runs) free of any multiprocessing
machinery.  ``max_workers>1`` fans the groups out over a
:class:`concurrent.futures.ProcessPoolExecutor`; if the platform cannot
provide worker processes (sandboxes without ``fork``/semaphores) the
engine degrades to in-process execution rather than failing the sweep.

:func:`parallel_map` is the lower-level primitive behind the
non-simulation drivers (Table 1, hide-rate, scalability): an ordered,
deterministic map over picklable items with the same in-process fallback.

Warm-table persistence
----------------------
With a cache directory configured (and ``tt_cache=True``, the default),
the exact-search transposition tables earned while computing a group are
persisted next to the other caches under ``<cache-dir>/ttables`` through
:class:`~repro.scheduling.ttstore.TranspositionStore`: workers attach the
store to their process-wide :class:`~repro.scheduling.pool.SchedulerPool`
(and the group exploration's own pool) and flush certificates back when
the group completes, so later workers, fresh fleets and *reruns* start
their searches from the floors earlier processes already proved.  Results
stay bit-identical — persisted entries are pruning certificates, never
answers.

Distributed sweeps and the claim-file protocol
----------------------------------------------
``distributed=True`` turns N independent :class:`SweepEngine` processes
(any mix of machines) pointed at **one shared cache directory** into a
cooperating fleet that partitions a spec without double work:

* The unit of claiming is the (workload, tile count) **group** — the same
  unit the executor schedules — identified by a content hash over the
  payloads of *all* of the group's points, so every worker running the
  same spec derives the same claim key while a different spec sharing the
  directory never false-shares a claim.
* Before computing a group, a worker re-checks the result cache point by
  point (another worker may have finished meanwhile) and then tries to
  create ``<cache-dir>/claims/<key>.claim`` with ``O_CREAT | O_EXCL`` —
  the atomic test-and-set of shared filesystems.  Exactly one worker
  wins and computes the group's uncached points; everyone else moves on
  to unclaimed groups and later *polls the result cache* (never the
  claim, and with exponential backoff while nothing changes) for the
  winner's results, which arrive via the cache's atomic writes.  A
  worker claims at most ``max_workers`` groups per scan and computes
  that batch concurrently before claiming more, so late-joining workers
  still find unclaimed work.
* **Heartbeats — the TTL invariant**: every held claim is auto-refreshed
  on a ``claim_ttl / 3`` cadence for as long as its holder lives, from
  *two* places: the engine runs one
  :class:`~repro.runner.claims.ClaimHeartbeat` over the whole claimed
  batch while it computes, and :func:`run_group` heartbeats its own
  group's claim from inside the worker process (via
  :class:`GroupClaim`), so the claim stays fresh even if the
  coordinating engine dies while orphaned workers keep computing.
  ``claim_ttl`` therefore bounds **crash-detection latency, not group
  runtime** — a 5-second TTL is safe under 30-minute groups, and a
  SIGKILL'd worker's group is re-claimed within roughly one TTL (about
  ``2 x claim_ttl`` end to end, counting the challenger's next scan)
  instead of after a worst-case-runtime one.
* **Crash/stale-takeover semantics**: a claim is never released on
  success — completed work is shielded by the cache, so an inert claim
  file costs nothing (``repro cache gc`` reaps expired ones).  A worker
  that died mid-group leaves a claim whose mtime stops advancing; once
  it is older than ``claim_ttl`` seconds any other worker may take it
  over by atomically *renaming* the stale claim to a unique tombstone
  and re-creating it with ``O_EXCL``.  Rename-then-create is what makes
  concurrent takeovers safe: the second challenger's rename fails (the
  source is gone), so exactly one challenger can ever reach the
  exclusive create — an unlink-based takeover could instead delete the
  winner's *fresh* claim.  Takeover therefore duplicates at most the
  work of the crashed worker's unfinished group, and never corrupts
  results (the cache recomputes bit-identically and last-writer-wins on
  identical content).
* A worker whose remaining groups are all claimed by live workers waits
  ``poll_interval`` seconds between cache polls and gives up with an
  error after ``wait_timeout`` seconds — a dead fleet should fail
  loudly, not hang.  Pick ``claim_ttl`` for how fast a crashed worker
  should be detected, well above the longest heartbeat stall a *live*
  holder might show (GC pause, NFS attribute-cache lag) — a spurious
  takeover duplicates work but never corrupts it; see
  :mod:`repro.runner.claims` for the primitive's full contract.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..errors import ConfigurationError
from ..jsonio import dumps_canonical
from ..platform.description import Platform
from ..scheduling.pool import SchedulerPool, process_scheduler_pool
from ..scheduling.ttstore import TranspositionStore
from ..sim.metrics import SimulationMetrics
from ..sim.simulator import SystemSimulator
from ..tcm.design_time import TcmDesignTimeResult, TcmDesignTimeScheduler
from ..workloads.base import Workload
from .cache import ExplorationCache, ResultCache
from .claims import (
    DEFAULT_CLAIM_TTL,
    ClaimDirectory,
    ClaimHeartbeat,
    default_worker_id,
)
from .spec import ApproachSpec, SweepPoint, SweepSpec, WorkloadSpec


def default_jobs() -> int:
    """A sensible worker count for this machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class GroupClaim:
    """Picklable pointer to a held claim a worker must keep heartbeating.

    The distributed engine acquires a group's claim in its own process
    but computes the group on a worker process; this carries everything
    the worker needs to rebuild a :class:`ClaimDirectory` view of the
    claim and heartbeat it from *inside* the computation, so the claim
    stays fresh even if the coordinating engine dies while the worker
    keeps going.
    """

    directory: str
    key: str
    worker_id: str
    ttl: float

    def heartbeat(self) -> ClaimHeartbeat:
        """A started-on-enter heartbeat over this one claim."""
        claims = ClaimDirectory(self.directory, worker_id=self.worker_id,
                                ttl=self.ttl)
        return ClaimHeartbeat(claims, [self.key])


#: Reentrancy guard for run_group's process-pool store binding: the first
#: in-flight group records the outer binding, the last one restores it.
_TT_BINDING_LOCK = threading.Lock()
_TT_BINDING_DEPTH = 0
_TT_OUTER_STORE = None


# --------------------------------------------------------------------- #
# Worker-side execution (top-level functions: must be picklable)
# --------------------------------------------------------------------- #
def explore_platform(workload_spec: WorkloadSpec, tile_count: int,
                     exploration_dir: Optional[str] = None
                     ) -> Tuple[Workload, Platform, TcmDesignTimeResult]:
    """Build (workload, platform, design-time exploration) for one group.

    With ``exploration_dir`` set, the exploration is memoized on disk
    through :class:`~repro.runner.cache.ExplorationCache`: a warm sweep
    loads the stored Pareto curves instead of re-running the design-time
    scheduler for the group.
    """
    workload = workload_spec.build()
    platform = Platform(
        tile_count=tile_count,
        reconfiguration_latency=workload.reconfiguration_latency,
    )
    if exploration_dir is not None:
        cache = ExplorationCache(exploration_dir)
        design = cache.load(workload_spec, tile_count, platform)
        if design is None:
            design = TcmDesignTimeScheduler(platform).explore(
                workload.task_set
            )
            cache.store(workload_spec, tile_count, design)
        return workload, platform, design
    explorer = TcmDesignTimeScheduler(platform)
    return workload, platform, explorer.explore(workload.task_set)


def simulate_point(point: SweepPoint, workload: Workload,
                   platform: Platform, design: TcmDesignTimeResult,
                   pool: SchedulerPool) -> SimulationMetrics:
    """Simulate one point on a shared exploration and engine pool.

    The point gets a fresh approach (approaches carry per-run design-time
    state) bound to ``pool``.  The group runner and the service's warm
    path both call this, so their answers are byte-identical.
    """
    approach = point.approach.build()
    approach.bind_scheduler_pool(pool)
    simulator = SystemSimulator(
        workload=workload,
        platform=platform,
        approach=approach,
        config=point.config(),
        replacement=point.approach.build_replacement(),
        design_result=design,
    )
    return simulator.run().metrics


def run_group(points: Sequence[SweepPoint],
              exploration_dir: Optional[str] = None,
              tt_dir: Optional[str] = None,
              claim: Optional[GroupClaim] = None) -> List[SimulationMetrics]:
    """Run every point of one (workload, tile count) group.

    The group shares a single workload instance, platform and TCM
    design-time exploration (optionally memoized in ``exploration_dir``);
    each point still gets a fresh approach object (approaches carry
    per-run design-time state).  Every approach is bound to this worker
    process's shared :class:`~repro.scheduling.pool.SchedulerPool`, so the
    exact design-time searches the points repeat over the group's placed
    schedules run on warm transposition tables after the first point —
    with results bit-identical to cold engines (warm tables only prune,
    they never answer), so cached/parallel/sequential runs stay
    interchangeable.

    With ``tt_dir`` set, those warm tables additionally persist: a
    :class:`~repro.scheduling.ttstore.TranspositionStore` over the
    directory is attached to both the process pool and the exploration's
    own pool before any point runs (so fresh engines seed from earlier
    processes' certificates), and both pools flush their certificates
    back when the group finishes — even on failure, since everything
    proved until then is still true.

    With ``claim`` set (the distributed deployment), the group's claim
    file is heartbeat-refreshed every ``claim.ttl / 3`` seconds from this
    process for the whole run — exploration included — so the claim TTL
    bounds crash-detection latency rather than group runtime.
    """
    if not points:
        return []
    head = points[0]
    for point in points:
        if point.group_key != head.group_key:
            raise ConfigurationError(
                f"point {point.label} does not belong to group "
                f"{head.workload.label}@{head.tile_count}t"
            )
    heartbeat = claim.heartbeat().start() if claim is not None else None
    try:
        return _run_group_points(points, head, exploration_dir, tt_dir)
    finally:
        if heartbeat is not None:
            heartbeat.stop()


def _run_group_points(points: Sequence[SweepPoint], head: SweepPoint,
                      exploration_dir: Optional[str],
                      tt_dir: Optional[str]) -> List[SimulationMetrics]:
    """The body of :func:`run_group`, under its (optional) heartbeat."""
    workload, platform, design = explore_platform(head.workload,
                                                  head.tile_count,
                                                  exploration_dir)
    scheduler_pool = process_scheduler_pool()
    tt_store = TranspositionStore(tt_dir) if tt_dir is not None else None
    with _TT_BINDING_LOCK:
        global _TT_BINDING_DEPTH, _TT_OUTER_STORE
        if _TT_BINDING_DEPTH == 0:
            _TT_OUTER_STORE = scheduler_pool.tt_store
        _TT_BINDING_DEPTH += 1
        scheduler_pool.attach_tt_store(tt_store)
    design.attach_tt_store(tt_store)
    try:
        return [simulate_point(point, workload, platform, design,
                               scheduler_pool) for point in points]
    finally:
        if tt_store is not None:
            scheduler_pool.flush()
            design.scheduler_pool.flush()
        # The process pool outlives this group: once the *last* in-flight
        # group of this process finishes, restore the binding the first
        # one found, so a finished sweep's cache directory is never
        # written again (nor resurrected after deletion) by unrelated
        # later work.  The depth counter keeps concurrent run_group
        # threads (e.g. distributed workers sharing one process) from
        # detaching each other's store mid-group.
        with _TT_BINDING_LOCK:
            _TT_BINDING_DEPTH -= 1
            if _TT_BINDING_DEPTH == 0:
                scheduler_pool.attach_tt_store(_TT_OUTER_STORE)
                _TT_OUTER_STORE = None


def _run_group_item(item: Tuple[Sequence[SweepPoint], Optional[GroupClaim]],
                    exploration_dir: Optional[str] = None,
                    tt_dir: Optional[str] = None) -> List[SimulationMetrics]:
    """Picklable adapter: one (group, claim) pair through :func:`run_group`.

    ``pool.map`` hands workers exactly one argument per item, and the
    distributed engine needs a *per-group* claim next to the shared
    exploration/ttable configuration — so the pair travels as the item.
    """
    group, claim = item
    return run_group(group, exploration_dir=exploration_dir, tt_dir=tt_dir,
                     claim=claim)


def parallel_map(function: Callable, items: Sequence,
                 max_workers: int = 1) -> List:
    """Ordered map over ``items``, optionally on a process pool.

    The callable and every item must be picklable when ``max_workers > 1``.
    Results come back in item order regardless of completion order, and a
    platform without working subprocess support degrades to the in-process
    path instead of raising.
    """
    items = list(items)
    workers = min(max_workers, len(items))
    if workers <= 1:
        return [function(item) for item in items]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(function, items))
    except (OSError, PermissionError, ImportError):
        return [function(item) for item in items]


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepOutcome:
    """The metrics of one executed (or cache-replayed) sweep point."""

    point: SweepPoint
    metrics: SimulationMetrics
    from_cache: bool = False


class SweepResult:
    """Outcomes of a sweep, reported in spec expansion order.

    ``warm_stats``, when present, is the delta of the in-process
    :func:`~repro.scheduling.pool.process_scheduler_pool` counters over
    this run (``pool_hits``/``pool_misses``/``tt_warm_hits``) — the
    warm-reuse telemetry trace streams report.  It is only captured for
    ``max_workers=1`` engines: with worker processes the warm activity
    happens in *their* pools, and a zero here would misread as "no
    reuse".
    """

    def __init__(self, outcomes: Sequence[SweepOutcome],
                 warm_stats: Optional[Dict[str, int]] = None) -> None:
        self.outcomes: Tuple[SweepOutcome, ...] = tuple(outcomes)
        self.warm_stats = warm_stats

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def computed_count(self) -> int:
        """Number of points that were actually simulated."""
        return sum(1 for outcome in self.outcomes if not outcome.from_cache)

    @property
    def cached_count(self) -> int:
        """Number of points answered from the result cache."""
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _matches(outcome: SweepOutcome,
                 workload: Optional[Union[str, WorkloadSpec]],
                 approach: Optional[Union[str, ApproachSpec]],
                 tile_count: Optional[int],
                 seed: Optional[int]) -> bool:
        point = outcome.point
        if isinstance(workload, WorkloadSpec):
            if point.workload != workload:
                return False
        elif workload is not None and point.workload.name != workload:
            return False
        if isinstance(approach, ApproachSpec):
            if point.approach != approach:
                return False
        elif approach is not None and point.approach.name != approach:
            return False
        if tile_count is not None and point.tile_count != tile_count:
            return False
        if seed is not None and point.seed != seed:
            return False
        return True

    def select(self, workload: Optional[Union[str, WorkloadSpec]] = None,
               approach: Optional[Union[str, ApproachSpec]] = None,
               tile_count: Optional[int] = None,
               seed: Optional[int] = None) -> List[SweepOutcome]:
        """All outcomes matching the given coordinates (in order)."""
        return [outcome for outcome in self.outcomes
                if self._matches(outcome, workload, approach, tile_count,
                                 seed)]

    def metrics_for(self, workload: Optional[Union[str, WorkloadSpec]] = None,
                    approach: Optional[Union[str, ApproachSpec]] = None,
                    tile_count: Optional[int] = None,
                    seed: Optional[int] = None) -> SimulationMetrics:
        """The metrics of exactly one point; raises unless unique."""
        matches = self.select(workload, approach, tile_count, seed)
        if not matches:
            raise KeyError(
                f"no sweep outcome for workload={workload!r} "
                f"approach={approach!r} tiles={tile_count!r} seed={seed!r}"
            )
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous sweep coordinates (matched {len(matches)} "
                f"points); narrow the query"
            )
        return matches[0].metrics

    def by_approach(self,
                    workload: Optional[Union[str, WorkloadSpec]] = None,
                    seed: Optional[int] = None
                    ) -> Dict[str, Dict[int, SimulationMetrics]]:
        """``{approach label: {tile count: metrics}}`` view of the sweep."""
        table: Dict[str, Dict[int, SimulationMetrics]] = {}
        for outcome in self.select(workload=workload, seed=seed):
            label = outcome.point.approach.label
            table.setdefault(label, {})[outcome.point.tile_count] = (
                outcome.metrics
            )
        return table


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #
class SweepEngine:
    """Executes sweep specs on worker processes with cached results.

    ``tt_cache`` (on by default, meaningful only with a cache directory)
    persists exact-search transposition tables under
    ``<cache-dir>/ttables`` — see "Warm-table persistence" in the module
    docstring.  ``distributed=True`` makes :meth:`run` cooperate with
    other engines sharing the same cache directory through the claim-file
    protocol ("Distributed sweeps" above); it requires a cache, since the
    shared directory is the only bus between workers.
    """

    def __init__(self, max_workers: int = 1,
                 cache_dir: Optional[Union[str, os.PathLike]] = None,
                 cache: Optional[ResultCache] = None,
                 tt_cache: bool = True,
                 distributed: bool = False,
                 worker_id: Optional[str] = None,
                 claim_ttl: float = DEFAULT_CLAIM_TTL,
                 poll_interval: float = 0.5,
                 wait_timeout: float = 3600.0) -> None:
        if max_workers < 1:
            raise ConfigurationError("max_workers must be at least 1")
        self.max_workers = max_workers
        if cache is None and cache_dir is not None:
            cache = ResultCache(cache_dir)
        self.cache = cache
        if distributed and cache is None:
            raise ConfigurationError(
                "a distributed sweep needs a shared cache directory "
                "(results and claims travel through it)"
            )
        # Design-time explorations persist next to the point results: a warm
        # sweep that still has to compute some points (new seed, new
        # approach) at a known (workload, tile count) group then skips the
        # exploration too.
        self.exploration_dir: Optional[str] = (
            str(Path(cache.directory) / "explorations")
            if cache is not None else None
        )
        # Warm transposition tables persist there as well (tentpole of the
        # warm-table store): workers seed exact searches from certificates
        # earlier processes proved, and flush their own back per group.
        self.tt_dir: Optional[str] = (
            str(Path(cache.directory) / "ttables")
            if cache is not None and tt_cache else None
        )
        self.distributed = distributed
        self.worker_id = worker_id or default_worker_id()
        self.claim_ttl = claim_ttl
        self.poll_interval = poll_interval
        self.wait_timeout = wait_timeout

    # ------------------------------------------------------------------ #
    def run(self, spec: Union[SweepSpec, Sequence[SweepPoint]]
            ) -> SweepResult:
        """Execute a spec (or an explicit point list) and gather results."""
        points = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
        if self.distributed:
            return self._run_distributed(points)
        resolved: Dict[SweepPoint, SweepOutcome] = {}

        pending: List[SweepPoint] = []
        queued: set = set()
        for point in points:
            if point in resolved or point in queued:
                continue  # duplicate coordinates: compute once
            cached = self.cache.load(point) if self.cache else None
            if cached is not None:
                resolved[point] = SweepOutcome(point=point, metrics=cached,
                                               from_cache=True)
            else:
                pending.append(point)
                queued.add(point)

        warm_before = self._warm_counters()
        for group, metrics_list in self._run_groups(self._group(pending)):
            for point, metrics in zip(group, metrics_list):
                resolved[point] = SweepOutcome(point=point, metrics=metrics,
                                               from_cache=False)
                if self.cache is not None:
                    self.cache.store(point, metrics)

        return SweepResult([resolved[point] for point in points],
                           warm_stats=self._warm_delta(warm_before))

    def _warm_counters(self) -> Optional[Dict[str, int]]:
        """Snapshot of the in-process pool counters (``max_workers=1``).

        With worker processes the warm activity happens in their pools,
        so no snapshot is taken and :attr:`SweepResult.warm_stats` stays
        ``None`` rather than reading as zero reuse.
        """
        if self.max_workers != 1:
            return None
        pool = process_scheduler_pool()
        return {
            "pool_hits": pool.pool_hits,
            "pool_misses": pool.pool_misses,
            "tt_warm_hits": pool.tt_warm_hits,
        }

    def _warm_delta(self, before: Optional[Dict[str, int]]
                    ) -> Optional[Dict[str, int]]:
        after = self._warm_counters()
        if before is None or after is None:
            return None
        return {key: after[key] - before[key] for key in after}

    # ------------------------------------------------------------------ #
    @staticmethod
    def _group(points: Sequence[SweepPoint]) -> List[List[SweepPoint]]:
        """Group points by (workload, tile count), preserving order."""
        groups: Dict[Tuple[WorkloadSpec, int], List[SweepPoint]] = {}
        for point in points:
            groups.setdefault(point.group_key, []).append(point)
        return list(groups.values())

    def _run_groups(self, groups: List[List[SweepPoint]],
                    claims: Optional[List[Optional[GroupClaim]]] = None
                    ) -> Iterable[Tuple[List[SweepPoint],
                                        List[SimulationMetrics]]]:
        """Run every group, in parallel when it pays off.

        ``claims`` (aligned with ``groups``, distributed mode only) rides
        along so each worker process heartbeats the claim of the group it
        is computing.
        """
        if claims is None:
            claims = [None] * len(groups)
        items = list(zip(groups, claims))
        runner = partial(_run_group_item,
                         exploration_dir=self.exploration_dir,
                         tt_dir=self.tt_dir)
        workers = min(self.max_workers, len(groups))
        if workers > 1:
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    return list(zip(groups, pool.map(runner, items)))
            except (OSError, PermissionError, ImportError):
                pass  # no subprocess support here: fall through to inline
        return [(group, runner(item)) for group, item in zip(groups, items)]

    # ------------------------------------------------------------------ #
    # Distributed execution (claim-file protocol; module docstring)
    # ------------------------------------------------------------------ #
    @staticmethod
    def group_claim_key(group: Sequence[SweepPoint]) -> str:
        """Content hash identifying one group's work unit across workers.

        Hashed over the payloads of **all** the group's points (cached or
        not), so every worker expanding the same spec derives the same
        key regardless of how much of the group it already sees cached,
        while a different spec sharing the directory (same workload and
        tiles, different iterations, say) gets a different key and is
        never blocked by this one's claims.
        """
        canonical = dumps_canonical([point.payload() for point in group])
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return f"group-{digest}"

    def _claims(self) -> ClaimDirectory:
        """The claim directory of this engine's shared cache."""
        return ClaimDirectory(Path(self.cache.directory) / "claims",
                              worker_id=self.worker_id, ttl=self.claim_ttl)

    def _run_distributed(self, points: List[SweepPoint]) -> SweepResult:
        """Cooperatively execute ``points`` with other workers (see module
        docstring for the protocol)."""
        unique: List[SweepPoint] = list(dict.fromkeys(points))
        groups = self._group(unique)
        claims = self._claims()
        claim_dir = Path(self.cache.directory) / "claims"
        resolved: Dict[SweepPoint, SweepOutcome] = {}
        incomplete = list(groups)
        deadline = time.monotonic() + self.wait_timeout
        delay = self.poll_interval
        while incomplete:
            progressed = False
            waiting: List[List[SweepPoint]] = []
            claimed: List[List[SweepPoint]] = []
            claimed_keys: List[str] = []
            for group in incomplete:
                pending: List[SweepPoint] = []
                for point in group:
                    if point in resolved:
                        continue
                    cached = self.cache.load(point)
                    if cached is not None:
                        resolved[point] = SweepOutcome(
                            point=point, metrics=cached, from_cache=True
                        )
                        progressed = True
                    else:
                        pending.append(point)
                if not pending:
                    continue  # group fully resolved (here or elsewhere)
                # Claim at most one batch of ``max_workers`` groups per
                # scan: the batch runs concurrently, and claiming
                # everything up front would starve workers that join a
                # moment later.  (Held claims stay fresh regardless of
                # batch runtime — both this engine and the computing
                # workers heartbeat them below.)
                key = self.group_claim_key(group)
                if len(claimed) < self.max_workers and claims.acquire(key):
                    claimed.append(pending)
                    claimed_keys.append(key)
                else:
                    waiting.append(group)  # a live worker owns it: poll
            if claimed:
                # The batch runs through the normal executor, so
                # ``max_workers`` applies inside a distributed worker
                # exactly as it does outside one.  Two heartbeat layers
                # keep the claims fresh while it runs: this engine beats
                # the whole batch (covering queue time and any worker
                # that has not started yet), and every worker process
                # beats its own group from inside run_group (covering
                # orphaned workers whose engine died) — so ``claim_ttl``
                # never needs to cover group runtime.
                group_claims = [
                    GroupClaim(directory=str(claim_dir), key=key,
                               worker_id=self.worker_id, ttl=self.claim_ttl)
                    for key in claimed_keys
                ]
                with claims.heartbeat(claimed_keys):
                    for pending, metrics_list in self._run_groups(
                            claimed, group_claims):
                        for point, metrics in zip(pending, metrics_list):
                            self.cache.store(point, metrics)
                            resolved[point] = SweepOutcome(
                                point=point, metrics=metrics,
                                from_cache=False
                            )
                progressed = True
            incomplete = waiting
            if not incomplete:
                break
            if progressed:
                # The fleet is alive (or this worker just worked): a stall
                # is only declared after wait_timeout of *uninterrupted*
                # silence, so push the deadline out again.
                deadline = time.monotonic() + self.wait_timeout
                delay = self.poll_interval
                continue  # something moved: re-scan without sleeping
            if time.monotonic() > deadline:
                held = claims.held_keys()
                raise ConfigurationError(
                    f"distributed sweep stalled for {self.wait_timeout:.0f}s "
                    f"waiting on {len(incomplete)} claimed group(s) "
                    f"(live claims: {held[:4]}...); if their workers are "
                    "gone, lower claim_ttl to allow stale takeover"
                )
            time.sleep(delay)
            # Quiet directories get polled less and less (the cache reads
            # behind each scan are not free on a network filesystem);
            # any progress resets the cadence above.
            delay = min(delay * 2, max(self.poll_interval, 5.0))
        return SweepResult([resolved[point] for point in points])
