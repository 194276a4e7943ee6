"""Warm scheduler service: shared branch-and-bound engines per problem core.

The design-time exploration solves many *near-identical* exact scheduling
problems: the critical-subtask loop walks every ``with_reused`` variant of
one placed schedule, the design-time baseline re-schedules the same Pareto
points for every sweep point, and ``run_group`` replays the same scenarios
across a whole sweep grid.  Each of those calls used to start a
:class:`~repro.scheduling.prefetch_bb.BranchAndBoundScheduler` with a cold
transposition table and re-derive suffix floors the previous call had
already proved.

:class:`SchedulerPool` closes that gap.  It hands out persistent-table
branch-and-bound engines keyed by **(placed schedule identity,
reconfiguration latency, exact-limit/table-limit config)** — exactly the
context within which replay signatures are comparable — and retains each
engine (and therefore its warm transposition table) across calls:

* the *pool key* routes a problem to the engine whose table may already
  know its signatures; placed schedules are held weakly, so a dead
  schedule drops its engines instead of pinning them (and a recycled
  ``id()`` can never resurrect a stale engine: the weak reference is
  re-checked against the live object on every lookup);
* the *engine* itself owns the invalidation story — it discards its table
  whenever the (placed, latency, release-time) context of a call differs
  from the previous one — so even a mis-routed problem degrades to a cold
  search, never to an incorrect one (see "Cross-call reuse" in
  :mod:`repro.scheduling.prefetch_bb`);
* results are **bit-identical** to cold runs by construction: warm table
  entries are pure pruning certificates, never answers
  (property-tested in ``tests/scheduling/test_scheduler_pool.py``).

A note on the packed signature layout: replay signatures are flat tuples
of dense integer ids interned per ``_ReplayCore`` (a placed schedule's
:attr:`~repro.scheduling.schedule.PlacedSchedule.core`), so two signatures
are only comparable when their states share a core.  The pool key (placed
schedule *identity*) is strictly finer than core identity — every state
the same engine ever hashes derives from the same placed object and
therefore the same core — and the engine's own invalidation additionally
pins the core object (not just the placed ``id()``), so content-equal
placed schedules that share a core through the digest cache still
warm-hit correctly while any core change falls back to a cold table.

The pool is LRU-bounded (``max_engines``) and aggregates the
:class:`~repro.scheduling.base.SchedulerStats` of every call it served
(``total_stats``), alongside its own routing counters
(``pool_hits``/``pool_misses``/``engines_evicted``), so callers can report
warm-reuse rates without threading stats through every layer.

One pool per *worker process* is the intended deployment for sweeps
(:func:`process_scheduler_pool`, used by
:func:`repro.runner.engine.run_group`); the TCM design-time exploration
additionally owns a pool per
:class:`~repro.tcm.design_time.TcmDesignTimeResult`, aligning engine
lifetimes with the placed schedules they are keyed on.

With a :class:`~repro.scheduling.ttstore.TranspositionStore` attached
(:meth:`SchedulerPool.attach_tt_store`), warmth additionally survives the
pool itself: engines seed fresh tables from the store's content-addressed
certificate files and persist back on eviction, schedule death and
:meth:`SchedulerPool.flush` — which is how a sweep's warm tables reach
fresh worker fleets and reruns (see :mod:`repro.scheduling.ttstore`).
``flush`` returns the number of tables written: an engine whose table is
unchanged since it was loaded or last saved writes nothing, so repeated
flushes (one per sweep group) and GC-timed schedule deaths add no
rewrites.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .base import PrefetchProblem, PrefetchResult, SchedulerStats
from .prefetch_bb import DEFAULT_TABLE_LIMIT, BranchAndBoundScheduler
from .schedule import PlacedSchedule
from .ttstore import TranspositionStore

#: Default bound on the number of live engines a pool retains.  Each engine
#: caps its own table (``table_limit``), so this bounds total pool memory at
#: ``max_engines x table_limit`` entries in the worst case; sweeps touch a
#: handful of placed schedules per group, so 64 engines is generous.
DEFAULT_MAX_ENGINES = 64

#: Sentinel distinguishing "inherit the pool's configuration" from an
#: explicit ``None`` (which is itself meaningful: ``exact_limit=None``
#: disables the engine's size gate, ``table_limit=None`` unbounds the
#: table).
_INHERIT = object()


class SchedulerPool:
    """Hands out warm :class:`BranchAndBoundScheduler` engines per key."""

    def __init__(self, exact_limit: Optional[int] = None,
                 table_limit: Optional[int] = DEFAULT_TABLE_LIMIT,
                 max_engines: int = DEFAULT_MAX_ENGINES,
                 tt_store: Optional[TranspositionStore] = None) -> None:
        if max_engines < 1:
            raise ValueError("max_engines must be at least 1")
        self.exact_limit = exact_limit
        self.table_limit = table_limit
        self.max_engines = max_engines
        #: Optional on-disk certificate store shared by every engine this
        #: pool hands out: fresh engines warm-start from whatever earlier
        #: processes persisted, and evicted/flushed engines persist back.
        self.tt_store = tt_store
        #: key -> (weakref to the placed schedule, engine).  The OrderedDict
        #: doubles as the LRU: hits move to the back, evictions pop front.
        self._engines: "OrderedDict[Tuple, Tuple[weakref.ref, BranchAndBoundScheduler]]" = (
            OrderedDict()
        )
        #: Guards the engine table and the routing/stat counters so the
        #: pool can be shared by a multi-threaded host (the
        #: :mod:`repro.service` daemon routes every request through one
        #: process-wide pool).  Reentrant because a GC-triggered weakref
        #: drop can fire on the thread that already holds it.  The lock
        #: covers bookkeeping only — never a search: engines themselves
        #: stay single-threaded (the service serializes computation).
        self._lock = threading.RLock()
        self.pool_hits = 0
        self.pool_misses = 0
        self.engines_evicted = 0
        #: Merged stats of every call served through :meth:`run`/:meth:`schedule`.
        self.total_stats = SchedulerStats()

    # ------------------------------------------------------------------ #
    @property
    def engine_count(self) -> int:
        """Number of live engines currently retained."""
        return len(self._engines)

    @property
    def tt_warm_hits(self) -> int:
        """Total warm transposition answers across every served call."""
        return self.total_stats.tt_warm_hits

    def engine_for(self, placed: PlacedSchedule,
                   reconfiguration_latency: float,
                   *,
                   exact_limit: object = _INHERIT,
                   table_limit: object = _INHERIT
                   ) -> BranchAndBoundScheduler:
        """The (warm) engine for this problem core, creating it on a miss.

        ``exact_limit``/``table_limit`` default to the pool's configuration
        when omitted (an explicit ``None`` keeps its engine-level meaning:
        no size gate / unbounded table); distinct configurations get
        distinct engines, since a different LRU capacity changes which
        signatures survive between calls.
        """
        if exact_limit is _INHERIT:
            exact_limit = self.exact_limit
        if table_limit is _INHERIT:
            table_limit = self.table_limit
        key = (id(placed), reconfiguration_latency, exact_limit, table_limit)
        evicted: Optional[BranchAndBoundScheduler] = None
        with self._lock:
            entry = self._engines.get(key)
            if entry is not None:
                anchor, engine = entry
                if anchor() is placed:
                    self._engines.move_to_end(key)
                    self.pool_hits += 1
                    return engine
                # A recycled id() from a collected schedule: never reuse
                # the stale engine (its table belongs to a dead replay
                # core).
                del self._engines[key]
            engine = BranchAndBoundScheduler(
                exact_limit=exact_limit,
                table_limit=table_limit,
                persistent_table=True,
                tt_store=self.tt_store,
            )
            self_ref = weakref.ref(self)

            def _drop(_reference, key=key, self_ref=self_ref, engine=engine):
                pool = self_ref()
                if pool is not None:
                    with pool._lock:
                        pool._engines.pop(key, None)
                # The dying schedule's certificates outlive it on disk
                # (the engine captured the content-addressed context up
                # front).
                engine.flush_table()

            self._engines[key] = (weakref.ref(placed, _drop), engine)
            self.pool_misses += 1
            if len(self._engines) > self.max_engines:
                _, (_, evicted) = self._engines.popitem(last=False)
                self.engines_evicted += 1
        if evicted is not None:
            evicted.flush_table()  # IO: outside the bookkeeping lock
        return engine

    # ------------------------------------------------------------------ #
    def run(self, engine: BranchAndBoundScheduler,
            problem: PrefetchProblem) -> PrefetchResult:
        """Solve ``problem`` on ``engine`` and aggregate its stats."""
        result = engine.schedule(problem)
        with self._lock:
            self.total_stats = self.total_stats.merged(result.stats)
        return result

    def schedule(self, problem: PrefetchProblem) -> PrefetchResult:
        """Route ``problem`` to its warm engine and solve it."""
        engine = self.engine_for(problem.placed,
                                 problem.reconfiguration_latency)
        return self.run(engine, problem)

    def attach_tt_store(self, store: Optional[TranspositionStore]) -> None:
        """(Re)bind the on-disk certificate store, ``None`` to detach.

        Live engines switch stores immediately: their *next* fresh table
        loads from (and their next flush saves to) the new store.  Tables
        already retained in memory are unaffected — they were loaded under
        the old store's trust checks and stay valid certificates.
        """
        with self._lock:
            self.tt_store = store
            # Snapshot: a weakref drop can mutate the dict mid-iteration.
            engines = [engine for _, engine in self._engines.values()]
        for engine in engines:
            engine.tt_store = store

    def flush(self) -> int:
        """Persist every live engine's certificates; returns tables written.

        The complement of load-on-miss: sweep workers call this at the end
        of a group (see :func:`repro.runner.engine.run_group`) so later
        workers — and reruns after a restart — start warm.  Engines whose
        tables are unchanged since their last save write nothing and are
        not counted (see
        :meth:`~repro.scheduling.prefetch_bb.BranchAndBoundScheduler.flush_table`).
        """
        saved = 0
        # Snapshot: flushing allocates, which can run a GC whose weakref
        # callbacks mutate the dict mid-iteration.
        with self._lock:
            engines = [engine for _, engine in self._engines.values()]
        for engine in engines:
            if engine.flush_table() is not None:
                saved += 1
        return saved

    def clear(self) -> None:
        """Drop every retained engine (and thus every warm table).

        With a store attached the engines' certificates are flushed
        first — clearing frees memory, it does not unlearn facts.
        """
        if self.tt_store is not None:
            self.flush()
        with self._lock:
            self._engines.clear()

    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        """Pickle as an empty pool: engines hold weakrefs, warm state and
        a lock that are only meaningful inside the process that built
        them."""
        state = self.__dict__.copy()
        state["_engines"] = OrderedDict()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()


# --------------------------------------------------------------------- #
#: Lazily created per-process pool shared by all sweep work in a worker.
_PROCESS_POOL: Optional[SchedulerPool] = None
_PROCESS_POOL_LOCK = threading.Lock()


def process_scheduler_pool() -> SchedulerPool:
    """The process-wide shared pool (one per sweep worker process).

    ``run_group`` binds this pool to every approach it builds, so all the
    sweep points a worker executes — across groups — share warm engines for
    whatever placed schedules stay alive between them.  Creation is
    locked: concurrent first callers (service handler threads, distributed
    workers sharing a process) must observe one pool, not race two.
    """
    global _PROCESS_POOL
    with _PROCESS_POOL_LOCK:
        if _PROCESS_POOL is None:
            _PROCESS_POOL = SchedulerPool()
        return _PROCESS_POOL


def reset_process_scheduler_pool() -> None:
    """Discard the process-wide pool (tests and long-lived daemons)."""
    global _PROCESS_POOL
    _PROCESS_POOL = None
