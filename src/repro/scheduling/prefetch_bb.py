"""Optimal prefetch scheduling via branch and bound.

The design-time phase of the hybrid heuristic "applies a branch & bound
algorithm that always finds the optimal solution and for large graphs we
keep the heuristic presented in [7] since it generates near optimal
schedules in an affordable time" (Section 5).  This module provides both:

* :class:`BranchAndBoundScheduler` exhaustively explores load dispatch
  orders (with pruning) and returns the order whose greedy dispatch yields
  the smallest makespan.
* :class:`OptimalPrefetchScheduler` applies branch and bound up to a
  configurable problem size and transparently falls back to the list
  heuristic beyond it — the exact policy of the paper.

Optimality is defined over the space of load priority orders executed by
the greedy single-port dispatcher of
:func:`repro.scheduling.evaluator.replay_schedule`; that is the same
schedule space the heuristics draw from, so the branch-and-bound result is a
true lower bound for them.

The search walks the dispatch tree depth-first **on a single**
:class:`~repro.scheduling.replay.ReplayState` using the kernel's
``push``/``pop`` undo log — one ``O(affected entries)`` state mutation per
tree edge, no snapshot copies — and branches over the dispatcher's
horizon-enabled load choices, which enumerate exactly the priority-order
schedule space (see the replay-kernel invariants).  Four mechanisms keep
the tree small:

* an **admissible lower bound** built from the prefix's *actual* port-free
  time, the realized finish floors of the executed subtasks and the
  per-load earliest-enable floors;
* a **transposition table** memoizing, per replay
  :meth:`~repro.scheduling.replay.ReplayState.signature`, the best
  completion *subtree* found below a future-identical state (see
  "Transposition safety" below), so permuted prefixes that converge to the
  same dispatcher state share one exploration instead of one per prefix;
* **prefix dominance** as the degenerate case of the table: a revisit from
  a no-better realized prefix is answered without any work at all.  Note
  that *pointwise-earlier* states must **not** be pruned against: the
  non-idling dispatcher restricts the choice set of an earlier state (an
  earlier-enabled low-priority load can be forced ahead of a critical
  one), so an earlier prefix can be strictly worse — only future-identical
  states are comparable;
* **incumbent seeding** with the list heuristic so pruning bites from the
  first node.

The search itself runs on the kernel's *flat integer* representation:
loads are interned ids, the pending set is the state's bitmask, child
candidates come from :meth:`~repro.scheduling.replay.ReplayState.choice_ids`
and are ordered by a precomputed static rank (the exploration key
``(ideal start, -weight, name)`` is constant per load), bound inputs
(descending weight lists, per-load enable floors) are cached per pending
mask, and tree edges are :meth:`push_choice_id`/:meth:`pop` calls — names
only reappear at leaves that improve the incumbent and in the returned
:class:`~repro.scheduling.base.PrefetchResult`.

Transposition safety
--------------------
Signature-equal states evolve through *identical absolute-time futures*
(kernel invariant), so a completion makespan from such a state decomposes
as ``max(realized, F)`` where ``F`` — the **future contribution**, the
latest finish among executions performed after the state — depends only on
the signature and the issue suffix.  Table keys are the kernel's *packed*
signatures — flat tuples of machine ints and floats,
``(pending_mask, controller_time, frontier…, None, live…, None,
issued…)`` — which hash and compare as primitive scalars instead of
nested name tuples; since interned ids are a fixed bijection with names
per replay core, the packed layout has exactly the historical layout's
equality classes, and every transposition/dominance counter is unchanged.  Memoizing ``F`` would be trivial in
an exhaustive search; the subtlety is that subtrees are *cut* by the
incumbent bound, so the table must not present a partially explored
subtree as exhaustive.  Each entry therefore stores:

``ref``
    the realized makespan of the prefix the subtree was explored from,
``barrier``
    the incumbent makespan at the moment that exploration *returned*,
``future``
    the smallest future contribution accounted for below (``inf`` when
    every branch was cut),
``generation``
    which :meth:`~BranchAndBoundScheduler.schedule` call of this engine
    wrote the entry (see "Cross-call reuse" below).

The entry invariant (provable by induction over the DFS, using that the
incumbent only decreases): **if ``ref < barrier``, every completion from a
signature-equal state has ``F >= min(future, barrier)``** — a completion
lost to a bound cut satisfied ``max(ref, F) >= incumbent-at-cut >=
barrier``, and ``ref < barrier`` forces ``F >= barrier``.  Crucially, this
consequent mentions only the signature's (immutable) completion set and
the two stored constants, never the search that wrote it: once true it is
true forever.  A revisit with realized makespan ``r`` is answered without
exploration in two cases:

* **prefix dominance** (``r >= ref``, *same generation only*): the
  ``ref``-visit explored this subtree earlier in the same call, so every
  completion below was either realized against this call's incumbent or
  validly cut against a no-smaller incumbent — nothing below can strictly
  improve the current incumbent;
* **barrier certificate** (``ref < barrier`` and ``max(r, min(future,
  barrier)) >= incumbent``): by the entry invariant every completion below
  has makespan ``max(r, F) >= max(r, min(future, barrier))``, so nothing
  below can strictly improve the incumbent either.

Everything else — a voided premise (``ref >= barrier``: the incumbent
overtook the prefix mid-subtree) or a certificate too weak for the
current incumbent — forces a re-exploration, which overwrites the entry.
A pruned revisit returns ``min(future, barrier)`` (the invariant's floor)
to its parent's ``future`` aggregation when the premise holds and ``inf``
otherwise; cuts justified by a *makespan* floor (bound prunes, dominance
prunes) likewise return ``inf`` and are covered by the ``ref < barrier``
case split in the induction above.

Cross-call reuse (warm tables)
------------------------------
With ``persistent_table=True`` the engine retains its table across
:meth:`~BranchAndBoundScheduler.schedule` calls, so the near-identical
problems the design-time exploration solves back to back — every
``with_reused`` variant of one placed schedule, every sweep point
replaying the same scenario — share one warm table instead of re-deriving
the same suffix floors (:class:`repro.scheduling.pool.SchedulerPool`
hands out such engines keyed by placed schedule and latency).  Two rules
make this exact:

* **Invalidation** — the table is keyed by replay signatures, which are
  only comparable while the static replay core, the reconfiguration
  latency and the release time are unchanged; the engine pins all three
  (the core directly, by identity) and discards the table whenever any
  of them differs from the previous call.  Pinning the *core* rather
  than the placed-schedule object composes with the kernel's
  content-digest core cache: a service request that rebuilds an
  identical schedule resolves to the same interned core, so a warm
  engine keyed on content keeps its table across object identities —
  packed ids stay comparable precisely because "same core" now means
  "same content".  A different ``reused`` set or
  ``controller_available`` needs no invalidation: both are captured by
  the signature itself (the pending-load set and the port-free time), so
  states from different variants either collide *because* their futures
  are identical or do not collide at all.
* **Demotion** — entries from a previous call keep their timeless barrier
  certificate (the invariant above), but the two call-local arguments die
  with their call: prefix dominance is disabled for old-generation
  entries (the ``ref``-visit fed a *different* incumbent), and PR 3's
  "exact reuse" — splicing the memoized best suffix into the answer — is
  retired entirely, because a previous incumbent's ``barrier`` says
  nothing about the *current* incumbent when ``barrier <
  incumbent-now``.  A revisit whose certificate cannot prune simply
  re-explores, and the retained child entries turn that re-exploration
  into a guided walk down the improving path (every non-improving sibling
  is answered by its own certificate), so a warm hit costs ``O(depth x
  branching)`` instead of a fresh subtree.

Retiring suffix splicing has a second, deliberate effect: the incumbent
is now only ever updated at *leaves* the DFS actually reaches, and every
table answer is a pure pruning decision ("nothing below strictly beats
the incumbent").  Warm and cold searches therefore walk the same
canonical child order, realize the same sequence of strict improvements
and return **bit-identical schedules** — a warm table can change how fast
the optimum is found, never which optimum (or which tie) is returned.
This is property-tested in ``tests/scheduling/test_scheduler_pool.py``.

The table is LRU-bounded (``table_limit``): a pathological instance
degrades to bound-plus-dominance pruning instead of exhausting memory,
because losing an entry only ever costs a re-exploration, never
correctness.  The undo-log walk plus memoized subtree floors raised
:data:`DEFAULT_EXACT_LIMIT` from 12 (PR 2's incremental search) to 15
loads; the flattened integer kernel (~4-5x per-node cost reduction on
the committed corpus) raises it to 17, pinned by differential optimality
tests at the new frontier.

Cross-process reuse (persisted tables)
--------------------------------------
The demotion rule above is what makes tables *serializable*: a floor
certificate mentions nothing process-local, so a persistent engine given a
:class:`~repro.scheduling.ttstore.TranspositionStore` flushes its
certificates to a content-addressed file whenever it discards a table (and
on :meth:`~BranchAndBoundScheduler.flush_table`), and seeds fresh tables
from whatever a previous process proved for the same (placed-schedule
content, latency, release, engine-config) context.  A table is written
only when a search ran on it since it was loaded or last saved, so each
file is written once per change, however often the engine is flushed.
Restored entries carry
:data:`~repro.scheduling.ttstore.LOADED_GENERATION` (never equal to a live
generation), so they are barrier certificates only — warm-from-disk
searches stay bit-identical to cold ones for exactly the reasons warm
in-process calls do.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..graphs.analysis import subtask_weights
from .base import PrefetchProblem, PrefetchResult, PrefetchScheduler, SchedulerStats
from .evaluator import replay_schedule
from .prefetch_list import ListPrefetchScheduler
from .replay import ReplayState
from .schedule import TIME_EPSILON, TimedSchedule
from .ttstore import TableContext, TranspositionStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pool imports us)
    from .pool import SchedulerPool

#: Problem sizes (number of loads) up to which exhaustive search is attempted
#: by default.  The flattened integer replay kernel plus the memoizing
#: transposition table keep 17-load searches affordable (random worst cases
#: stay in the range the 15-load limit needed on the tuple-based kernel;
#: see benchmarks/BENCH_schedulers.json).
DEFAULT_EXACT_LIMIT = 17

#: Default LRU capacity of the transposition table (entries).  A 17-load
#: problem has at most 2^17 pending-set classes, each with a handful of
#: timing contexts; one million entries covers every corpus instance with
#: room to spare while bounding worst-case memory to a few hundred MB.
DEFAULT_TABLE_LIMIT = 1 << 20

_INF = float("inf")
_NEG_INF = float("-inf")


class BranchAndBoundScheduler(PrefetchScheduler):
    """Exhaustive search over load orders with pruning and memoization.

    With ``persistent_table=True`` the transposition table survives across
    :meth:`schedule` calls for as long as the (placed schedule, latency,
    release time) context stays the same — any change of that context
    discards the table (see "Cross-call reuse" in the module docstring).
    Warm answers are surfaced as ``tt_warm_hits`` in the returned stats;
    results are bit-identical to a cold engine's either way.
    """

    name = "branch-and-bound"

    def __init__(self, exact_limit: Optional[int] = None,
                 table_limit: Optional[int] = DEFAULT_TABLE_LIMIT,
                 persistent_table: bool = False,
                 tt_store: Optional[TranspositionStore] = None) -> None:
        if table_limit is not None and table_limit < 0:
            raise SchedulingError("table_limit must be non-negative or None")
        self.exact_limit = exact_limit
        self.table_limit = table_limit
        self.persistent_table = persistent_table
        #: Optional on-disk certificate store ("Cross-process reuse" above);
        #: only consulted by persistent engines.
        self.tt_store = tt_store
        self._table: "Optional[OrderedDict[Tuple, List]]" = None
        self._table_placed: Optional[weakref.ref] = None
        self._table_core: Optional[object] = None
        self._table_token: Optional[Tuple[float, float]] = None
        self._table_context: Optional[TableContext] = None
        #: Whether the retained table may differ from its last save (see
        #: :meth:`flush_table`).
        self._table_dirty = False
        self._generation = 0
        self._reset_counters()

    def _reset_counters(self) -> None:
        self._evaluations = 0
        self._operations = 0
        self._states_extended = 0
        self._pruned_bound = 0
        self._pruned_dominance = 0
        self._tt_hits = 0
        self._tt_warm_hits = 0
        self._tt_evictions = 0
        self._tt_peak = 0
        self._undo_peak = 0

    def _acquire_table(self, problem: PrefetchProblem
                       ) -> "OrderedDict[Tuple, List]":
        """The transposition table for this call (warm when still valid).

        Replay signatures are only comparable while the static replay core,
        the reconfiguration latency and the release time are unchanged; any
        difference from the previous call's context starts a fresh table.
        The core is pinned *by identity* — which, through the kernel's
        content-digest core cache, means tables survive across distinct
        but content-identical placed-schedule objects (a service request
        rebuilding the same graph warm-hits instead of starting cold).
        ``reused`` and ``controller_available`` are captured by the
        signatures themselves and therefore never require invalidation.
        """
        if not self.persistent_table:
            self._generation = 0
            return OrderedDict()
        placed = problem.placed
        core = placed.core
        token = (problem.reconfiguration_latency, problem.release_time)
        if self._table is None or self._table_core is not core \
                or self._table_token != token:
            # The outgoing table's certificates are still true statements
            # about their own context: persist them before discarding.
            self.flush_table()
            self._table_context = None
            self._table = None
            if self.tt_store is not None:
                self._table_context = self.tt_store.context_for(
                    placed, token[0], token[1],
                    self.exact_limit, self.table_limit,
                )
                # No capacity trim needed: table_limit is part of the
                # store key, so a loaded table was written by an engine
                # with this very limit (and the store's own max_entries
                # cap only ever shrinks it further).
                self._table = self.tt_store.load(self._table_context)
            if self._table is None:
                self._table = OrderedDict()
            # The weak placed reference is kept only so a late
            # attach_tt_store() can still derive the table's content
            # context while the schedule is alive; validity is the core's.
            self._table_placed = weakref.ref(placed)
            self._table_core = core
            self._table_token = token
            self._table_dirty = False
            self._generation = 0
        else:
            self._generation += 1
        return self._table

    def flush_table(self) -> Optional[object]:
        """Persist the retained table's floor certificates; best-effort.

        Returns the written path, or ``None`` for a no-op: without a
        store, a retained table or anything certifiable in it, and when
        the table is unchanged since it was loaded or last saved.  Every
        search marks the table changed — even a pure hit reorders the LRU
        tail that :meth:`TranspositionStore.save` persists — so a skipped
        flush would have rewritten the same bytes.  A failed save leaves
        the table marked, so a later flush retries it.  Called
        automatically whenever the engine is about to discard a table,
        and by :meth:`repro.scheduling.pool.SchedulerPool.flush` / pool
        eviction for engines that never discard one themselves.
        """
        if self.tt_store is None or not self._table \
                or not self._table_dirty:
            return None
        if self._table_context is None:
            # The table predates the store binding (attach_tt_store on a
            # live pool): derive the context now, while the schedule is
            # alive — once it is gone, the content key is unrecoverable.
            placed = (self._table_placed()
                      if self._table_placed is not None else None)
            if placed is None or self._table_token is None:
                return None
            self._table_context = self.tt_store.context_for(
                placed, self._table_token[0], self._table_token[1],
                self.exact_limit, self.table_limit,
            )
        path = self.tt_store.save(self._table_context, self._table)
        if path is not None:
            self._table_dirty = False
        return path

    def invalidate(self) -> None:
        """Drop any retained transposition table (explicit invalidation).

        With a :attr:`tt_store` attached the certificates are flushed
        first — invalidation frees memory, it does not unlearn facts.
        """
        self.flush_table()
        self._table = None
        self._table_placed = None
        self._table_core = None
        self._table_token = None
        self._table_context = None
        self._generation = 0

    def schedule(self, problem: PrefetchProblem) -> PrefetchResult:
        loads = list(problem.loads)
        if self.exact_limit is not None and len(loads) > self.exact_limit:
            raise SchedulingError(
                f"branch and bound limited to {self.exact_limit} loads, the "
                f"problem has {len(loads)}"
            )
        self._reset_counters()

        seed = ListPrefetchScheduler().load_order(problem)
        best_timed = self._evaluate(problem, seed)
        best_order: Tuple[str, ...] = seed

        if loads:
            weights = subtask_weights(problem.placed.graph)
            order, timed = self._search(problem, loads, weights,
                                        best_order, best_timed)
            best_order, best_timed = order, timed

        stats = SchedulerStats(
            operations=self._operations,
            evaluations=self._evaluations,
            states_extended=self._states_extended,
            nodes_pruned_bound=self._pruned_bound,
            nodes_pruned_dominance=self._pruned_dominance,
            tt_hits=self._tt_hits,
            tt_warm_hits=self._tt_warm_hits,
            tt_evictions=self._tt_evictions,
            tt_peak_size=self._tt_peak,
            undo_depth=self._undo_peak,
        )
        return PrefetchResult(problem=problem, timed=best_timed,
                              load_order=best_order, stats=stats,
                              scheduler_name=self.name)

    # ------------------------------------------------------------------ #
    def _evaluate(self, problem: PrefetchProblem,
                  order: Sequence[str]) -> TimedSchedule:
        self._evaluations += 1
        return replay_schedule(
            problem.placed,
            problem.reconfiguration_latency,
            order,
            priority_order=order,
            release_time=problem.release_time,
            controller_available=problem.controller_available,
        )

    def _search(self, problem: PrefetchProblem, loads: List[str],
                weights: Dict[str, float],
                best_order: Tuple[str, ...],
                best_timed: TimedSchedule
                ) -> Tuple[Tuple[str, ...], TimedSchedule]:
        """Depth-first undo-log walk of the dispatch tree with memoization.

        The walk runs entirely on the kernel's interned integer ids: the
        pending set is the state's bitmask, bound inputs are id-indexed
        columns cached per mask, children come from
        :meth:`~repro.scheduling.replay.ReplayState.choice_ids` ordered by
        a precomputed static rank, and edges are ``push_choice_id``/``pop``
        calls.  Names reappear only at improving leaves (captured via
        ``load_sequence``) and in the final result.
        """
        placed = problem.placed
        latency = problem.reconfiguration_latency
        release = problem.release_time
        ideal_floor = release + placed.makespan

        root = ReplayState.start(
            placed,
            latency,
            loads,
            release_time=release,
            controller_available=problem.controller_available,
            weights=weights,
        )
        core = root._core
        index = core.index
        names = core.names
        total = core.total
        load_ids = [index[name] for name in loads]
        weight_of = [0.0] * total
        for name, weight in weights.items():
            sid = index.get(name)
            if sid is not None:
                weight_of[sid] = weight
        # Earliest time each load's tile can possibly become reconfigurable:
        # the ideal finish of the subtask preceding it on the tile (eager
        # placed schedules never run earlier than their ideal times).
        enable_floor = [0.0] * total
        for sid in load_ids:
            previous = placed.previous_on_resource(names[sid])
            enable_floor[sid] = release + (placed.ideal_finish(previous)
                                           if previous is not None else 0.0)
        # Explore the most promising loads first (earliest ideal start) so
        # that good incumbents are found early and pruning bites.  The
        # exploration key (ideal start, -weight, name) is constant per
        # load, so it collapses to one static int rank per id.
        order_rank = [0] * total
        ideal_start = core.ideal_start
        for position, sid in enumerate(sorted(
                load_ids,
                key=lambda s: (ideal_start[s], -weight_of[s], names[s]))):
            order_rank[sid] = position

        best_makespan = best_timed.makespan
        best_sequence: Optional[Tuple[str, ...]] = None
        # Transposition table: signature -> [ref, barrier, future, generation]
        # (see the module docstring for the entry invariant).  An OrderedDict
        # doubles as the LRU: hits move to the back, evictions pop the front.
        # With a persistent engine this is the retained cross-call table;
        # entries from earlier calls are recognizable by their generation.
        table = self._acquire_table(problem)
        self._table_dirty = True
        generation = self._generation
        table_limit = self.table_limit
        table_get = table.get
        move_to_end = table.move_to_end

        # Counters live in locals for the duration of the walk (attribute
        # stores per node are measurable at this call rate) and fold back
        # into the engine's counters after the search returns.
        operations = evaluations = states_extended = 0
        pruned_bound = pruned_dominance = 0
        tt_hits = tt_warm_hits = tt_evictions = 0
        undo_peak = 0
        # A warm call starts with every retained entry live: tt_peak_size
        # reports the largest *live* table, not just this call's inserts.
        tt_peak = len(table)

        # Bound inputs depend only on the pending *set*, which the search
        # revisits constantly across timing contexts: cache the descending
        # weight list and the (enable floor, weight) pairs per mask.  The
        # candidate arithmetic below is kept expression-identical to the
        # historical per-name loops — reassociating these float sums could
        # drift a bound by an ulp and flip a prune.
        bound_inputs: Dict[int, Tuple[List[float], List[Tuple[float, float]]]] = {}

        def inputs_for(mask: int) -> Tuple[List[float], List[Tuple[float, float]]]:
            ids = []
            bits = mask
            while bits:
                low = bits & -bits
                ids.append(low.bit_length() - 1)
                bits ^= low
            ordered = sorted((weight_of[sid] for sid in ids), reverse=True)
            pairs = [(enable_floor[sid], weight_of[sid]) for sid in ids]
            cached = (ordered, pairs)
            bound_inputs[mask] = cached
            return cached

        def lower_bound(state: ReplayState, mask: int) -> float:
            """Admissible bound on the absolute makespan of any completion.

            The k-th load still to be issued cannot finish before the
            prefix's realized port-free time plus ``k + 1`` latencies — nor
            before its own tile's earliest-enable floor plus one latency —
            and the graph cannot finish before that load's subtask plus its
            longest successor chain have run.  Pairing the largest weights
            with the earliest possible port slots gives a valid lower
            bound; the realized floors of the executed prefix
            (``critical_floor``) sharpen it further.
            """
            bound = ideal_floor
            floor = state.critical_floor
            if floor > bound:
                bound = floor
            port = state.controller_time
            cached = bound_inputs.get(mask)
            if cached is None:
                cached = inputs_for(mask)
            ordered, pairs = cached
            for position, weight in enumerate(ordered):
                candidate = port + (position + 1) * latency + weight
                if candidate > bound:
                    bound = candidate
            for start_floor, weight in pairs:
                if port > start_floor:
                    start_floor = port
                candidate = start_floor + latency + weight
                if candidate > bound:
                    bound = candidate
            return bound

        def recurse(state: ReplayState) -> float:
            """Explore the completions of ``state``'s prefix.

            Returns the subtree's *future floor*: a value ``f`` such that
            every completion below either has future contribution
            ``F >= min(f, incumbent-at-return)`` or was cut against a
            makespan floor no smaller than the incumbent at the cut (the
            two cases of the entry-invariant induction in the module
            docstring).  The incumbent is updated **only at leaves**, which
            is what keeps warm and cold searches bit-identical.
            """
            nonlocal best_makespan, best_sequence, operations, evaluations, \
                states_extended, pruned_bound, pruned_dominance, tt_hits, \
                tt_warm_hits, tt_evictions, tt_peak, undo_peak
            operations += 1
            mask = state.pending_mask
            if not mask:
                # Complete schedule: the prefix *is* the evaluation — no
                # replay from time zero happens here.
                evaluations += 1
                makespan = state.makespan
                if makespan < best_makespan - TIME_EPSILON:
                    best_makespan = makespan
                    best_sequence = state.load_sequence
                return _NEG_INF
            if lower_bound(state, mask) >= best_makespan - TIME_EPSILON:
                pruned_bound += 1
                return _INF
            signature = state.signature()
            realized = state.makespan
            entry = table_get(signature)
            if entry is not None:
                move_to_end(signature)
                ref, barrier, future, written = entry
                if written == generation and realized >= ref - TIME_EPSILON:
                    # Prefix dominance (same call only): the ref-visit
                    # already realized or validly cut every completion
                    # below against this call's incumbent history, and a
                    # no-better prefix cannot beat what it accounted for.
                    pruned_dominance += 1
                    return (min(future, barrier)
                            if ref < barrier - TIME_EPSILON else _INF)
                if ref < barrier - TIME_EPSILON:
                    # Entry invariant holds (module docstring): every
                    # completion below has F >= min(future, barrier) — a
                    # claim about the signature's completion set, valid
                    # across calls.  Prune when that floor cannot strictly
                    # beat the current incumbent.
                    certified = min(future, barrier)
                    if max(realized, certified) \
                            >= best_makespan - TIME_EPSILON:
                        tt_hits += 1
                        if written != generation:
                            tt_warm_hits += 1
                        return certified
                # Re-explore: either the premise is void (the incumbent
                # overtook the reference prefix mid-subtree) or the
                # certificate is too weak for the current incumbent (a
                # strictly better completion may hide below — descend and
                # realize it at a leaf; retained child entries answer the
                # non-improving siblings).  The entry is overwritten below.
            best_future = _INF
            choices = state.choice_ids()
            if not choices:
                raise SchedulingError(
                    f"branch and bound stalled with pending loads "
                    f"{sorted(state.pending_loads)} on graph "
                    f"{placed.graph.name!r}"
                )
            if len(choices) > 1:
                choices.sort(key=lambda item: order_rank[item[0]])
            for sid, enable in choices:
                states_extended += 1
                delta = state.push_choice_id(sid, enable)
                depth = state.undo_depth
                if depth > undo_peak:
                    undo_peak = depth
                child_future = recurse(state)
                state.pop()
                through = delta if delta > child_future else child_future
                if through < best_future:
                    best_future = through
            table[signature] = [realized, best_makespan, best_future,
                                generation]
            move_to_end(signature)
            if len(table) > tt_peak:
                tt_peak = len(table)
            if table_limit is not None and len(table) > table_limit:
                table.popitem(last=False)
                tt_evictions += 1
            return best_future

        try:
            recurse(root)
        finally:
            self._operations += operations
            self._evaluations += evaluations
            self._states_extended += states_extended
            self._pruned_bound += pruned_bound
            self._pruned_dominance += pruned_dominance
            self._tt_hits += tt_hits
            self._tt_warm_hits += tt_warm_hits
            self._tt_evictions += tt_evictions
            if tt_peak > self._tt_peak:
                self._tt_peak = tt_peak
            if undo_peak > self._undo_peak:
                self._undo_peak = undo_peak
        if best_sequence is None:
            return best_order, best_timed
        # Rebuild the winning schedule by replaying its dispatch sequence on
        # the (fully unwound) root state; the undo log guarantees the root
        # is back at its initial snapshot.
        for name in best_sequence:
            root.push(name)
        timed = root.finish()
        if abs(timed.makespan - best_makespan) > 1e-6:
            raise SchedulingError(
                f"transposition reuse produced an inconsistent schedule for "
                f"graph {placed.graph.name!r}: replayed makespan "
                f"{timed.makespan!r} != searched {best_makespan!r}"
            )
        return best_sequence, timed


class OptimalPrefetchScheduler(PrefetchScheduler):
    """Branch and bound for small problems, list heuristic beyond that.

    This mirrors the design-time engine of the paper: exact scheduling where
    affordable, the near-optimal heuristic of ref. [7] for larger graphs.

    ``pool`` optionally names a
    :class:`~repro.scheduling.pool.SchedulerPool`: exact problems are then
    solved on the pool's warm per-(placed schedule, latency) engines
    instead of this instance's private cold engine.  Results are
    bit-identical either way (see the module docstring); only the amount
    of search work changes, which is why the pool is excluded from the
    design-store signature in :mod:`repro.tcm.design_time`.
    """

    name = "optimal-prefetch"

    def __init__(self, exact_limit: int = DEFAULT_EXACT_LIMIT,
                 fallback: Optional[PrefetchScheduler] = None,
                 table_limit: Optional[int] = DEFAULT_TABLE_LIMIT,
                 pool: Optional["SchedulerPool"] = None) -> None:
        if exact_limit < 0:
            raise SchedulingError("exact_limit must be non-negative")
        self.exact_limit = exact_limit
        self.fallback = fallback or ListPrefetchScheduler()
        self.table_limit = table_limit
        self.pool = pool
        self._exact = BranchAndBoundScheduler(table_limit=table_limit)

    def schedule(self, problem: PrefetchProblem) -> PrefetchResult:
        if problem.load_count <= self.exact_limit:
            if self.pool is not None:
                # exact_limit=None: this scheduler's own gate (above) is
                # the size policy — a pooled engine must never re-gate.
                # table_limit passes through verbatim (None = unbounded),
                # matching the private cold engine's configuration.
                engine = self.pool.engine_for(
                    problem.placed, problem.reconfiguration_latency,
                    exact_limit=None,
                    table_limit=self.table_limit,
                )
                result = self.pool.run(engine, problem)
            else:
                result = self._exact.schedule(problem)
        else:
            result = self.fallback.schedule(problem)
        return PrefetchResult(problem=result.problem, timed=result.timed,
                              load_order=result.load_order, stats=result.stats,
                              scheduler_name=self.name)
