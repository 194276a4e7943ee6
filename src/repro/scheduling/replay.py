"""Incremental replay kernel: stateful prefix evaluation of load orders.

:class:`ReplayState` is the timing engine underneath every prefetch
scheduler and the system simulator.  It models the greedy single-port
dispatcher of the paper as an explicit state machine:

* a state snapshot holds the per-tile execution frontier, the port-free
  time, the set of still-pending loads, every realized execution/load
  entry and (optionally) realized lower-bound floors;
* :meth:`ReplayState.choices` lists the loads the dispatcher could issue
  next (the *horizon-enabled* set);
* :meth:`ReplayState.extend` issues one of those loads and advances the
  executions to quiescence, returning a **new** state (the parent stays
  valid, so a branch-and-bound search can fan out from one prefix);
* :meth:`ReplayState.push` / :meth:`ReplayState.pop` issue and *undo* a
  load **in place** through an explicit undo log, so a depth-first search
  can walk the whole dispatch tree on one state with ``O(affected
  entries)`` work per edge — no snapshot copies at all;
* :meth:`ReplayState.finish` returns the completed replay as a
  :class:`~repro.scheduling.schedule.TimedSchedule`: a view over a copy
  of the kernel's columns (:class:`~repro.scheduling.schedule.ReplayColumns`)
  and its tracked makespan, whose entries are bit-identical to the ones
  the monolithic replay loop produces for the same issue sequence.

Two further knobs serve the perturbation layer's realization
(:func:`repro.sim.noise.realize_task`) only: a ``durations`` column,
indexed by subtask id, on :meth:`ReplayState.start` that replaces the
design-time execution times, and the forced :meth:`ReplayState.issue`,
which holds the port for a load's drawn attempt spans instead of one
latency.  They never reach a search, a signature or a transposition
table: no scheduler starts a state with ``durations`` or issues through
:meth:`issue`.

Flat integer representation
---------------------------
Names and :class:`~repro.scheduling.schedule.ResourceId` objects exist
only at the API boundary.  At core-build time every subtask is interned
to a dense integer id (``graph.subtask_names`` order) and every resource
to a dense index (sorted :attr:`PlacedSchedule.resources` order); all
static context (predecessor/successor lists, execution times, ideal
starts, per-tile sequences) becomes id-indexed tuples, and all mutable
state becomes preallocated per-id/per-resource columns:

* float columns (start/finish/load-finish times, port- and tile-free
  times) are dense Python lists — unlike ``array('d')`` they hold the
  float objects themselves, so the hot loops read them without re-boxing
  a new float per access;
* small-int columns (tile frontier indices, remaining-predecessor
  counts) are ``array('l')``; flag columns (executed, load-issued,
  binding constraint codes) are ``bytearray`` — one byte per subtask;
* the pending-load *set* is a single arbitrary-precision int bitmask
  (bit ``i`` set iff load ``i`` is still pending), so membership tests,
  issue and undo are single integer ops and the whole set hashes as one
  machine word per 64 loads.

:meth:`push`/:meth:`pop` patch these columns in place: an undo frame
records only the pre-push controller time, floors and the execution-log
length; undoing replays the log tail backwards, restoring each touched
tile's free time and frontier index.  One loop executes a batch:
:meth:`ReplayState._advance` collects the resources whose next subtask
may run and executes each inline (start time, binding constraint,
successor counts, makespan and floor), with no method call per
execution.  Inter-tile communication is free, so a subtask is ready when
its predecessors have finished.  Entry
objects (:class:`~repro.scheduling.schedule.ExecutionEntry`/``LoadEntry``)
are built on first read of the returned schedule — never on the search
path, and never on the simulator's per-task path, which reads the
columns by subtask id.

Invariants the kernel maintains (and that its users rely on):

* **Dispatch-space equivalence** — branching only over :meth:`choices`
  enumerates exactly the schedules reachable by some load *priority
  order* under the greedy dispatcher: every horizon-enabled candidate is
  the greedy pick of some priority order (rank it first), and conversely
  the greedy pick for any priority order is always horizon-enabled.  The
  issue sequence of a completed state is itself such a priority order.
* **Quiescence determinism** — between two load issues, executions are
  advanced in the same resource-batch order as the monolithic replay
  loop, so entry insertion order (and therefore every order-sensitive
  consumer, e.g. critical-subtask selection) is preserved exactly.
* **Monotone floors** — when a ``weights`` map (longest successor chain,
  :func:`repro.graphs.analysis.subtask_weights`) is supplied, the state
  tracks a realized makespan floor (``critical_floor``) that only grows
  along a prefix, giving branch-and-bound an admissible bound built from
  the *actual* port-free time and realized finish times.  Like the
  classic ``release + placed.makespan`` floor this assumes the placed
  schedule is eager (no subtask could start earlier than its ideal
  start), which holds for every schedule the list scheduler builds:
  replayed without loads, it reproduces every placement exactly
  (property-tested in ``tests/scheduling/test_scheduling_properties.py``).
* **Exact undo** — :meth:`pop` restores, bit for bit, the state that
  existed before the matching :meth:`push`: the undo frame records the
  previous controller time, floor, realized makespan and the length of
  the execution log, whose tail carries the previous port-free time of
  each affected resource.  Any interleaving of pushes and pops therefore
  leaves the state with the same :meth:`signature`, makespan and
  :meth:`finish` output as a fresh :meth:`start` replay of the surviving
  load sequence (property-tested, including against a retained copy of
  the tuple-based kernel in ``tests/scheduling/reference_kernel.py``).
  ``pop`` only undoes ``push``; mixing it with the in-place :meth:`run`
  driver is unsupported.
* **Transposition safety** — :meth:`signature` captures *everything*
  that shapes the future, so two signature-equal states evolve through
  identical absolute-time futures: the same choice sets, the same
  execution starts/finishes for the same issue suffix.  The signature is
  a single flat tuple of machine ints and floats::

      (pending_mask, controller_time,
       rid, index, free, ...,            # per-unfinished-resource frontier
       None,                             # section separator
       id, finish, ...,                  # live executions, ascending id
       None,                             # section separator
       id, finish, ...)                  # issued-pending loads, ascending id

  ``pending_mask`` is the pending-load bitmask; the frontier section
  lists, in ascending resource index, each unfinished resource's frontier
  position and free time; *live* executions are those with an unexecuted
  successor; *issued-pending* loads are issued but not yet consumed.
  ``None`` separators make the layout prefix-unambiguous (no int or
  float compares equal to ``None``), and because ids and resource
  indices are a fixed bijection with names, two states collide under
  this packed layout exactly when they collided under the historical
  nested-name-tuple layout — the equality classes (and therefore every
  transposition/dominance counter) are unchanged.  Finished history that
  can no longer influence any future start is deliberately *forgotten*,
  which is what makes prefix permutations that converge to the same
  dispatcher state collide in a dominance table.

  A search may memoize the best completion *suffix* found below one
  state and replay it verbatim below any signature-equal state; the
  completion makespan there is ``max(realized makespan, future
  contribution)`` with the identical future contribution.  What
  signature equality does **not** license is pruning against
  *pointwise-earlier* states: the non-idling dispatcher restricts the
  choice set of an earlier state (an earlier-enabled low-priority load
  can be forced ahead of a critical one), so "earlier everywhere" does
  not imply "better completions" — only future-identical states are
  interchangeable.  The memoizing search in
  :mod:`repro.scheduling.prefetch_bb` documents how its table stays
  exact in the presence of bound pruning.

  Because the signature quantifies over the state's whole completion set,
  the interchangeability argument holds **across searches, not just
  within one**: a table entry derived below one state remains a true
  statement about every signature-equal state any *later* problem
  reaches, provided signatures are comparable at all — which requires
  the same static replay core (ids are core-relative!), the same
  reconfiguration latency and the same release time.  Cores are interned
  per placed-schedule *content* (see :func:`_intern_core`), so "same core"
  is implied by "same placed-schedule content" within one process.  (The
  ``reused`` set and ``controller_available`` need no such guard: both
  are captured *inside* the signature via the pending mask and the
  port-free time.)  What does **not** carry across searches is anything
  phrased in terms of a search's incumbent — dominance against an
  earlier visit, or a memoized suffix's optimality relative to a bound
  cut — which is why the cross-call reuse in
  :mod:`repro.scheduling.prefetch_bb` demotes retained entries to
  incumbent-free *floor certificates* (and the
  :class:`repro.scheduling.pool.SchedulerPool` keys warm engines by
  exactly the comparability context above).

The per-schedule static context is precomputed once per
:class:`PlacedSchedule`: the schedule owns its core, interned by digest
(an LRU-bounded map from placed-schedule *content digest* to core) — so a
service request that rebuilds an identical graph (a fresh, content-equal
``PlacedSchedule`` object) reuses the interned core instead of
re-deriving it, and its replay signatures stay comparable with the
original's.  The same core carries the run-time facts the simulator's
per-task path reads (reuse tile order, static load orders, per-tile
runs), so a task execution looks them up instead of re-deriving them.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import InfeasibleScheduleError, SchedulingError
from .schedule import (
    ExecutionEntry,
    PlacedSchedule,
    ReplayColumns,
    ResourceId,
    TIME_EPSILON,
    TimedSchedule,
)

_NEG_INF = float("-inf")


class _ReplayCore:
    """Static, per-placed-schedule context shared by every replay state.

    Everything here is immutable once built; replay states only reference
    it.  Subtask ids, names and the pred/succ id tuples come from the
    graph's :attr:`~repro.graphs.taskgraph.TaskGraph.core`; building this
    core interns every resource to a dense integer id and hoists the
    repeated placement lookups (position scans) out of the hot dispatch
    loop — the state machine then runs entirely on int-indexed tuples.

    It also holds the run-time facts the simulator's per-task path reads:
    ``reuse_tiles`` (each used tile, its first subtask and that subtask's
    configuration, by decreasing weight of the first subtask, ties by tile
    index) and ``drhw_tiles`` (``(name, tile)`` per DRHW subtask); the
    DRHW load orders ``by_start`` ``(ideal start, name)`` and
    ``by_start_weight`` ``(ideal start, -weight, name)``, filtered by
    ``reused`` per call (exact: every key ends in the unique name), and
    ``start_ids`` (every id by ideal start, then name); per tile,
    ``tile_runs`` (its ``(id, subtask, configuration)`` run) and
    ``tile_last`` (its last id); ``sorted_names`` and ``sorted_ids``
    (every id in name order), ``total_execution_time``,
    ``configurations``; and ``requests``, the inter-task request tuples
    :mod:`repro.sim.approaches` builds once.

    The core deliberately does **not** reference the placed schedule it
    was derived from: it is the value of digest-keyed cache entries, and
    a strong back-reference would pin the schedule for the process
    lifetime.  States carry their own strong reference to the schedule
    instead.
    """

    __slots__ = (
        "graph", "total", "names", "index", "sorted_rank",
        "resources", "sequences", "seq_len", "preds", "succs", "pred_count",
        "exec_time", "ideal_start", "position", "resource_of",
        "configuration", "drhw_mask", "reuse_tiles",
        "drhw_tiles", "by_start", "by_start_weight",
        "start_ids", "tile_runs", "tile_last", "sorted_names", "sorted_ids",
        "total_execution_time", "configurations", "requests",
    )

    def __init__(self, placed: PlacedSchedule) -> None:
        graph = placed.graph
        self.graph = graph
        graph_core = graph.core
        names = self.names = graph_core.names
        self.total = len(names)
        index = self.index = graph_core.index
        # Rank of each id under ascending-name order: any tie-break "by
        # name" is equivalently (and much more cheaply) "by sorted_rank".
        self.sorted_names = tuple(sorted(names))
        self.sorted_ids = tuple(index[name] for name in self.sorted_names)
        rank = array("l", [0] * self.total)
        for position, sid in enumerate(self.sorted_ids):
            rank[sid] = position
        self.sorted_rank = tuple(rank)
        self.resources: Tuple[ResourceId, ...] = tuple(placed.resources)
        self.sequences: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(index[name] for name in placed.resource_order(resource))
            for resource in self.resources
        )
        self.seq_len = tuple(len(sequence) for sequence in self.sequences)
        self.preds = graph_core.preds
        self.succs = graph_core.succs
        self.pred_count = tuple(len(p) for p in self.preds)
        self.exec_time: Tuple[float, ...] = tuple(
            subtask.execution_time for subtask in graph
        )
        ideal = self.ideal_start = tuple(
            placed.ideal_start(name) for name in names
        )
        position_col = array("l", [0] * self.total)
        resource_col = array("l", [0] * self.total)
        for rid, sequence in enumerate(self.sequences):
            for slot, sid in enumerate(sequence):
                position_col[sid] = slot
                resource_col[sid] = rid
        self.position = tuple(position_col)
        self.resource_of = tuple(resource_col)
        configuration = self.configuration = tuple(
            subtask.configuration for subtask in graph
        )
        mask = 0
        for name in placed.drhw_names:
            mask |= 1 << index[name]
        self.drhw_mask = mask

        weight = graph_core.weights
        self.start_ids = tuple(sorted(range(self.total),
                                      key=lambda sid: (ideal[sid], rank[sid])))
        drhw = [sid for sid in self.start_ids if (mask >> sid) & 1]
        self.by_start = tuple(names[sid] for sid in drhw)
        self.by_start_weight = tuple(names[sid] for sid in sorted(
            drhw, key=lambda sid: (ideal[sid], -weight[sid], rank[sid])))
        self.drhw_tiles = tuple(
            (names[sid], self.resources[resource_col[sid]])
            for sid in range(self.total) if (mask >> sid) & 1)
        tiles = [(resource, sequence) for resource, sequence
                 in zip(self.resources, self.sequences) if resource.is_tile]
        self.tile_runs = {tile: tuple((sid, names[sid], configuration[sid])
                                      for sid in sequence)
                          for tile, sequence in tiles}
        self.tile_last = {tile: sequence[-1] for tile, sequence in tiles}
        tiles.sort(key=lambda item: (-weight[item[1][0]], item[0].index))
        self.reuse_tiles = tuple((tile, names[sequence[0]],
                                  configuration[sequence[0]])
                                 for tile, sequence in tiles)
        self.total_execution_time = graph.total_execution_time
        self.configurations = tuple(graph.configurations)
        self.requests: Dict[Tuple[str, ...], tuple] = {}


#: Content-digest core cache: identical placed-schedule *content* (a
#: service request rebuilding the same graph, a deserialized sweep point,
#: an unpickled schedule) maps to one shared core.  LRU-bounded — a core
#: pins its graph, so this must not grow without limit in daemons.
_CORE_DIGEST_CACHE: "OrderedDict[str, _ReplayCore]" = OrderedDict()
_CORE_DIGEST_LIMIT = 64


def _content_digest(placed: PlacedSchedule) -> str:
    """Digest of everything the replay core derives from ``placed``.

    Reuses the transposition store's canonical content payload (graph
    structure, execution times, configurations, sorted placements), so
    "same digest" is exactly the comparability context under which two
    schedules share replay signatures.
    """
    import hashlib

    from ..jsonio import dumps_canonical
    from .ttstore import placed_payload

    canonical = dumps_canonical(placed_payload(placed))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _intern_core(placed: PlacedSchedule) -> _ReplayCore:
    """The interned core for ``placed``'s content (built on a miss).

    :attr:`PlacedSchedule.core` calls this once per schedule object and
    keeps the result, so content-equal schedules share one core (and
    therefore comparable signatures) instead of re-deriving it.
    """
    digest = _content_digest(placed)
    core = _CORE_DIGEST_CACHE.get(digest)
    if core is None:
        core = _ReplayCore(placed)
        _CORE_DIGEST_CACHE[digest] = core
    else:
        _CORE_DIGEST_CACHE.move_to_end(digest)
    while len(_CORE_DIGEST_CACHE) > _CORE_DIGEST_LIMIT:
        _CORE_DIGEST_CACHE.popitem(last=False)
    return core


def _priority_column(core: _ReplayCore, pending_mask: int,
                     priority_order: Optional[Sequence[str]]) -> List[int]:
    """Per-id rank of the greedy dispatcher for a given priority order.

    Loads named by ``priority_order`` rank at their first occurrence;
    pending loads missing from it rank after its distinct names, by ideal
    start time (ties by name) — the one implementation of that tie rule.
    Every other id stays -1: it is not pending, so it is never compared.
    """
    column = [-1] * core.total
    rank = 0
    if priority_order is not None:
        index = core.index
        for position, name in enumerate(priority_order):
            sid = index.get(name)
            if sid is not None and column[sid] < 0:
                column[sid] = position
        rank = len(set(priority_order))
    for sid in core.start_ids:
        if (pending_mask >> sid) & 1 and column[sid] < 0:
            column[sid] = rank
            rank += 1
    return column


def priority_rank(placed: PlacedSchedule, pending: Iterable[str],
                  priority_order: Optional[Sequence[str]]) -> Dict[str, int]:
    """Rank map of the greedy dispatcher for a given priority order.

    The name-level view of the dispatcher's rank column: loads named by
    ``priority_order`` keep their position; pending loads missing from it
    are ordered after it by ideal start time.
    """
    core = placed.core
    rank: Dict[str, int] = {}
    for position, name in enumerate(priority_order or ()):
        rank.setdefault(name, position)
    mask = 0
    for name in pending:
        if name not in rank:
            mask |= 1 << core.index[placed.placement(name).name]
    column = _priority_column(core, mask, priority_order)
    for value, sid in sorted((column[sid], sid) for sid in core.start_ids
                             if (mask >> sid) & 1):
        rank[core.names[sid]] = value
    return rank


class ReplayState:
    """One snapshot of the greedy dispatcher replaying a placed schedule.

    States are created with :meth:`start`, grown with :meth:`extend` (or
    driven to completion with :meth:`run`) and materialized with
    :meth:`finish`.  ``extend`` never mutates its receiver: the parent
    state stays usable, which is what lets a depth-first search carry one
    state per tree node instead of replaying full orders at the leaves.

    All mutable state lives in dense per-id/per-resource columns (see the
    module docstring); ``pending_mask`` — the pending-load bitmask — and
    ``controller_time`` are public attributes so the branch-and-bound
    hot loop can read them without property indirection.
    """

    __slots__ = (
        "_core", "_placed", "latency", "on_demand", "release",
        "_weights", "_w", "_tails",
        "controller_time", "pending_mask", "_exec_time",
        "_done", "_constraint", "_starts", "_finishes", "_pred_left",
        "_loaded", "_load_finish", "_next_index", "_resource_free",
        "_exec_order", "_prev_free", "_load_ids", "_load_starts",
        "_load_finishes", "_floor", "_realized", "_undo",
    )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def start(cls, placed: PlacedSchedule,
              reconfiguration_latency: float,
              loads_needed: Iterable[str],
              *,
              on_demand: bool = False,
              release_time: float = 0.0,
              controller_available: Optional[float] = None,
              weights: Optional[Mapping[str, float]] = None,
              durations: Optional[Sequence[float]] = None
              ) -> "ReplayState":
        """Initial state: no load issued, executions advanced to quiescence.

        Parameters mirror :func:`repro.scheduling.evaluator.replay_schedule`;
        ``weights`` optionally enables the realized makespan floor used by
        branch-and-bound bounds (see the module docstring).  ``durations``
        (every subtask's realized execution time, a column indexed by
        subtask id) replaces the graph's execution times — realization
        only.
        """
        if reconfiguration_latency < 0:
            raise SchedulingError("reconfiguration latency must be non-negative")
        core = placed.core
        index = core.index
        pending = 0
        drhw_mask = core.drhw_mask
        for name in loads_needed:
            sid = index.get(name)
            if sid is None:
                placed.placement(name)  # raises UnknownSubtaskError
            bit = 1 << sid
            if bit & drhw_mask:
                pending |= bit

        total = core.total
        state = object.__new__(cls)
        state._core = core
        state._placed = placed
        state.latency = reconfiguration_latency
        state.on_demand = on_demand
        state.release = release_time
        state._weights = dict(weights) if weights is not None else None
        if state._weights is not None:
            weight_col = [0.0] * total
            for name, weight in state._weights.items():
                sid = index.get(name)
                if sid is not None:
                    weight_col[sid] = weight
            state._w = weight_col
            state._tails = [
                max((weight_col[succ] for succ in core.succs[sid]),
                    default=0.0)
                for sid in range(total)
            ]
        else:
            state._w = None
            state._tails = None
        state.controller_time = max(
            release_time,
            controller_available if controller_available is not None
            else release_time,
        )
        state.pending_mask = pending
        state._exec_time = (core.exec_time if durations is None
                            else list(durations))
        state._done = bytearray(total)
        state._constraint = bytearray(total)
        state._starts = [0.0] * total
        state._finishes = [0.0] * total
        state._pred_left = array("l", core.pred_count)
        state._loaded = bytearray(total)
        state._load_finish = [0.0] * total
        state._next_index = array("l", [0] * len(core.resources))
        state._resource_free = [release_time] * len(core.resources)
        state._exec_order = []
        state._prev_free = []
        state._load_ids = []
        state._load_starts = []
        state._load_finishes = []
        state._floor = release_time
        state._realized = release_time
        state._undo = []
        state._advance()
        return state

    def _clone(self) -> "ReplayState":
        child = object.__new__(ReplayState)
        child._core = self._core
        child._placed = self._placed
        child.latency = self.latency
        child.on_demand = self.on_demand
        child.release = self.release
        child._weights = self._weights
        child._w = self._w
        child._tails = self._tails
        child.controller_time = self.controller_time
        child.pending_mask = self.pending_mask
        child._exec_time = self._exec_time
        child._done = self._done[:]
        child._constraint = self._constraint[:]
        child._starts = self._starts[:]
        child._finishes = self._finishes[:]
        child._pred_left = self._pred_left[:]
        child._loaded = self._loaded[:]
        child._load_finish = self._load_finish[:]
        child._next_index = self._next_index[:]
        child._resource_free = self._resource_free[:]
        child._exec_order = self._exec_order[:]
        child._prev_free = self._prev_free[:]
        child._load_ids = self._load_ids[:]
        child._load_starts = self._load_starts[:]
        child._load_finishes = self._load_finishes[:]
        child._floor = self._floor
        child._realized = self._realized
        child._undo = []  # undo frames are not inherited: pops stay local
        return child

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def placed(self) -> PlacedSchedule:
        """The placed schedule this state replays."""
        return self._placed

    @property
    def pending_loads(self) -> frozenset:
        """Loads not yet issued (as names; the hot path uses the mask)."""
        names = self._core.names
        mask = self.pending_mask
        pending = []
        while mask:
            low = mask & -mask
            pending.append(names[low.bit_length() - 1])
            mask ^= low
        return frozenset(pending)

    @property
    def is_complete(self) -> bool:
        """``True`` once every subtask has executed."""
        return len(self._exec_order) >= self._core.total

    @property
    def makespan(self) -> float:
        """Finish time of the latest execution so far (absolute time).

        Tracked incrementally (and restored by :meth:`pop`), so reading it
        per search node costs O(1) instead of a scan over the executions.
        """
        return self._realized

    @property
    def undo_depth(self) -> int:
        """Number of pushed loads that :meth:`pop` could currently undo."""
        return len(self._undo)

    @property
    def critical_floor(self) -> float:
        """Realized lower bound on any completion's makespan.

        Only meaningful when the state was started with ``weights``: every
        executed entry contributes ``finish + longest successor chain`` and
        every issued load ``load finish + weight`` — both are times no
        completion of this prefix can beat.  Without weights this is just
        the realized makespan.
        """
        if self._w is None:
            return self._realized
        return self._floor

    @property
    def executions(self) -> Dict[str, ExecutionEntry]:
        """Executed entries so far, in execution order (built on demand)."""
        return self._view().executions

    @property
    def load_sequence(self) -> Tuple[str, ...]:
        """Names of the loads issued so far, in issue order."""
        names = self._core.names
        return tuple(names[lid] for lid in self._load_ids)

    # ------------------------------------------------------------------ #
    # Dispatch mechanics (mirrors the monolithic replay loop exactly)
    # ------------------------------------------------------------------ #
    def _predecessor_ready_time(self, sid: int) -> float:
        ready = self.release
        finishes = self._finishes
        for pid in self._core.preds[sid]:
            finish = finishes[pid]
            if finish > ready:
                ready = finish
        return ready

    def _advance(self) -> None:
        """Execute everything executable, in the monolith's batch order.

        A batch is every resource whose next subtask may run, in resource
        order.  Each execution is inline: the one implementation of the
        start-time and binding-constraint rule.
        """
        core = self._core
        sequences, seq_len = core.sequences, core.seq_len
        preds, succs = core.preds, core.succs
        next_index, pred_left = self._next_index, self._pred_left
        resource_free, exec_time = self._resource_free, self._exec_time
        starts, finishes = self._starts, self._finishes
        constraint, done = self._constraint, self._done
        loaded, load_finish = self._loaded, self._load_finish
        exec_order, prev_free = self._exec_order, self._prev_free
        tails = self._tails
        release, realized, floor = self.release, self._realized, self._floor
        resource_range = range(len(sequences))
        pending = self.pending_mask
        while True:
            batch = None
            for rid in resource_range:
                index = next_index[rid]
                if index >= seq_len[rid]:
                    continue
                head = sequences[rid][index]
                if pred_left[head] or (pending >> head) & 1:
                    continue
                if batch is None:
                    batch = [(head, rid)]
                else:
                    batch.append((head, rid))
            if batch is None:
                break
            for sid, rid in batch:
                ready = release
                for pid in preds[sid]:
                    finish = finishes[pid]
                    if finish > ready:
                        ready = finish
                free = resource_free[rid]
                start = release
                if ready > start:
                    start = ready
                if free > start:
                    start = free
                if loaded[sid]:
                    load_done = load_finish[sid]
                    if load_done > start:
                        start = load_done
                    # Binding constraint: first candidate (in RELEASE,
                    # PREDECESSOR, RESOURCE, LOAD order) within epsilon of
                    # the start...
                    eps_floor = start - TIME_EPSILON
                    if release >= eps_floor:
                        code = 0
                    elif ready >= eps_floor:
                        code = 1
                    elif free >= eps_floor:
                        code = 2
                    else:
                        code = 3
                    # ...but report LOAD only when it is strictly the
                    # binding reason (beyond every non-load candidate by
                    # more than eps).
                    if code != 3:
                        non_load = release
                        if ready > non_load:
                            non_load = ready
                        if free > non_load:
                            non_load = free
                        if load_done > non_load + TIME_EPSILON:
                            code = 3
                else:
                    eps_floor = start - TIME_EPSILON
                    if release >= eps_floor:
                        code = 0
                    elif ready >= eps_floor:
                        code = 1
                    else:
                        code = 2
                finish = start + exec_time[sid]
                starts[sid] = start
                finishes[sid] = finish
                constraint[sid] = code
                done[sid] = 1
                exec_order.append(sid)
                prev_free.append(free)
                resource_free[rid] = finish
                next_index[rid] += 1
                for succ in succs[sid]:
                    pred_left[succ] -= 1
                if finish > realized:
                    realized = finish
                if tails is not None:
                    finish += tails[sid]
                    if finish > floor:
                        floor = finish
        self._realized = realized
        self._floor = floor

    # ------------------------------------------------------------------ #
    # Load issue
    # ------------------------------------------------------------------ #
    def _issuable_ids(self) -> List[Tuple[int, float]]:
        """Pending loads at the head of their tile queue: (id, enable)."""
        found: List[Tuple[int, float]] = []
        core = self._core
        sequences = core.sequences
        seq_len = core.seq_len
        next_index = self._next_index
        resource_free = self._resource_free
        pending = self.pending_mask
        on_demand = self.on_demand
        pred_left = self._pred_left
        for rid in range(len(sequences)):
            index = next_index[rid]
            if index >= seq_len[rid]:
                continue
            head = sequences[rid][index]
            if not (pending >> head) & 1:
                continue
            enable = resource_free[rid]
            if on_demand:
                if pred_left[head]:
                    continue
                ready = self._predecessor_ready_time(head)
                if ready > enable:
                    enable = ready
            found.append((head, enable))
        return found

    def issuable(self) -> List[Tuple[str, float]]:
        """Pending loads at the head of their tile queue: (name, enable)."""
        names = self._core.names
        return [(names[sid], enable)
                for sid, enable in self._issuable_ids()]

    def choice_ids(self) -> List[Tuple[int, float]]:
        """The horizon-enabled candidates as interned ids (hot path).

        Same contract as :meth:`choices`, minus the name boundary: the
        branch-and-bound search consumes ids directly.
        """
        candidates = self._issuable_ids()
        if not candidates:
            return candidates
        horizon = min(enable for _, enable in candidates)
        if self.controller_time > horizon:
            horizon = self.controller_time
        horizon += TIME_EPSILON
        return [item for item in candidates if item[1] <= horizon]

    def choices(self) -> List[Tuple[str, float]]:
        """The horizon-enabled load candidates the dispatcher may issue next.

        The greedy dispatcher never idles the port past the earliest enable
        time of an issuable load, so only candidates enabled by
        ``max(port-free time, earliest enable)`` can be issued next — by any
        priority order.  Branching over this set explores exactly the
        priority-order schedule space.
        """
        names = self._core.names
        return [(names[sid], enable) for sid, enable in self.choice_ids()]

    def _issue(self, sid: int, enable: float,
               spans: Optional[Sequence[float]] = None) -> None:
        start = self.controller_time
        if enable > start:
            start = enable
        if spans is None:
            finish = start + self.latency
        else:
            # Failed attempts hold the port one span at a time; the load
            # completes at the end of the last (successful) span.
            for span in spans[:-1]:
                start += span
            finish = start + spans[-1]
        self._load_ids.append(sid)
        self._load_starts.append(start)
        self._load_finishes.append(finish)
        self._loaded[sid] = 1
        self._load_finish[sid] = finish
        self.controller_time = finish
        self.pending_mask &= ~(1 << sid)
        if self._w is not None:
            floor = finish + self._w[sid]
            if floor > self._floor:
                self._floor = floor
        self._advance()

    def extend(self, name: str) -> "ReplayState":
        """Issue ``name`` next and return the resulting state.

        ``name`` must be one of :meth:`choices`; the receiver is left
        untouched.  The cost is one dispatch step plus the executions the
        load unblocks (the snapshot copy is linear in the subtask count).
        """
        sid = self._core.index.get(name)
        if sid is not None:
            for candidate, enable in self.choice_ids():
                if candidate == sid:
                    child = self._clone()
                    child._issue(sid, enable)
                    return child
        raise SchedulingError(
            f"load {name!r} cannot be issued next: not a horizon-enabled "
            f"candidate of this replay state"
        )

    def issue(self, name: str, spans: Sequence[float]) -> None:
        """Issue ``name`` next **in place**, holding the port for ``spans``.

        The forced issue of realization: ``name`` only has to be
        structurally issuable (pending, at the head of its tile queue and,
        on demand, predecessor-complete) — never horizon-enabled — so a
        committed load order replays under any durations, because which
        loads are issuable depends on which loads were issued, never on
        times.  ``spans`` are the load's port spans in draw order: every
        failed attempt's span, then the successful attempt's duration.
        """
        core = self._core
        sid = core.index.get(name)
        if sid is not None and (self.pending_mask >> sid) & 1:
            rid = core.resource_of[sid]
            on_demand = self.on_demand
            # A pending subtask has not executed, so it heads its tile
            # queue exactly when the frontier sits at its position.
            if (self._next_index[rid] == core.position[sid]
                    and not (on_demand and self._pred_left[sid])):
                enable = self._resource_free[rid]
                if on_demand:
                    ready = self._predecessor_ready_time(sid)
                    if ready > enable:
                        enable = ready
                self._issue(sid, enable, spans)
                return
        raise SchedulingError(
            f"load {name!r} cannot be issued next: it is not pending at the "
            f"head of its tile queue"
        )

    def extend_choice(self, name: str, enable: float) -> "ReplayState":
        """Unchecked :meth:`extend` for a ``(name, enable)`` pair.

        The pair must come from this state's :meth:`choices` — the search
        loop already holds that list, so re-deriving it per child edge
        (as the validating :meth:`extend` does) would double the dispatch
        work on the branch-and-bound hot path.
        """
        child = self._clone()
        child._issue(self._core.index[name], enable)
        return child

    def push(self, name: str) -> float:
        """Issue ``name`` next **in place**, recording an undo frame.

        ``name`` must be one of :meth:`choices`.  Returns the latest finish
        time among the executions this push triggered (``-inf`` when the
        load unblocked nothing yet) — the *future contribution* of this
        dispatch step, which memoizing searches aggregate per subtree.  The
        matching :meth:`pop` restores the pre-push state exactly.
        """
        sid = self._core.index.get(name)
        if sid is not None:
            for candidate, enable in self.choice_ids():
                if candidate == sid:
                    return self.push_choice_id(sid, enable)
        raise SchedulingError(
            f"load {name!r} cannot be pushed next: not a horizon-enabled "
            f"candidate of this replay state"
        )

    def push_choice(self, name: str, enable: float) -> float:
        """Unchecked :meth:`push` for a ``(name, enable)`` pair from
        :meth:`choices` (same contract as :meth:`extend_choice`)."""
        return self.push_choice_id(self._core.index[name], enable)

    def push_choice_id(self, sid: int, enable: float) -> float:
        """Unchecked in-place issue of interned id ``sid`` (hot path).

        The ``(sid, enable)`` pair must come from :meth:`choice_ids`;
        same undo/return contract as :meth:`push`.
        """
        exec_order = self._exec_order
        mark = len(exec_order)
        self._undo.append((sid, self.controller_time, self._floor,
                           self._realized, mark))
        self._issue(sid, enable)
        if len(exec_order) == mark:
            return _NEG_INF
        finishes = self._finishes
        best = finishes[exec_order[mark]]
        for position in range(mark + 1, len(exec_order)):
            finish = finishes[exec_order[position]]
            if finish > best:
                best = finish
        return best

    def pop(self) -> str:
        """Undo the most recent :meth:`push` in place; returns its load.

        Every quantity a push touched is restored from its undo frame:
        the execution log's tail is replayed backwards (each affected
        resource gets its pre-execution free time and frontier index
        back), and the load entry, controller time, floors and realized
        makespan revert to their recorded values.
        """
        if not self._undo:
            raise SchedulingError(
                "pop() without a matching push() on this replay state"
            )
        sid, controller, floor, realized, mark = self._undo.pop()
        core = self._core
        resource_of = core.resource_of
        succs = core.succs
        done = self._done
        pred_left = self._pred_left
        resource_free = self._resource_free
        next_index = self._next_index
        exec_order = self._exec_order
        prev_free = self._prev_free
        for position in range(len(exec_order) - 1, mark - 1, -1):
            executed = exec_order[position]
            done[executed] = 0
            rid = resource_of[executed]
            resource_free[rid] = prev_free[position]
            next_index[rid] -= 1
            for succ in succs[executed]:
                pred_left[succ] += 1
        del exec_order[mark:]
        del prev_free[mark:]
        if not self._load_ids or self._load_ids[-1] != sid:
            latest = (self._core.names[self._load_ids[-1]]
                      if self._load_ids else None)
            raise SchedulingError(
                f"undo log out of sync: frame recorded "
                f"{core.names[sid]!r} but the latest load is {latest!r} "
                "(pop() cannot undo loads issued by run()/extend_greedy())"
            )
        self._load_ids.pop()
        self._load_starts.pop()
        self._load_finishes.pop()
        self._loaded[sid] = 0
        self.pending_mask |= 1 << sid
        self.controller_time = controller
        self._floor = floor
        self._realized = realized
        return core.names[sid]

    def _rank_column(self, rank: Mapping[str, int]) -> List[int]:
        """Per-id rank column for a name-keyed priority map."""
        column = [len(rank)] * self._core.total
        index = self._core.index
        for name, value in rank.items():
            sid = index.get(name)
            if sid is not None:
                column[sid] = value
        return column

    def extend_greedy(self, rank: Mapping[str, int]) -> "ReplayState":
        """Issue the highest-priority enabled load (the dispatcher's pick)."""
        enabled = self.choice_ids()
        if not enabled:
            raise self._stall_error()
        column = self._rank_column(rank)
        sorted_rank = self._core.sorted_rank
        sid, enable = min(
            enabled,
            key=lambda item: (column[item[0]], item[1],
                              sorted_rank[item[0]]),
        )
        child = self._clone()
        child._issue(sid, enable)
        return child

    def run(self, rank: Mapping[str, int]) -> "ReplayState":
        """Drive this state to completion under one priority rank (in place).

        This is the monolithic replay: repeatedly issue the greedy pick and
        advance.  It mutates and returns ``self`` — callers that need to
        branch must use :meth:`extend` instead.
        """
        return self._dispatch(self._rank_column(rank))

    def run_order(self, priority_order: Optional[Sequence[str]]
                  ) -> "ReplayState":
        """:meth:`run` under the rank :func:`priority_rank` gives this
        state's pending loads, with no name-keyed map in between."""
        return self._dispatch(_priority_column(self._core, self.pending_mask,
                                               priority_order))

    def _dispatch(self, column: Sequence[int]) -> "ReplayState":
        """The greedy dispatch loop: lowest rank, then enable, then name."""
        sorted_rank = self._core.sorted_rank
        total = self._core.total
        exec_order = self._exec_order
        while len(exec_order) < total:
            enabled = self.choice_ids()
            if not enabled:
                raise self._stall_error()
            if len(enabled) == 1:
                sid, enable = enabled[0]
            else:
                sid, enable = min(
                    enabled,
                    key=lambda item: (column[item[0]], item[1],
                                      sorted_rank[item[0]]),
                )
            self._issue(sid, enable)
        return self

    def _stall_error(self) -> InfeasibleScheduleError:
        graph = self._core.graph
        done = self._done
        index = self._core.index
        blocked = sorted(name for name in graph.subtask_names
                         if not done[index[name]])
        return InfeasibleScheduleError(
            f"schedule replay for graph {graph.name!r} stalled; blocked "
            f"subtasks: {blocked}"
        )

    # ------------------------------------------------------------------ #
    # Materialization & search support
    # ------------------------------------------------------------------ #
    def _view(self) -> TimedSchedule:
        """A view over a copy of the columns so far (pushes and pops
        never reach it)."""
        load_starts = self._load_starts
        return TimedSchedule.from_columns(
            self._placed, self.release,
            load_starts[0] if load_starts else self.controller_time,
            self._realized,
            ReplayColumns(self._exec_order[:], self._starts[:],
                          self._finishes[:], self._constraint[:],
                          self._load_ids[:], load_starts[:],
                          self._load_finishes[:]))

    def finish(self) -> TimedSchedule:
        """The completed replay as a :class:`TimedSchedule` view over a
        copy of its columns (entries are built on first read)."""
        if not self.is_complete:
            raise self._stall_error()
        return self._view()

    def signature(self) -> Tuple:
        """Canonical description of everything that shapes the future.

        Two states with equal signatures evolve identically from here on.
        The packed layout — one flat tuple of machine ints and floats,
        ``None``-separated sections (see the module docstring) — captures
        the pending-load bitmask, the port-free time, the frontier of
        every unfinished resource, the finish times of executed subtasks
        that still have unexecuted successors and the completion times of
        issued-but-not-yet-consumed loads.  Finished history that can no
        longer influence any future start is deliberately *forgotten*,
        which is what makes prefix permutations that converge to the same
        dispatcher state collide in a dominance table.

        The realized makespan is **not** part of the signature — it feeds
        the final result only through a ``max``, so among equal signatures
        the one with the smaller realized makespan dominates.
        """
        core = self._core
        seq_len = core.seq_len
        next_index = self._next_index
        resource_free = self._resource_free
        parts: List = [self.pending_mask, self.controller_time]
        for rid in range(len(seq_len)):
            index = next_index[rid]
            if index < seq_len[rid]:
                parts.append(rid)
                parts.append(index)
                parts.append(resource_free[rid])
        parts.append(None)
        done = self._done
        succs = core.succs
        finishes = self._finishes
        loaded = self._loaded
        load_finish = self._load_finish
        issued: List = []
        for sid in range(core.total):
            if done[sid]:
                for succ in succs[sid]:
                    if not done[succ]:
                        parts.append(sid)
                        parts.append(finishes[sid])
                        break
            elif loaded[sid]:
                issued.append(sid)
                issued.append(load_finish[sid])
        parts.append(None)
        parts.extend(issued)
        return tuple(parts)
