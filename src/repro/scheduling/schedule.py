"""Schedule data structures.

Two kinds of schedules appear throughout the library:

* The **placed schedule** (:class:`PlacedSchedule`) is the output of the
  initial multiprocessor scheduler (the stand-in for the TCM design-time
  scheduler).  It assigns every subtask to a processing element and gives it
  a start time *neglecting the reconfiguration overhead* — exactly the input
  the paper's prefetch problem starts from ("Given an initial subtask
  schedule that neglects the reconfiguration latency ...").

* The **timed schedule** (:class:`TimedSchedule`) is the result of replaying
  a placed schedule while accounting for configuration loads on the single
  reconfiguration port.  It records when every load and every execution
  actually happened, which subtasks were delayed by their own load, and the
  resulting makespan/overhead.

:func:`placed_schedule_to_dict` and :func:`placed_schedule_from_dict` are
the one JSON form of a placed schedule: the exploration cache and the
design-store files write it, and the transposition store hashes it with
the placements sorted by subtask.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..errors import ConfigurationError, SchedulingError, UnknownSubtaskError
from ..graphs.serialization import graph_from_dict, graph_to_dict
from ..graphs.subtask import ResourceClass
from ..graphs.taskgraph import TaskGraph

#: Numerical tolerance used when comparing schedule times.
TIME_EPSILON = 1e-9


class ResourceKind(str, Enum):
    """Kind of processing element a subtask is placed on."""

    TILE = "tile"
    ISP = "isp"


@dataclass(frozen=True, order=True)
class ResourceId:
    """Identifier of one processing element of the platform.

    Its hash is computed once, from ints only (the same in every
    interpreter, so a pickled id hashes like a freshly built one).
    """

    kind: ResourceKind
    index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash",
                           hash((self.kind is ResourceKind.TILE, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.kind.value}{self.index}"

    @property
    def is_tile(self) -> bool:
        """``True`` for DRHW tiles (the only resources that need loads)."""
        return self.kind is ResourceKind.TILE


def tile_resource(index: int) -> ResourceId:
    """Shorthand for the DRHW tile with the given index."""
    return ResourceId(ResourceKind.TILE, index)


def isp_resource(index: int) -> ResourceId:
    """Shorthand for the instruction-set processor with the given index."""
    return ResourceId(ResourceKind.ISP, index)


@dataclass(frozen=True)
class PlacedSubtask:
    """Placement of one subtask in the initial (reconfiguration-free) schedule."""

    name: str
    resource: ResourceId
    start: float
    finish: float

    @property
    def duration(self) -> float:
        """Execution time of the subtask."""
        return self.finish - self.start


class PlacedSchedule:
    """Assignment + ordering + ideal timing of one task graph.

    The placed schedule is immutable once built.  It knows nothing about
    reconfiguration: its start times are the "ideal" times the overhead
    metrics are measured against.  Its views are computed once, in
    ``__init__`` (the accessors return fresh lists and dicts), and the
    run-time facts the per-task path reads live on :attr:`core`.
    """

    def __init__(self, graph: TaskGraph,
                 placements: Mapping[str, PlacedSubtask]) -> None:
        self.graph = graph
        missing = [name for name in graph.subtask_names if name not in placements]
        if missing:
            raise SchedulingError(
                f"placed schedule for graph {graph.name!r} is missing "
                f"placements for: {missing}"
            )
        extra = [name for name in placements if name not in graph]
        if extra:
            raise SchedulingError(
                f"placed schedule for graph {graph.name!r} places unknown "
                f"subtasks: {extra}"
            )
        self._placements: Dict[str, PlacedSubtask] = dict(placements)
        order: Dict[ResourceId, List[str]] = {}
        for placement in sorted(self._placements.values(),
                                key=lambda p: (p.start, p.name)):
            order.setdefault(placement.resource, []).append(placement.name)
        self._resource_order: Dict[ResourceId, Tuple[str, ...]] = {
            resource: tuple(names) for resource, names in order.items()}
        self._resources = tuple(sorted(self._resource_order))
        self._tiles_used = tuple(r for r in self._resources if r.is_tile)
        self._drhw_names = tuple(n for n, p in self._placements.items()
                                 if p.resource.is_tile)
        self._first_on_tile = {r: names[0] for r, names
                               in self._resource_order.items() if r.is_tile}
        self._makespan = max((p.finish for p in self._placements.values()),
                             default=0.0)
        self._core = None
        self._validate()

    def __getstate__(self) -> Dict[str, object]:
        # Cores are interned per process: re-intern by digest on first use.
        return {**self.__dict__, "_core": None}

    @property
    def core(self):
        """The interned :class:`~repro.scheduling.replay._ReplayCore`,
        built on first use and shared by content-equal schedules."""
        core = self._core
        if core is None:
            from .replay import _intern_core

            core = self._core = _intern_core(self)
        return core

    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        graph = self.graph
        for name, placement in self._placements.items():
            subtask = graph.subtask(name)
            expected_kind = (ResourceKind.TILE
                             if subtask.resource is ResourceClass.DRHW
                             else ResourceKind.ISP)
            if placement.resource.kind is not expected_kind:
                raise SchedulingError(
                    f"subtask {name!r} ({subtask.resource.value}) placed on "
                    f"incompatible resource {placement.resource}"
                )
            if placement.finish - placement.start < -TIME_EPSILON:
                raise SchedulingError(
                    f"subtask {name!r} has negative duration in placed schedule"
                )
            if abs(placement.duration - subtask.execution_time) > 1e-6:
                raise SchedulingError(
                    f"subtask {name!r} placed with duration {placement.duration} "
                    f"but its execution time is {subtask.execution_time}"
                )
        for producer, consumer in graph.dependencies():
            if (self._placements[consumer].start
                    < self._placements[producer].finish - TIME_EPSILON):
                raise SchedulingError(
                    f"placed schedule violates dependency {producer!r} -> "
                    f"{consumer!r}"
                )
        for resource, names in self._resource_order.items():
            for earlier, later in zip(names, names[1:]):
                if (self._placements[later].start
                        < self._placements[earlier].finish - TIME_EPSILON):
                    raise SchedulingError(
                        f"placed schedule overlaps subtasks {earlier!r} and "
                        f"{later!r} on resource {resource}"
                    )

    # ------------------------------------------------------------------ #
    def placement(self, name: str) -> PlacedSubtask:
        """Placement record of the subtask called ``name``."""
        try:
            return self._placements[name]
        except KeyError as exc:
            raise UnknownSubtaskError(
                f"subtask {name!r} is not part of this placed schedule"
            ) from exc

    def resource_of(self, name: str) -> ResourceId:
        """Resource the subtask called ``name`` is placed on."""
        return self.placement(name).resource

    def ideal_start(self, name: str) -> float:
        """Start time of ``name`` in the reconfiguration-free schedule."""
        return self.placement(name).start

    def ideal_finish(self, name: str) -> float:
        """Finish time of ``name`` in the reconfiguration-free schedule."""
        return self.placement(name).finish

    @property
    def placements(self) -> Dict[str, PlacedSubtask]:
        """All placements, keyed by subtask name."""
        return dict(self._placements)

    @property
    def resources(self) -> List[ResourceId]:
        """Resources actually used by the schedule, in sorted order."""
        return list(self._resources)

    @property
    def tiles_used(self) -> List[ResourceId]:
        """DRHW tiles actually used by the schedule."""
        return list(self._tiles_used)

    def resource_order(self, resource: ResourceId) -> List[str]:
        """Subtasks placed on ``resource``, ordered by ideal start time."""
        return list(self._resource_order.get(resource, ()))

    def position_on_resource(self, name: str) -> int:
        """Zero-based position of ``name`` in its resource's ordering."""
        placement = self.placement(name)
        return self._resource_order[placement.resource].index(name)

    def previous_on_resource(self, name: str) -> Optional[str]:
        """Subtask executed immediately before ``name`` on the same resource."""
        placement = self.placement(name)
        order = self._resource_order[placement.resource]
        index = order.index(name)
        return order[index - 1] if index > 0 else None

    @property
    def makespan(self) -> float:
        """Ideal makespan (finish of the last subtask, no reconfiguration)."""
        return self._makespan

    @property
    def drhw_names(self) -> List[str]:
        """Names of the subtasks placed on DRHW tiles."""
        return list(self._drhw_names)

    def first_on_tile(self) -> Dict[ResourceId, str]:
        """The first subtask scheduled on every used tile.

        Only these subtasks can reuse a configuration left over from a
        previous task execution (later subtasks on the same tile overwrite
        whatever was resident).
        """
        return dict(self._first_on_tile)


# ---------------------------------------------------------------------- #
# Timed schedules (with reconfiguration)
# ---------------------------------------------------------------------- #
class StartConstraint(str, Enum):
    """Which constraint determined a subtask's actual start time."""

    RELEASE = "release"
    PREDECESSOR = "predecessor"
    RESOURCE = "resource"
    LOAD = "load"


@dataclass(frozen=True)
class LoadEntry:
    """One configuration load in a timed schedule."""

    subtask: str
    configuration: str
    resource: ResourceId
    start: float
    finish: float

    @property
    def duration(self) -> float:
        """Time the load occupied the reconfiguration port."""
        return self.finish - self.start


@dataclass(frozen=True)
class ExecutionEntry:
    """One subtask execution in a timed schedule."""

    subtask: str
    resource: ResourceId
    start: float
    finish: float
    constraint: StartConstraint
    ideal_start: float

    @property
    def delay(self) -> float:
        """How much later the subtask started compared to the ideal schedule."""
        return max(0.0, self.start - self.ideal_start)

    @property
    def load_bound(self) -> bool:
        """``True`` when the configuration load was the binding constraint."""
        return self.constraint is StartConstraint.LOAD


#: Decode table of the constraint code the replay kernel stores per
#: execution.  Order matters: it is the candidate priority order of the
#: dispatcher's tie-break (:meth:`.replay.ReplayState._advance`).
CONSTRAINTS = (StartConstraint.RELEASE, StartConstraint.PREDECESSOR,
               StartConstraint.RESOURCE, StartConstraint.LOAD)


class ReplayColumns(NamedTuple):
    """A replay's result as columns; ids index ``placed.core.names``.

    ``starts``, ``finishes`` and ``codes`` (into :data:`CONSTRAINTS`) are
    indexed by subtask id, valid for the ids in ``order`` (the executed
    ids, in execution order); the load columns run in issue order.
    """

    order: List[int]
    starts: List[float]
    finishes: List[float]
    codes: bytearray
    load_ids: List[int]
    load_starts: List[float]
    load_finishes: List[float]


class TimedSchedule:
    """Replay of a placed schedule with reconfiguration loads included.

    A view over the replay kernel's :class:`ReplayColumns` (see
    :meth:`~repro.scheduling.replay.ReplayState.finish`): the per-task
    path reads :attr:`columns` by subtask id, and the :attr:`executions`
    and :attr:`loads` entries are built on first read.  Built from entries
    (the constructor; a pickle carries the entries), it derives the
    columns on first read instead.  Equality compares the placed schedule,
    entries, release time and controller start; it is unhashable.
    """

    __slots__ = ("placed", "release_time", "controller_start", "makespan",
                 "_columns", "_executions", "_loads")
    __hash__ = None

    def __init__(self, placed: PlacedSchedule,
                 executions: Dict[str, ExecutionEntry],
                 loads: Tuple[LoadEntry, ...], release_time: float,
                 controller_start: float) -> None:
        self.placed = placed
        self.release_time = release_time
        self.controller_start = controller_start
        # Finish of the last execution, or the release when none executed.
        self.makespan = max((entry.finish for entry in executions.values()),
                            default=release_time)
        self._columns: Optional[ReplayColumns] = None
        self._executions = executions
        self._loads = loads

    @classmethod
    def from_columns(cls, placed: PlacedSchedule, release_time: float,
                     controller_start: float, makespan: float,
                     columns: ReplayColumns) -> "TimedSchedule":
        """The view over a replay's ``columns`` (they must not change)."""
        timed = object.__new__(cls)
        timed.placed = placed
        timed.release_time = release_time
        timed.controller_start = controller_start
        timed.makespan = makespan
        timed._columns = columns
        timed._executions = timed._loads = None
        return timed

    @property
    def columns(self) -> ReplayColumns:
        """The replay's columns, indexed by subtask id."""
        if self._columns is None:
            core = self.placed.core
            index, loads = core.index, self._loads
            order = [index[name] for name in self._executions]
            starts, finishes = [0.0] * core.total, [0.0] * core.total
            codes = bytearray(core.total)
            for sid, entry in zip(order, self._executions.values()):
                starts[sid], finishes[sid] = entry.start, entry.finish
                codes[sid] = CONSTRAINTS.index(entry.constraint)
            self._columns = ReplayColumns(
                order, starts, finishes, codes,
                [index[load.subtask] for load in loads],
                [load.start for load in loads],
                [load.finish for load in loads])
        return self._columns

    @property
    def executions(self) -> Dict[str, ExecutionEntry]:
        """Every execution entry, by subtask name, in execution order."""
        if self._executions is None:
            core = self.placed.core
            names, resources = core.names, core.resources
            resource_of, ideal_start = core.resource_of, core.ideal_start
            order, starts, finishes, codes = self._columns[:4]
            release = self.release_time
            self._executions = {names[sid]: ExecutionEntry(
                subtask=names[sid],
                resource=resources[resource_of[sid]],
                start=starts[sid],
                finish=finishes[sid],
                constraint=CONSTRAINTS[codes[sid]],
                ideal_start=release + ideal_start[sid],
            ) for sid in order}
        return self._executions

    @property
    def loads(self) -> Tuple[LoadEntry, ...]:
        """Every configuration load, in issue order."""
        if self._loads is None:
            core = self.placed.core
            columns = self._columns
            self._loads = tuple(LoadEntry(
                subtask=core.names[lid],
                configuration=core.configuration[lid],
                resource=core.resources[core.resource_of[lid]],
                start=start,
                finish=finish,
            ) for lid, start, finish in zip(
                columns.load_ids, columns.load_starts, columns.load_finishes))
        return self._loads

    def _fields(self) -> tuple:
        return (self.placed, self.executions, self.loads, self.release_time,
                self.controller_start)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __reduce__(self):
        return (self.__class__, self._fields())

    def __repr__(self) -> str:
        return ("TimedSchedule(placed={!r}, executions={!r}, loads={!r}, "
                "release_time={!r}, controller_start={!r})").format(
                    *self._fields())

    @property
    def ideal_makespan(self) -> float:
        """Makespan of the underlying reconfiguration-free schedule."""
        return self.placed.makespan

    @property
    def span(self) -> float:
        """Duration of the task execution measured from its release time."""
        return self.makespan - self.release_time

    @property
    def overhead(self) -> float:
        """Absolute reconfiguration overhead (time added by the loads)."""
        return max(0.0, self.span - self.ideal_makespan)

    @property
    def overhead_ratio(self) -> float:
        """Overhead as a fraction of the ideal makespan."""
        if self.ideal_makespan <= 0:
            return 0.0
        return self.overhead / self.ideal_makespan

    @property
    def overhead_percent(self) -> float:
        """Overhead as a percentage of the ideal makespan."""
        return 100.0 * self.overhead_ratio

    @property
    def load_count(self) -> int:
        """Number of configuration loads performed."""
        return len(self.columns.load_ids)

    def delayed_subtasks(self, epsilon: float = TIME_EPSILON) -> List[str]:
        """Subtasks that started later than in the ideal schedule."""
        return [name for name, entry in self.executions.items()
                if entry.delay > epsilon]

    def delay_generating_subtasks(self, epsilon: float = TIME_EPSILON) -> List[str]:
        """Subtasks whose own configuration load caused their delay.

        These are the candidates for the Critical Subtask subset in the
        design-time phase of the hybrid heuristic: subtasks that were both
        delayed and whose binding start constraint was their load.
        """
        return [name for name, entry in self.executions.items()
                if entry.load_bound and entry.delay > epsilon]

    def hidden_load_count(self, epsilon: float = TIME_EPSILON) -> int:
        """Number of loads whose latency was completely hidden.

        A load is hidden when the subtask it configures starts at the same
        time it would have started in the reconfiguration-free schedule
        (accounting for delays propagated from its predecessors is done via
        the binding-constraint flag).
        """
        loaded = {entry.subtask for entry in self.loads}
        hidden = 0
        for name in loaded:
            execution = self.executions[name]
            if not (execution.load_bound and execution.delay > epsilon):
                hidden += 1
        return hidden

    def hidden_load_fraction(self, epsilon: float = TIME_EPSILON) -> float:
        """Fraction of loads whose latency was completely hidden."""
        if not self.loads:
            return 1.0
        return self.hidden_load_count(epsilon) / len(self.loads)

    def controller_idle_tail(self) -> float:
        """Idle time of the reconfiguration port at the end of the task.

        This is the window the run-time inter-task optimization can use to
        prefetch critical subtasks of the subsequent task.
        """
        if not self.loads:
            return self.span
        last_load_finish = max(load.finish for load in self.loads)
        return max(0.0, self.makespan - last_load_finish)

    def gantt_rows(self) -> List[Tuple[str, str, float, float]]:
        """Rows for a textual Gantt chart: (lane, label, start, finish)."""
        rows: List[Tuple[str, str, float, float]] = []
        for load in self.loads:
            rows.append(("reconfiguration", f"L {load.subtask}",
                         load.start, load.finish))
        for name, entry in self.executions.items():
            rows.append((str(entry.resource), f"Ex {name}",
                         entry.start, entry.finish))
        rows.sort(key=lambda row: (row[0], row[2]))
        return rows


# ---------------------------------------------------------------------- #
# Placed-schedule (de)serialization
# ---------------------------------------------------------------------- #
def placed_schedule_to_dict(placed: PlacedSchedule) -> Dict[str, Any]:
    """Convert a placed schedule into a JSON-serializable dictionary."""
    return {
        "graph": graph_to_dict(placed.graph),
        "placements": [
            {
                "subtask": placement.name,
                "resource_kind": placement.resource.kind.value,
                "resource_index": placement.resource.index,
                "start": placement.start,
                "finish": placement.finish,
            }
            for placement in placed.placements.values()
        ],
    }


def placed_schedule_from_dict(payload: Dict[str, Any]) -> PlacedSchedule:
    """Rebuild a placed schedule from :func:`placed_schedule_to_dict` output."""
    try:
        graph = graph_from_dict(payload["graph"])
        placements = {}
        for item in payload["placements"]:
            resource = ResourceId(ResourceKind(item["resource_kind"]),
                                  int(item["resource_index"]))
            placements[item["subtask"]] = PlacedSubtask(
                name=item["subtask"],
                resource=resource,
                start=float(item["start"]),
                finish=float(item["finish"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed placed-schedule payload: {exc}"
        ) from exc
    return PlacedSchedule(graph, placements)
