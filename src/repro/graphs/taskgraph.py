"""Subtask graphs.

A :class:`TaskGraph` is the static description of one *scenario* of a task:
a directed acyclic graph whose nodes are :class:`~repro.graphs.subtask.Subtask`
instances and whose edges express precedence, each annotated with the
amount of data communicated between producer and consumer.  The data size
is part of the graph format and of every content digest; no timing model
reads it, because inter-tile communication is free.

The graph keeps one adjacency in plain dicts.  Everything derived from it
(dense subtask ids, the topological order, the subtask weights) is computed
once into a :class:`GraphCore` on first use and cached on the graph until
the next ``add_subtask``/``add_dependency``.  Graphs are built and then only
read, so in practice each graph builds its core once.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..errors import (
    CycleError,
    DuplicateSubtaskError,
    GraphError,
    UnknownSubtaskError,
)
from .subtask import ResourceClass, Subtask, is_finite_number


class GraphCore(NamedTuple):
    """The structural answers of one :class:`TaskGraph`, as plain values.

    Subtask ``i`` is the ``i``-th subtask added: ``names[i]`` is its name
    and ``index`` maps a name back to its id.  ``preds[i]``/``succs[i]``
    are the ids of its direct neighbours in edge insertion order.
    ``order`` is the topological order as ids: the ready subtask added
    first always goes first.  ``weights[i]`` is the paper's subtask weight,
    the longest execution-time path from the start of subtask ``i`` to the
    end of the graph.

    A core holds only tuples, a dict and numbers, so graphs that carry one
    still pickle (worker processes receive graphs).
    """

    names: Tuple[str, ...]
    index: Dict[str, int]
    preds: Tuple[Tuple[int, ...], ...]
    succs: Tuple[Tuple[int, ...], ...]
    order: Tuple[int, ...]
    weights: Tuple[float, ...]


class TaskGraph:
    """A directed acyclic graph of subtasks.

    ``add_dependency`` refuses any edge that would close a cycle, so a
    graph is acyclic at every point of its construction.  Neighbour queries
    read the adjacency; ids, order and weights come from :attr:`core`.
    """

    def __init__(self, name: str, subtasks: Iterable[Subtask] = (),
                 dependencies: Iterable[Tuple[str, str]] = ()) -> None:
        if not name:
            raise GraphError("task graph name must be a non-empty string")
        self.name = name
        self._subtasks: Dict[str, Subtask] = {}
        #: producer -> {consumer: data_size}, in edge insertion order.
        self._succs: Dict[str, Dict[str, float]] = {}
        #: consumer -> [producers], in edge insertion order.
        self._preds: Dict[str, List[str]] = {}
        self._core: Optional[GraphCore] = None
        for subtask in subtasks:
            self.add_subtask(subtask)
        for producer, consumer in dependencies:
            self.add_dependency(producer, consumer)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_subtask(self, subtask: Subtask) -> Subtask:
        """Add ``subtask`` to the graph and return it.

        Raises
        ------
        DuplicateSubtaskError
            If a subtask with the same name is already present.
        """
        if subtask.name in self._subtasks:
            raise DuplicateSubtaskError(
                f"subtask {subtask.name!r} already present in graph {self.name!r}"
            )
        self._subtasks[subtask.name] = subtask
        self._succs[subtask.name] = {}
        self._preds[subtask.name] = []
        self._core = None
        return subtask

    def add_dependency(self, producer: str, consumer: str,
                       data_size: float = 0.0) -> None:
        """Add a precedence edge ``producer -> consumer``.

        ``data_size`` is the amount of data (in abstract units, e.g. bytes)
        transferred over the interconnection network.  It is stored and
        serialized with the graph, but no timing model reads it:
        communication between tiles is free.  Adding an existing edge again
        only updates its ``data_size``.
        """
        for endpoint in (producer, consumer):
            if endpoint not in self._subtasks:
                raise UnknownSubtaskError(
                    f"cannot add dependency: subtask {endpoint!r} is not part "
                    f"of graph {self.name!r}"
                )
        if producer == consumer:
            raise CycleError(
                f"self-dependency on subtask {producer!r} is not allowed"
            )
        if not is_finite_number(data_size) or data_size < 0:
            raise GraphError(
                f"data_size must be a finite non-negative number, "
                f"got {data_size!r}"
            )
        consumers = self._succs[producer]
        if consumer not in consumers:
            if self._reaches(consumer, producer):
                raise CycleError(
                    f"adding dependency {producer!r} -> {consumer!r} would "
                    f"create a cycle in graph {self.name!r}"
                )
            self._preds[consumer].append(producer)
        consumers[consumer] = data_size
        self._core = None

    def _reaches(self, start: str, goal: str) -> bool:
        """Whether ``goal`` is a descendant of ``start``."""
        seen = {start}
        stack = [start]
        while stack:
            for successor in self._succs[stack.pop()]:
                if successor == goal:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def core(self) -> GraphCore:
        """The cached :class:`GraphCore`, built on first use after an edit."""
        core = self._core
        if core is None:
            core = self._core = self._build_core()
        return core

    def _build_core(self) -> GraphCore:
        names = tuple(self._subtasks)
        index = {name: sid for sid, name in enumerate(names)}
        preds = tuple(tuple(index[p] for p in self._preds[name])
                      for name in names)
        succs = tuple(tuple(index[s] for s in self._succs[name])
                      for name in names)
        # Kahn's algorithm with a min-heap of ids: among the ready subtasks
        # the one added first goes next, which makes the order unique.
        waiting = [len(p) for p in preds]
        ready = [sid for sid, count in enumerate(waiting) if not count]
        order: List[int] = []
        while ready:
            sid = heappop(ready)
            order.append(sid)
            for successor in succs[sid]:
                waiting[successor] -= 1
                if not waiting[successor]:
                    heappush(ready, successor)
        weights = [0.0] * len(names)
        for sid in reversed(order):
            tail = max((weights[s] for s in succs[sid]), default=0.0)
            weights[sid] = self._subtasks[names[sid]].execution_time + tail
        return GraphCore(names, index, preds, succs, tuple(order),
                         tuple(weights))

    def __len__(self) -> int:
        return len(self._subtasks)

    def __iter__(self) -> Iterator[Subtask]:
        return iter(self._subtasks.values())

    def __contains__(self, name: object) -> bool:
        return name in self._subtasks

    def subtask(self, name: str) -> Subtask:
        """Return the subtask called ``name``."""
        try:
            return self._subtasks[name]
        except KeyError as exc:
            raise UnknownSubtaskError(
                f"subtask {name!r} is not part of graph {self.name!r}"
            ) from exc

    @property
    def subtask_names(self) -> List[str]:
        """Names of all subtasks, in insertion order."""
        return list(self._subtasks)

    @property
    def subtasks(self) -> List[Subtask]:
        """All subtasks, in insertion order."""
        return list(self._subtasks.values())

    @property
    def drhw_subtasks(self) -> List[Subtask]:
        """Subtasks mapped onto DRHW tiles (the ones that may need loads)."""
        return [s for s in self._subtasks.values()
                if s.resource is ResourceClass.DRHW]

    @property
    def isp_subtasks(self) -> List[Subtask]:
        """Subtasks mapped onto instruction-set processors."""
        return [s for s in self._subtasks.values()
                if s.resource is ResourceClass.ISP]

    @property
    def configurations(self) -> List[str]:
        """Distinct configuration identifiers used by the DRHW subtasks."""
        seen: Dict[str, None] = {}
        for subtask in self.drhw_subtasks:
            seen.setdefault(subtask.configuration, None)
        return list(seen)

    def dependencies(self) -> List[Tuple[str, str]]:
        """All precedence edges as ``(producer, consumer)`` pairs.

        Producers come in subtask insertion order and each producer's
        consumers in edge insertion order; serialized graphs, and so every
        cache key derived from them, depend on this order.
        """
        return [(producer, consumer)
                for producer, consumers in self._succs.items()
                for consumer in consumers]

    def data_size(self, producer: str, consumer: str) -> float:
        """Data transferred over the edge ``producer -> consumer``."""
        try:
            return float(self._succs[producer][consumer])
        except KeyError as exc:
            raise GraphError(
                f"no dependency {producer!r} -> {consumer!r} in graph "
                f"{self.name!r}"
            ) from exc

    def predecessors(self, name: str) -> List[str]:
        """Names of the direct predecessors of ``name``."""
        self.subtask(name)
        return list(self._preds[name])

    def successors(self, name: str) -> List[str]:
        """Names of the direct successors of ``name``."""
        self.subtask(name)
        return list(self._succs[name])

    def sources(self) -> List[str]:
        """Subtasks with no predecessors."""
        return [name for name, producers in self._preds.items()
                if not producers]

    def sinks(self) -> List[str]:
        """Subtasks with no successors."""
        return [name for name, consumers in self._succs.items()
                if not consumers]

    def topological_order(self) -> List[str]:
        """A deterministic topological ordering of the subtask names.

        Ties are broken by insertion order so that repeated calls (and
        therefore every scheduler built on top of this method) are fully
        deterministic.
        """
        core = self.core
        names = core.names
        return [names[sid] for sid in core.order]

    def execution_time(self, name: str) -> float:
        """Execution time of the subtask called ``name``."""
        return self.subtask(name).execution_time

    @property
    def total_execution_time(self) -> float:
        """Sum of all subtask execution times (serial lower bound on work)."""
        return sum(s.execution_time for s in self._subtasks.values())

    def critical_path_length(self) -> float:
        """Length (in time) of the longest path through the graph.

        This is the makespan lower bound for any schedule, i.e. the "ideal
        execution time" when an unlimited number of tiles is available and
        reconfiguration is free.
        """
        # Summed forward, as a schedule adds; ``max(core.weights)`` sums
        # each path backward and can differ in the last bit.
        core = self.core
        finish = [0.0] * len(core.names)
        for sid in core.order:
            ready = max((finish[p] for p in core.preds[sid]), default=0.0)
            finish[sid] = (ready
                           + self._subtasks[core.names[sid]].execution_time)
        return max(finish, default=0.0)

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "TaskGraph":
        """Return a deep copy of the graph, optionally renamed."""
        clone = TaskGraph(name or self.name)
        for subtask in self._subtasks.values():
            clone.add_subtask(subtask)
        for producer, consumers in self._succs.items():
            for consumer, data_size in consumers.items():
                clone.add_dependency(producer, consumer, data_size=data_size)
        return clone

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TaskGraph(name={self.name!r}, subtasks={len(self)}, "
            f"dependencies={len(self.dependencies())})"
        )


def chain_graph(name: str, execution_times: Sequence[float],
                prefix: str = "s") -> TaskGraph:
    """Build a purely sequential task graph ``s0 -> s1 -> ... -> sN``."""
    graph = TaskGraph(name)
    previous: Optional[str] = None
    for index, execution_time in enumerate(execution_times):
        subtask = Subtask(name=f"{prefix}{index}", execution_time=execution_time)
        graph.add_subtask(subtask)
        if previous is not None:
            graph.add_dependency(previous, subtask.name)
        previous = subtask.name
    return graph


def fork_join_graph(name: str, fork_time: float,
                    branch_times: Sequence[float], join_time: float,
                    prefix: str = "s") -> TaskGraph:
    """Build a fork/join graph: one source, parallel branches, one sink."""
    graph = TaskGraph(name)
    source = Subtask(name=f"{prefix}_fork", execution_time=fork_time)
    sink = Subtask(name=f"{prefix}_join", execution_time=join_time)
    graph.add_subtask(source)
    branch_names = []
    for index, execution_time in enumerate(branch_times):
        branch = Subtask(name=f"{prefix}{index}", execution_time=execution_time)
        graph.add_subtask(branch)
        branch_names.append(branch.name)
    graph.add_subtask(sink)
    for branch_name in branch_names:
        graph.add_dependency(source.name, branch_name)
        graph.add_dependency(branch_name, sink.name)
    return graph
