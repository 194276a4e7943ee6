"""Structural validation of subtask graphs.

The constructors in :mod:`repro.graphs.taskgraph` already reject duplicate
names eagerly, and ``add_dependency`` refuses any edge that would close a
cycle, so every graph is acyclic; this module adds the whole-graph checks
that are only meaningful once construction has finished (connectivity,
sensible execution times, configuration sharing rules, ...).  Schedulers call
:func:`validate_graph` before accepting a graph so that malformed inputs are
reported with a clear message instead of surfacing as obscure scheduling
failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..errors import GraphError
from .subtask import ResourceClass
from .taskgraph import TaskGraph


@dataclass
class ValidationReport:
    """Outcome of validating a task graph.

    ``errors`` are violations that make the graph unusable; ``warnings`` are
    suspicious-but-legal properties (e.g. a disconnected graph) that are
    worth surfacing but do not prevent scheduling.
    """

    graph_name: str
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        """``True`` when no errors were found."""
        return not self.errors

    def raise_if_invalid(self) -> None:
        """Raise :class:`~repro.errors.GraphError` when errors were found."""
        if self.errors:
            details = "; ".join(self.errors)
            raise GraphError(
                f"task graph {self.graph_name!r} failed validation: {details}"
            )


def validate_graph(graph: TaskGraph, require_drhw: bool = False) -> ValidationReport:
    """Validate ``graph`` and return a :class:`ValidationReport`.

    Parameters
    ----------
    graph:
        The graph to validate.
    require_drhw:
        When true, an empty set of DRHW subtasks is reported as an error
        (the prefetch problem is vacuous without reconfigurable subtasks).
    """
    report = ValidationReport(graph_name=graph.name)

    if len(graph) == 0:
        report.errors.append("graph has no subtasks")
        return report

    for subtask in graph:
        if subtask.execution_time <= 0:
            report.errors.append(
                f"subtask {subtask.name!r} has non-positive execution time"
            )
        if subtask.resource is ResourceClass.DRHW and not subtask.configuration:
            report.errors.append(
                f"DRHW subtask {subtask.name!r} has no configuration identifier"
            )

    if require_drhw and not graph.drhw_subtasks:
        report.errors.append("graph has no DRHW subtasks")

    components = _component_count(graph)
    if components > 1:
        report.warnings.append(
            f"graph is disconnected ({components} weakly connected components)"
        )

    configuration_owners = {}
    for subtask in graph.drhw_subtasks:
        owner = configuration_owners.setdefault(subtask.configuration, subtask.name)
        if owner != subtask.name:
            report.warnings.append(
                f"configuration {subtask.configuration!r} is shared by subtasks "
                f"{owner!r} and {subtask.name!r}"
            )

    return report


def _component_count(graph: TaskGraph) -> int:
    """Number of weakly connected components of ``graph`` (union-find)."""
    parent = list(range(len(graph)))

    def root(sid: int) -> int:
        while parent[sid] != sid:
            parent[sid] = parent[parent[sid]]
            sid = parent[sid]
        return sid

    for sid, successors in enumerate(graph.core.succs):
        for successor in successors:
            parent[root(successor)] = root(sid)
    return sum(1 for sid, up in enumerate(parent) if sid == up)


def assert_valid(graph: TaskGraph, require_drhw: bool = False) -> TaskGraph:
    """Validate ``graph`` and return it, raising on any error."""
    validate_graph(graph, require_drhw=require_drhw).raise_if_invalid()
    return graph
