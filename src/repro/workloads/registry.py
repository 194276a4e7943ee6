"""The single workload registry behind specs, the service and the CLI.

One decorator-based registry names every workload family and every task
graph:

* :func:`register_workload` registers a *workload factory* — a callable
  building a :class:`~repro.workloads.base.Workload` from scalar keyword
  options — under a name, optionally with an ``options_schema`` that
  validates option names and types at :class:`~repro.runner.spec.WorkloadSpec`
  construction time (before any work starts, and before a bad option can
  reach a worker process);
* :func:`register_task_graph` registers a zero-argument
  :class:`~repro.graphs.taskgraph.TaskGraph` factory addressable from
  ``/schedule`` requests and ``repro demo``;
* :func:`spec_for_instance` inverts registration: given a live workload it
  recovers ``(name, options)`` through the
  :meth:`~repro.workloads.base.Workload.spec_options` hook, which is what
  lets *any* registered family — including trace-driven workloads —
  serialize into sweep cache keys without touching ``spec.py``.

Registration happens at import time in the family modules
(:mod:`~repro.workloads.multimedia`, :mod:`~repro.workloads.pocketgl`,
:mod:`~repro.workloads.synthetic`, :mod:`~repro.workloads.traces`), all of
which are pulled in by importing :mod:`repro.workloads`.  Only
module-level factories belong in the registry: worker processes resolve
names through it after importing the package afresh.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Type

from ..errors import ConfigurationError
from ..graphs.taskgraph import TaskGraph
from .base import Workload

#: A normalized options schema: option name -> tuple of accepted types.
_Schema = Dict[str, Tuple[type, ...]]

#: Guards registration/unregistration (import-time and tests only; lookups
#: read immutable entries out of plain dicts, which is atomic in CPython).
_LOCK = threading.Lock()


class _WorkloadEntry:
    """One registered workload family (immutable after registration)."""

    __slots__ = ("name", "factory", "options_schema", "instance_class")

    def __init__(self, name: str, factory: Callable[..., Workload],
                 options_schema: Optional[_Schema],
                 instance_class: Optional[Type[Workload]]) -> None:
        self.name = name
        self.factory = factory
        self.options_schema = options_schema
        self.instance_class = instance_class


_WORKLOADS: Dict[str, _WorkloadEntry] = {}
_TASK_GRAPHS: Dict[str, Callable[[], TaskGraph]] = {}


def _normalize_schema(schema: Optional[Mapping[str, object]]
                      ) -> Optional[_Schema]:
    """Expand a ``{name: type-or-types}`` schema into accepted-type tuples.

    ``float`` options accept ints too (JSON and CLI surfaces produce
    ``4`` as readily as ``4.0``); ``bool`` never satisfies an ``int`` or
    ``float`` slot despite being an ``int`` subclass.
    """
    if schema is None:
        return None
    normalized: _Schema = {}
    for key, declared in schema.items():
        types = declared if isinstance(declared, tuple) else (declared,)
        accepted: List[type] = []
        for entry in types:
            if entry is None:
                entry = type(None)
            if not isinstance(entry, type):
                raise ConfigurationError(
                    f"options_schema[{key!r}] must map to types, "
                    f"got {entry!r}"
                )
            accepted.append(entry)
            if entry is float:
                accepted.append(int)
        normalized[key] = tuple(dict.fromkeys(accepted))
    return normalized


# --------------------------------------------------------------------- #
# Workload families
# --------------------------------------------------------------------- #
def register_workload(name: str, *,
                      options_schema: Optional[Mapping[str, object]] = None,
                      instance_class: Optional[Type[Workload]] = None):
    """Class/function decorator registering a workload factory by name.

    ``options_schema`` maps option names to the accepted type (or tuple of
    types); when given, unknown option names and wrong-typed values are
    rejected with :class:`~repro.errors.ConfigurationError` at spec time.
    ``instance_class`` is the exact class whose instances round-trip back
    to this name via :func:`spec_for_instance`; it defaults to the
    decorated object when that is a :class:`Workload` subclass (factory
    *functions* must name it explicitly, or stay irreversible).
    """

    def decorate(factory):
        resolved = instance_class
        if resolved is None and isinstance(factory, type) \
                and issubclass(factory, Workload):
            resolved = factory
        with _LOCK:
            if name in _WORKLOADS:
                raise ConfigurationError(
                    f"workload {name!r} is already registered"
                )
            _WORKLOADS[name] = _WorkloadEntry(
                name=name, factory=factory,
                options_schema=_normalize_schema(options_schema),
                instance_class=resolved,
            )
        return factory

    return decorate


def unregister_workload(name: str) -> None:
    """Remove a registration (test cleanup; unknown names are a no-op)."""
    with _LOCK:
        _WORKLOADS.pop(name, None)


def workload_names() -> List[str]:
    """Sorted names of every registered workload family."""
    return sorted(_WORKLOADS)


def has_workload(name: str) -> bool:
    """Whether ``name`` is a registered workload family."""
    return name in _WORKLOADS


def _workload_entry(name: str) -> _WorkloadEntry:
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; available: {workload_names()}"
        ) from None


def validate_options(name: str, options: Mapping[str, object]) -> None:
    """Check option names/types against the family's schema, if it has one.

    Raises :class:`~repro.errors.ConfigurationError` naming the offending
    option and the allowed set; families registered without a schema
    accept anything scalar (the factory itself is the arbiter).
    """
    schema = _workload_entry(name).options_schema
    if schema is None:
        return
    for key, value in options.items():
        accepted = schema.get(key)
        if accepted is None:
            raise ConfigurationError(
                f"workload {name!r} has no option {key!r}; "
                f"allowed: {sorted(schema)}"
            )
        if isinstance(value, bool) and bool not in accepted:
            raise ConfigurationError(
                f"workload option {key!r} of {name!r} must be "
                f"{_describe_types(accepted)}, got bool"
            )
        if not isinstance(value, accepted):
            raise ConfigurationError(
                f"workload option {key!r} of {name!r} must be "
                f"{_describe_types(accepted)}, got {type(value).__name__}"
            )


def _describe_types(accepted: Tuple[type, ...]) -> str:
    return "/".join(entry.__name__ for entry in accepted)


def build_workload(name: str, **options) -> Workload:
    """Instantiate the named family with validated keyword options."""
    entry = _workload_entry(name)
    validate_options(name, options)
    return entry.factory(**options)


def spec_for_instance(workload: Workload
                      ) -> Optional[Tuple[str, Dict[str, object]]]:
    """Recover ``(name, options)`` of a live workload, if representable.

    Only *exact* instances of a family's registered ``instance_class``
    round-trip (a subclass may override behaviour the options cannot
    name); the instance's :meth:`~repro.workloads.base.Workload.spec_options`
    supplies the options, and may itself return ``None`` to opt out.
    """
    for entry in _WORKLOADS.values():
        if entry.instance_class is not None \
                and type(workload) is entry.instance_class:
            options = workload.spec_options()
            if options is None:
                return None
            return entry.name, dict(options)
    return None


# --------------------------------------------------------------------- #
# Task graphs (the service's /schedule universe and `repro demo`)
# --------------------------------------------------------------------- #
def register_task_graph(name: str):
    """Decorator registering a zero-argument task-graph factory by name."""

    def decorate(factory: Callable[[], TaskGraph]):
        with _LOCK:
            if name in _TASK_GRAPHS:
                raise ConfigurationError(
                    f"task graph {name!r} is already registered"
                )
            _TASK_GRAPHS[name] = factory
        return factory

    return decorate


def unregister_task_graph(name: str) -> None:
    """Remove a task-graph registration (test cleanup)."""
    with _LOCK:
        _TASK_GRAPHS.pop(name, None)


def task_graph_names() -> List[str]:
    """Sorted names of every registered task graph."""
    return sorted(_TASK_GRAPHS)


def has_task_graph(name: str) -> bool:
    """Whether ``name`` is a registered task graph."""
    return name in _TASK_GRAPHS


def build_task_graph(name: str) -> TaskGraph:
    """Build a fresh instance of the named task graph."""
    try:
        factory = _TASK_GRAPHS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown task graph {name!r}; available: {task_graph_names()}"
        ) from None
    return factory()

