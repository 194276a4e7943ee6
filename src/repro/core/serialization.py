"""(De)serialization of design-time scheduling results.

The whole point of the hybrid heuristic is that the expensive scheduling
work happens at design-time and only compact tables are consulted at
run-time.  In a deployment those tables are generated on a workstation and
shipped with the embedded software, so they need a portable on-disk format.
This module provides exactly that: every :class:`DesignTimeEntry` (and a
whole :class:`DesignTimeStore`) round-trips through plain dictionaries and
JSON.

The stored information is what the run-time phase needs:

* the placed schedule (assignment, ideal start times),
* the critical subtasks in initialization-load order and their weights,
* the design-time order of the non-critical loads,
* the reconfiguration latency the entry was built for.

Loading an entry rebuilds the same objects the in-memory design-time phase
produces (the zero-overhead design schedule is re-derived by replaying the
stored load order, which is cheap and keeps the format small).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from ..errors import ConfigurationError
from ..scheduling.base import PrefetchProblem, PrefetchResult, SchedulerStats
from ..scheduling.evaluator import replay_schedule
from ..scheduling.schedule import (
    placed_schedule_from_dict,
    placed_schedule_to_dict,
)
from .critical import CriticalSelectionStep, CriticalSubtaskResult
from .store import DesignTimeEntry, DesignTimeStore

#: Format identifier written into every serialized store.
STORE_FORMAT = "repro-design-store"
#: Format version (bump on incompatible changes).
STORE_VERSION = 1


# ---------------------------------------------------------------------- #
# Design-time entries
# ---------------------------------------------------------------------- #
def entry_to_dict(entry: DesignTimeEntry) -> Dict[str, Any]:
    """Convert one design-time entry into a JSON-serializable dictionary."""
    return {
        "task": entry.task_name,
        "scenario": entry.scenario_name,
        "point": entry.point_key,
        "reconfiguration_latency": entry.reconfiguration_latency,
        "placed": placed_schedule_to_dict(entry.placed),
        "critical": list(entry.critical.critical),
        "critical_load_order": list(entry.critical.load_order),
        "non_critical_load_order": list(entry.non_critical_loads),
        "weights": dict(entry.critical.weights),
    }


def entry_from_dict(payload: Dict[str, Any]) -> DesignTimeEntry:
    """Rebuild a design-time entry from :func:`entry_to_dict` output.

    The zero-overhead design-time schedule is reconstructed by replaying the
    stored non-critical load order with the critical subtasks marked as
    reused; its overhead is verified to still be zero so that a corrupted or
    hand-edited store is detected at load time.
    """
    try:
        placed = placed_schedule_from_dict(payload["placed"])
        critical = tuple(payload["critical"])
        load_order = tuple(payload["critical_load_order"])
        non_critical = tuple(payload["non_critical_load_order"])
        weights = {str(k): float(v) for k, v in payload["weights"].items()}
        latency = float(payload["reconfiguration_latency"])
        task_name = payload["task"]
        scenario_name = payload["scenario"]
        point_key = payload["point"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed design-time entry payload: {exc}"
        ) from exc

    problem = PrefetchProblem(placed=placed, reconfiguration_latency=latency,
                              reused=frozenset(critical))
    timed = replay_schedule(placed, latency, non_critical,
                            priority_order=non_critical)
    if timed.overhead > 1e-6:
        raise ConfigurationError(
            f"stored design-time schedule for {task_name}/{scenario_name}"
            f"@{point_key} is not overhead-free (got {timed.overhead:.3f} ms);"
            " the store is corrupted or was generated for a different latency"
        )
    schedule = PrefetchResult(
        problem=problem,
        timed=timed,
        load_order=non_critical,
        stats=SchedulerStats(),
        scheduler_name="design-store",
    )
    critical_result = CriticalSubtaskResult(
        placed=placed,
        critical=critical,
        load_order=load_order,
        weights=weights,
        schedule=schedule,
        steps=(CriticalSelectionStep(critical_so_far=critical, overhead=0.0,
                                     overhead_percent=0.0,
                                     delay_generators=(), selected=None),),
    )
    return DesignTimeEntry(
        task_name=task_name,
        scenario_name=scenario_name,
        point_key=point_key,
        placed=placed,
        critical=critical_result,
        reconfiguration_latency=latency,
    )


# ---------------------------------------------------------------------- #
# Whole stores
# ---------------------------------------------------------------------- #
def store_to_dict(store: DesignTimeStore) -> Dict[str, Any]:
    """Convert a whole design-time store into a dictionary."""
    return {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "entries": [entry_to_dict(entry)
                    for entry in sorted(store, key=lambda e: e.key)],
    }


def store_from_dict(payload: Dict[str, Any]) -> DesignTimeStore:
    """Rebuild a design-time store from :func:`store_to_dict` output."""
    if not isinstance(payload, dict) or payload.get("format") != STORE_FORMAT:
        raise ConfigurationError(
            "payload is not a serialized design-time store"
        )
    if payload.get("version") != STORE_VERSION:
        raise ConfigurationError(
            f"unsupported design-store version {payload.get('version')!r}; "
            f"this library reads version {STORE_VERSION}"
        )
    entries = [entry_from_dict(item) for item in payload.get("entries", [])]
    return DesignTimeStore(entries)


def store_to_json(store: DesignTimeStore, indent: int = 2) -> str:
    """Serialize a design-time store to JSON text."""
    return json.dumps(store_to_dict(store), indent=indent)


def store_from_json(text: str) -> DesignTimeStore:
    """Deserialize a design-time store from JSON text."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"invalid JSON for design-time store: {exc}"
        ) from exc
    return store_from_dict(payload)


def save_store(store: DesignTimeStore, path: Union[str, Path]) -> Path:
    """Write a design-time store to ``path`` as JSON and return the path."""
    destination = Path(path)
    destination.write_text(store_to_json(store), encoding="utf-8")
    return destination


def load_store(path: Union[str, Path]) -> DesignTimeStore:
    """Read a design-time store previously written by :func:`save_store`."""
    source = Path(path)
    if not source.exists():
        raise ConfigurationError(f"design-store file {source} does not exist")
    return store_from_json(source.read_text(encoding="utf-8"))
