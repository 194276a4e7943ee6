"""Content-addressed on-disk caches for sweep execution.

Two kinds of entries live here:

* :class:`ResultCache` memoizes the final metrics of every completed
  :class:`~repro.runner.spec.SweepPoint` as one JSON file named after the
  point's :meth:`cache_key`.
* :class:`ExplorationCache` memoizes the TCM design-time exploration of a
  (workload spec, tile count) group, so a warm sweep skips the Pareto-curve
  generation — not just the final simulation — entirely.

Both stores follow the same trust model: the file records the full request
payload next to the data, so a lookup only trusts an entry whose recorded
payload matches the request exactly — a hash collision, a stale format or a
hand-edited file all fall back to recomputation.  Loads never raise on bad
entries: a corrupted or partial file (e.g. an interrupted writer from a
crashed run) is treated as a miss and silently overwritten by the fresh
result.  Writes are atomic (temp file + :func:`os.replace`) so concurrent
sweeps sharing a cache directory can never observe a torn entry.

Storage is pluggable: both stores (like the co-located
:class:`~repro.scheduling.ttstore.TranspositionStore` and
:class:`~repro.runner.claims.ClaimDirectory`) speak only the
:class:`~repro.storage.Backend` primitives, with a path argument wrapped
in the default :class:`~repro.storage.LocalDirBackend`.

Long-lived shared directories are kept bounded by :meth:`ResultCache.gc`
(the ``repro cache gc`` subcommand): a byte-size budget enforced by
LRU-by-mtime eviction over results/explorations/ttables, plus sweeps of
expired claims, leaked takeover tombstones and crashed-writer temp files.
Eviction is always safe — every evicted entry is a memoized value the
next run recomputes bit-identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
import typing
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from ..jsonio import dumps_canonical, loads
from ..platform.description import Platform
from ..sim.metrics import SimulationMetrics
from ..storage import (
    TEMP_PATTERN,
    Backend,
    EntryStat,
    as_backend,
    backend_root,
    list_entries,
)
from ..tcm.design_time import (
    TcmDesignTimeResult,
    exploration_from_dict,
    exploration_to_dict,
)
from .spec import SPEC_FORMAT_VERSION, SweepPoint, WorkloadSpec

#: Bump when the on-disk representation of an entry changes — or when the
#: simulation semantics behind identical payloads change (e.g. version 2:
#: ``DEFAULT_EXACT_LIMIT`` rose from 9 to 12, so points over workloads with
#: 10–12-load graphs produce different metrics than version-1 entries;
#: version 3: the limit rose again to 15 with the transposition-memoized
#: exact search, shifting 13–15-load graphs from the heuristic to the
#: optimum; version 4: the stochastic run-time layer added noise counters
#: to :class:`~repro.sim.metrics.SimulationMetrics` and an optional
#: ``perturbation`` block to point payloads; version 5: noisy plans are
#: realized on the replay kernel, and version-4 entries for noisy
#: no-prefetch and hybrid points hold the old, wrong numbers, so they
#: must recompute; version 6: the ``randomlike`` replacement policy ranks
#: by a stable digest instead of the interpreter-salted ``hash``, so
#: version-5 randomlike entries hold whatever their process drew).
CACHE_FORMAT_VERSION = 6

#: Bump when the on-disk representation of an exploration changes.
EXPLORATION_FORMAT_VERSION = 1

#: Seconds after which an atomic writer's ``.tmp-*`` file counts as
#: crashed-writer debris (no healthy writer holds one for more than
#: milliseconds).
DEFAULT_TEMP_AGE = 3600.0


def resolve_metric_field_types(cls: type = SimulationMetrics
                               ) -> Dict[str, type]:
    """Expected runtime type of every field of a metrics dataclass.

    Resolved through :func:`typing.get_type_hints`, which handles both
    string annotations (``from __future__ import annotations``) and real
    type objects — matching ``dataclasses.Field.type`` against the
    *string* ``"int"`` would silently degrade every numeric field to
    ``str`` (turning every warm load into a miss) the day the metrics
    module drops the future import.  Anything that is not exactly ``int``
    or ``float`` validates as ``str``, the conservative fallback.
    """
    hints = typing.get_type_hints(cls)
    return {
        field.name: (hints[field.name]
                     if hints.get(field.name) in (int, float) else str)
        for field in dataclasses.fields(cls)
    }


#: Expected type of every metrics field (int fields must not become floats
#: through a lossy or corrupted cache entry).
_METRIC_FIELDS: Dict[str, type] = resolve_metric_field_types()


def metrics_to_dict(metrics: SimulationMetrics) -> Dict[str, object]:
    """Serialize metrics into a plain JSON-compatible dict."""
    return dataclasses.asdict(metrics)


def metrics_from_dict(data: Dict[str, object]) -> SimulationMetrics:
    """Rebuild metrics from a dict, validating names and value types."""
    if not isinstance(data, dict) or set(data) != set(_METRIC_FIELDS):
        raise ValueError("metrics payload has wrong field set")
    for name, value in data.items():
        expected = _METRIC_FIELDS[name]
        if expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"metrics field {name!r} is not numeric")
            data = {**data, name: float(value)}
        elif not isinstance(value, expected) or isinstance(value, bool):
            raise ValueError(
                f"metrics field {name!r} is not a {expected.__name__}"
            )
    return SimulationMetrics(**data)


# --------------------------------------------------------------------- #
# Garbage collection report
# --------------------------------------------------------------------- #
@dataclass
class StoreGcStats:
    """One store's share of a :meth:`ResultCache.gc` pass."""

    files: int = 0
    bytes: int = 0
    removed_files: int = 0
    removed_bytes: int = 0

    def count(self, stat: EntryStat) -> None:
        self.files += 1
        self.bytes += stat.size

    def remove(self, stat: EntryStat) -> None:
        self.removed_files += 1
        self.removed_bytes += stat.size

    @property
    def retained_bytes(self) -> int:
        return self.bytes - self.removed_bytes


@dataclass
class GcReport:
    """What one :meth:`ResultCache.gc` pass found, freed and kept."""

    max_bytes: Optional[int]
    dry_run: bool
    stores: Dict[str, StoreGcStats] = dataclass_field(default_factory=dict)

    def store(self, name: str) -> StoreGcStats:
        return self.stores.setdefault(name, StoreGcStats())

    @property
    def total_bytes(self) -> int:
        return sum(stats.bytes for stats in self.stores.values())

    @property
    def freed_bytes(self) -> int:
        return sum(stats.removed_bytes for stats in self.stores.values())

    @property
    def freed_files(self) -> int:
        return sum(stats.removed_files for stats in self.stores.values())

    @property
    def retained_bytes(self) -> int:
        return self.total_bytes - self.freed_bytes

    def format_table(self) -> str:
        """Plain-text per-store breakdown, CLI-ready."""
        verb = "would free" if self.dry_run else "freed"
        header = f"{'store':<14} {'files':>7} {'bytes':>12} " \
                 f"{verb + ' files':>12} {verb + ' bytes':>12}"
        lines = [header, "-" * len(header)]
        for name, stats in self.stores.items():
            lines.append(
                f"{name:<14} {stats.files:>7} {stats.bytes:>12} "
                f"{stats.removed_files:>12} {stats.removed_bytes:>12}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<14} "
            f"{sum(s.files for s in self.stores.values()):>7} "
            f"{self.total_bytes:>12} {self.freed_files:>12} "
            f"{self.freed_bytes:>12}"
        )
        budget = ("none" if self.max_bytes is None
                  else f"{self.max_bytes} bytes")
        lines.append(f"budget: {budget}; retained: {self.retained_bytes} "
                     f"bytes{' (dry run)' if self.dry_run else ''}")
        return "\n".join(lines)


class ResultCache:
    """A directory of memoized sweep-point results.

    ``directory`` may be a filesystem path (wrapped in the default
    :class:`~repro.storage.LocalDirBackend`) or any
    :class:`~repro.storage.Backend`.
    """

    def __init__(self, directory: Union[str, Path, Backend]) -> None:
        self.backend = as_backend(directory)
        self.directory = backend_root(self.backend)

    @staticmethod
    def name_for(point: SweepPoint) -> str:
        """Entry name holding this point's result."""
        return f"{point.cache_key()}.json"

    def path_for(self, point: SweepPoint) -> Path:
        """Path of the entry that would hold this point's result."""
        if self.directory is None:
            raise ValueError("this cache has no local path; "
                             "use name_for() with the backend")
        return self.directory / self.name_for(point)

    def load(self, point: SweepPoint) -> Optional[SimulationMetrics]:
        """Return the cached metrics of ``point``, or ``None`` on any miss.

        Corrupted, partial, stale-format or mismatched entries are treated
        exactly like absent ones — never trusted, never raised.
        """
        try:
            data = loads(self.backend.read_text(self.name_for(point)))
            if data.get("format") != CACHE_FORMAT_VERSION:
                return None
            if data.get("point") != point.payload():
                return None
            return metrics_from_dict(data["metrics"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def store(self, point: SweepPoint,
              metrics: SimulationMetrics) -> Optional[Path]:
        """Atomically persist the result of one point.

        Returns the written path on path-backed stores (``None`` on a
        backend with no local paths).
        """
        entry = {
            "format": CACHE_FORMAT_VERSION,
            "point": point.payload(),
            "metrics": metrics_to_dict(metrics),
        }
        self.backend.write_json_atomic(self.name_for(point), entry)
        return None if self.directory is None else self.path_for(point)

    def __len__(self) -> int:
        """Number of (well-named) entries currently in the directory."""
        return len(self.backend.list("*.json"))

    # ------------------------------------------------------------------ #
    def _child(self, name: str) -> Optional[Backend]:
        """The co-located sub-store backend, or ``None`` if never created.

        (On path-backed stores the existence check avoids materializing
        empty sub-directories during maintenance scans.)
        """
        if self.directory is not None and not (self.directory / name).is_dir():
            return None
        return self.backend.child(name)

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed.

        The engine co-locates the design-time exploration store under
        ``<directory>/explorations``, the persisted transposition tables
        under ``<directory>/ttables`` and the distributed claim files
        under ``<directory>/claims`` — clearing the results also clears
        all of those, so "invalidate the cache" means the whole cache.
        (``len()`` still counts only point results.)
        """
        from ..scheduling.ttstore import TranspositionStore
        from .claims import ClaimDirectory

        removed = 0
        for name in self.backend.list("*.json"):
            if self.backend.delete(name):
                removed += 1
        explorations = self._child("explorations")
        if explorations is not None:
            for name in explorations.list("*.json"):
                if explorations.delete(name):
                    removed += 1
        # The co-located stores own their file-name schemes: delegate, so
        # a changed scheme can never silently survive a clear.
        ttables = self._child("ttables")
        if ttables is not None:
            removed += TranspositionStore(ttables).clear()
        claims = self._child("claims")
        if claims is not None:
            removed += ClaimDirectory(claims).clear()
        return removed

    def gc(self, max_bytes: Optional[int] = None,
           claim_ttl: Optional[float] = None,
           temp_age: float = DEFAULT_TEMP_AGE,
           dry_run: bool = False) -> GcReport:
        """Bound a long-lived shared cache directory; returns a report.

        Three kinds of garbage are collected, across the results store
        and the co-located ``explorations``/``ttables``/``claims``
        sub-stores:

        * **Debris** — ``.tmp-*`` files older than ``temp_age`` (crashed
          atomic writers), ``.stale-*`` takeover tombstones and claim
          files older than ``claim_ttl`` (leaked mid-takeover, abandoned
          by a crash, or inert markers of long-completed work — live
          claims heartbeat and are never this old).
        * **Budget** — with ``max_bytes`` set, memoized entries (results,
          explorations, transposition tables) are evicted
          least-recently-modified-first until the directory's retained
          size fits the budget.  Eviction never loses information a warm
          run *needs*: every entry is a memoized value the next run
          recomputes (and re-persists) bit-identically; only warm-start
          time is traded for space.

        ``claim_ttl`` defaults to
        :data:`~repro.runner.claims.DEFAULT_CLAIM_TTL`; pass the fleet's
        actual TTL when it was raised.  ``dry_run=True`` reports what a
        real pass would free without deleting anything.
        """
        from .claims import DEFAULT_CLAIM_TTL

        if claim_ttl is None:
            claim_ttl = DEFAULT_CLAIM_TTL
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        now = time.time()
        report = GcReport(max_bytes=max_bytes, dry_run=dry_run)

        stores: List[Tuple[str, Backend, str, bool]] = [
            ("results", self.backend, "*.json", True),
        ]
        explorations = self._child("explorations")
        if explorations is not None:
            stores.append(("explorations", explorations, "*.json", True))
        ttables = self._child("ttables")
        if ttables is not None:
            stores.append(("ttables", ttables, "tt-*.json", True))
        claims = self._child("claims")
        if claims is not None:
            stores.append(("claims", claims, "*.claim", False))
            stores.append(("tombstones", claims, ".stale-*", False))

        def sweep(backend: Backend, name: str, stat: EntryStat,
                  stats: StoreGcStats) -> None:
            if dry_run or backend.delete(name):
                stats.remove(stat)

        # Pass 1: age-based debris sweeps + inventory of live entries.
        # The temp sweep runs once per *backend*, not once per store
        # label: the claims backend backs two labels (claims +
        # tombstones), and sweeping it twice double-counted its ``.tmp-*``
        # debris (and, in dry runs, "removed" it twice).
        evictable: List[Tuple[float, EntryStat, Backend, str,
                              StoreGcStats]] = []
        temp_swept_backends: set = set()
        for label, backend, pattern, lru in stores:
            stats = report.store(label)
            for name, stat in list_entries(backend, pattern):
                stats.count(stat)
                if label in ("claims", "tombstones"):
                    if now - stat.mtime > claim_ttl:
                        sweep(backend, name, stat, stats)
                elif lru:
                    evictable.append((stat.mtime, stat, backend, name,
                                      stats))
            if id(backend) in temp_swept_backends:
                continue
            temp_swept_backends.add(id(backend))
            temp_stats = report.store("temp")
            for name, stat in list_entries(backend, TEMP_PATTERN):
                temp_stats.count(stat)
                if now - stat.mtime > temp_age:
                    sweep(backend, name, stat, temp_stats)

        # Pass 2: LRU-by-mtime eviction down to the byte budget.  The
        # inventory stats above are a *snapshot*: a concurrent warm hit
        # may have refreshed an entry's mtime (and a concurrent gc may
        # have deleted it) between the stat and this pass, so every
        # candidate is re-statted immediately before deletion — an entry
        # touched since the inventory is warm, not cold, and is skipped.
        if max_bytes is not None:
            evictable.sort(key=lambda item: item[0])
            for mtime, stat, backend, name, stats in evictable:
                if report.retained_bytes <= max_bytes:
                    break
                current = backend.stat(name)
                if current is None or current.mtime > mtime:
                    continue  # vanished, or refreshed by a warm hit
                sweep(backend, name, stat, stats)
        return report


class ExplorationCache:
    """A directory of memoized TCM design-time explorations.

    The exploration of one (workload spec, tile count) group is
    deterministic — the workload builds from its registry name plus frozen
    options, and the platform derives from the tile count and the
    workload's reconfiguration latency — so the serialized Pareto curves
    can be trusted as long as the recorded request payload matches.  This
    closes the gap the JSON result cache left open: a warm sweep used to
    skip the simulations but still redo every exploration.
    """

    def __init__(self, directory: Union[str, Path, Backend]) -> None:
        self.backend = as_backend(directory)
        self.directory = backend_root(self.backend)

    @staticmethod
    def _payload(workload: WorkloadSpec, tile_count: int) -> Dict[str, object]:
        """Canonical description of one exploration request."""
        return {
            "format": EXPLORATION_FORMAT_VERSION,
            "spec_format": SPEC_FORMAT_VERSION,
            "workload": {"name": workload.name,
                         "options": [list(pair)
                                     for pair in workload.options]},
            "tile_count": tile_count,
        }

    def name_for(self, workload: WorkloadSpec, tile_count: int) -> str:
        """Entry name holding this exploration."""
        canonical = dumps_canonical(self._payload(workload, tile_count))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return f"explore-{digest}.json"

    def path_for(self, workload: WorkloadSpec, tile_count: int) -> Path:
        """Path of the entry that would hold this exploration."""
        if self.directory is None:
            raise ValueError("this cache has no local path; "
                             "use name_for() with the backend")
        return self.directory / self.name_for(workload, tile_count)

    def load(self, workload: WorkloadSpec, tile_count: int,
             platform: Platform) -> Optional[TcmDesignTimeResult]:
        """Return the cached exploration, or ``None`` on any miss.

        Corrupted, partial, stale-format or mismatched entries are treated
        exactly like absent ones — never trusted, never raised.  Every
        placed schedule is revalidated while rebuilding, so a tampered
        entry cannot produce an inconsistent exploration.
        """
        try:
            data = loads(
                self.backend.read_text(self.name_for(workload, tile_count))
            )
            if data.get("request") != self._payload(workload, tile_count):
                return None
            return exploration_from_dict(data["exploration"], platform)
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                ReproError):
            return None

    def store(self, workload: WorkloadSpec, tile_count: int,
              result: TcmDesignTimeResult) -> Optional[Path]:
        """Atomically persist one exploration.

        Returns the written path on path-backed stores (``None`` on a
        backend with no local paths).
        """
        entry = {
            "request": self._payload(workload, tile_count),
            "exploration": exploration_to_dict(result),
        }
        self.backend.write_json_atomic(self.name_for(workload, tile_count),
                                       entry)
        return (None if self.directory is None
                else self.path_for(workload, tile_count))
