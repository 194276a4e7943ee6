"""Persistent transposition tables: warm-starting exact search across processes.

:class:`~repro.scheduling.pool.SchedulerPool` (PR 4) made the exact
branch-and-bound engine warm *within* one process: near-identical problems
share a persistent transposition table whose retained entries act as
pruning certificates.  This module extends that warmth across process and
machine boundaries: :class:`TranspositionStore` serializes a persistent
engine's table to content-addressed JSON files under a shared directory
(``<cache-dir>/ttables`` in the sweep deployment), so a *fresh* worker
fleet — or a rerun after a restart — starts from the floors a previous
fleet already proved.

What is persisted — and why it stays exact
------------------------------------------
Only **floor certificates** survive serialization: entries whose invariant
premise ``ref < barrier`` holds (see "Transposition safety" in
:mod:`repro.scheduling.prefetch_bb`).  Such an entry states that *every*
completion below a signature-equal state has future contribution
``F >= min(future, barrier)`` — a fact about the signature's (immutable)
completion set, not about the search that derived it.  It is therefore as
true in another process as it was in the one that wrote it, **provided the
signatures are comparable at all**: the same placed-schedule *content*,
the same reconfiguration latency and the same release time.  The store
enforces that by keying every table file on exactly that context (plus the
engine's exact/table-limit configuration, mirroring the pool key), by
recording the full request payload inside the file, and by refusing any
entry whose recorded payload does not match the request — the same trust
model as :class:`repro.runner.cache.ResultCache`.

Entries are keyed by the replay kernel's *packed* signatures — flat
tuples of machine ints and floats with ``None`` section separators
(``(pending_mask, controller_time, frontier…, None, live…, None,
issued…)``; see :meth:`repro.scheduling.replay.ReplayState.signature`).
Every element is a native JSON scalar that Python round-trips exactly and
type-faithfully, so a persisted key deserializes to a tuple that compares
and hashes equal to a live signature — no name interning or structural
rebuild on load.  The packed ids are core-relative, which is safe
precisely because the table file is keyed on placed-schedule content:
identical content produces an identical interning order.

Loaded entries are tagged with :data:`LOADED_GENERATION`, which can never
equal a live search generation, so they behave exactly like PR 4's
cross-call entries: prefix dominance (incumbent-relative, call-local)
never applies to them, and every answer they give is a pure "nothing below
strictly beats the incumbent" prune.  Warm-from-disk searches are
therefore **bit-identical** to cold ones — the store changes how fast the
optimum is found, never which optimum (or which tie) is returned
(property-tested in ``tests/scheduling/test_ttstore.py``).

Robustness
----------
Writes are atomic (temp file + :func:`os.replace`), so concurrent workers
flushing the same key can never produce a torn file — last writer wins,
and both writers' tables contain only true certificates, so either
outcome is correct.  Loads never raise: a truncated file, a stale or
future format version, a mismatched request payload or a hand-edited
entry all degrade to a (partial) miss; the search that follows changes
the engine's table, so the next flush after it heals the file in place.
Two size bounds keep a shared directory from growing without limit:
``max_entries`` caps how many (most-recently-used) entries one table
file records, and ``max_tables`` caps the number of table files.  Pruning
does not run on every save: a store lists the directory once, at its
first new table, then counts the new tables it writes, and prunes the
oldest files by modification time (then recounts) only when the count
passes ``max_tables``.  The bound is soft across processes, since each
store counts only its own writes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from collections import OrderedDict

from ..jsonio import dumps_canonical, loads
from ..storage import (
    TEMP_PATTERN,
    Backend,
    as_backend,
    backend_root,
    list_entries,
)
from .schedule import PlacedSchedule, TIME_EPSILON, placed_schedule_to_dict

#: Bump when the on-disk representation of a table (or the semantics of
#: the entries, e.g. the signature layout in
#: :meth:`repro.scheduling.replay.ReplayState.signature`) changes.
#:
#: * 1 — nested name-tuple signatures
#:   ``(pending names, controller, frontier, live, issued)``.
#: * 2 — packed flat signatures: one list of machine ints/floats with
#:   ``None`` section separators, mirroring the in-memory layout of the
#:   flattened replay kernel (see below).  Format-1 tables are skipped
#:   cleanly by the version check and healed on the next flush.
TTSTORE_FORMAT_VERSION = 2

#: Generation tag of entries restored from disk.  Live searches use
#: generations >= 0, so a restored entry can never satisfy the same-call
#: prefix-dominance test — it is demoted to a pure barrier certificate,
#: exactly like a warm entry from a previous call of the same engine.
LOADED_GENERATION = -1

#: Default cap on the number of (most recent) entries one table file
#: records.  Sized for the exact-limit-15 frontier: corpus tables peak in
#: the low thousands, so 32k persists everything that matters while
#: bounding a pathological table's file to a few MB.
DEFAULT_MAX_ENTRIES = 32768

#: Default cap on the number of table files retained in one store
#: directory; the oldest (by mtime) are pruned once a store's count of
#: table files passes it.
DEFAULT_MAX_TABLES = 512


def placed_payload(placed: PlacedSchedule) -> Dict[str, object]:
    """Canonical JSON description of a placed schedule's *content*.

    The in-process pool keys engines by ``id(placed)``; across processes
    only content identity exists, so the store hashes the full schedule —
    graph structure, execution times, placements and ideal start times
    (placements sorted by subtask so dict construction order cannot
    perturb the digest).  Identical content means an identical replay
    core, which is what makes signatures comparable across processes.
    """
    payload = placed_schedule_to_dict(placed)
    payload["placements"].sort(key=lambda item: item["subtask"])
    return payload


# --------------------------------------------------------------------- #
# Signature (de)serialization
# --------------------------------------------------------------------- #
def _signature_to_json(signature: Tuple) -> List[object]:
    """One packed replay signature as a JSON list.

    The packed signature is already a flat tuple of machine ints, floats
    and two ``None`` section separators (see
    :meth:`~repro.scheduling.replay.ReplayState.signature`), all of which
    JSON represents natively and round-trips exactly — Python serializes
    ints (including the arbitrary-precision pending mask) and floats
    losslessly and type-faithfully, so the reconstructed tuple compares
    (and hashes) equal to a live signature.
    """
    return list(signature)


def _number(value: object) -> float:
    """A finite-or-float JSON number (bools are not numbers here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _signature_from_json(data: object) -> Tuple:
    """Rebuild a packed replay signature; raises ``ValueError`` on damage.

    Every element must be a JSON number or one of exactly two ``None``
    section separators; the leading element (the pending-load bitmask)
    must be a non-negative int.  Element types are preserved as parsed —
    ints stay ints (the mask may exceed float precision), floats stay
    floats — so the rebuilt tuple is bit-identical to what was saved.
    """
    if not isinstance(data, (list, tuple)) or len(data) < 4:
        raise ValueError("signature payload has wrong shape")
    mask = data[0]
    if isinstance(mask, bool) or not isinstance(mask, int) or mask < 0:
        raise ValueError("pending-load mask is not a non-negative int")
    separators = 0
    for element in data:
        if element is None:
            separators += 1
        elif isinstance(element, bool) \
                or not isinstance(element, (int, float)):
            raise ValueError(f"expected a number, got {element!r}")
    if separators != 2:
        raise ValueError("signature payload must contain exactly two "
                         "section separators")
    return tuple(data)


@dataclass(frozen=True)
class TableContext:
    """Precomputed identity of one persisted table.

    A persistent engine captures this when it starts a table, so the table
    can still be flushed after the placed schedule it was keyed on has
    been garbage collected (the payload carries the content, not the
    object).
    """

    digest: str
    payload: Dict[str, object]

    @property
    def filename(self) -> str:
        """Name of the table file inside the store directory."""
        return f"tt-{self.digest}.json"


class TranspositionStore:
    """A directory of persisted transposition-table floor certificates.

    ``directory`` may be a path (wrapped in the default
    :class:`~repro.storage.LocalDirBackend`) or any
    :class:`~repro.storage.Backend`.

    The store counts its table files instead of rescanning for each one:
    the first save that creates a file lists the directory, each later
    one adds one, and :meth:`prune` runs only when the count passes
    ``max_tables``.
    """

    def __init__(self, directory: Union[str, Path, Backend],
                 max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_tables: int = DEFAULT_MAX_TABLES) -> None:
        if max_entries < 1 or max_tables < 1:
            raise ValueError("max_entries and max_tables must be positive")
        self.backend = as_backend(directory)
        self.directory = backend_root(self.backend)
        self.max_entries = max_entries
        self.max_tables = max_tables
        #: Observability counters (per store instance, i.e. per process).
        self.tables_loaded = 0
        self.tables_missed = 0
        self.tables_saved = 0
        self.entries_loaded = 0
        self.entries_rejected = 0
        #: Table files in the directory, counted from this store's first
        #: new table on (``None`` until then).
        self._table_files: Optional[int] = None

    # ------------------------------------------------------------------ #
    def context_for(self, placed: PlacedSchedule,
                    reconfiguration_latency: float,
                    release_time: float,
                    exact_limit: Optional[int],
                    table_limit: Optional[int]) -> TableContext:
        """The on-disk identity of a table for this problem context.

        Mirrors the :class:`~repro.scheduling.pool.SchedulerPool` key
        (placed-schedule identity, latency, engine config) with the
        content digest standing in for ``id(placed)``, plus the release
        time the engine's own invalidation token tracks — entries are only
        comparable within all five.
        """
        payload = {
            "format": TTSTORE_FORMAT_VERSION,
            "placed": placed_payload(placed),
            "reconfiguration_latency": reconfiguration_latency,
            "release_time": release_time,
            "exact_limit": exact_limit,
            "table_limit": table_limit,
        }
        canonical = dumps_canonical(payload)
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return TableContext(digest=digest, payload=payload)

    def path_for(self, context: TableContext) -> Path:
        """Path of the table file this context addresses (local backends)."""
        if self.directory is None:
            raise ValueError("this store has no local path; "
                             "use context.filename with the backend")
        return self.directory / context.filename

    # ------------------------------------------------------------------ #
    def load(self, context: TableContext) -> "Optional[OrderedDict]":
        """Restore the persisted table for ``context``, or ``None``.

        Corrupted, truncated, stale/future-format or mismatched files are
        treated as misses — never trusted, never raised; an individually
        damaged entry is skipped while the rest of the file is still used
        (the floor certificates are independent facts).  Restored entries
        carry :data:`LOADED_GENERATION` and keep the writer's
        most-recently-used ordering, capped to ``max_entries``.
        """
        try:
            data = loads(self.backend.read_text(context.filename))
            if data.get("format") != TTSTORE_FORMAT_VERSION:
                self.tables_missed += 1
                return None
            if data.get("request") != context.payload:
                self.tables_missed += 1
                return None
            items = data["entries"]
            if not isinstance(items, list):
                raise ValueError("entries payload is not a list")
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            self.tables_missed += 1
            return None
        table: "OrderedDict[Tuple, List]" = OrderedDict()
        rejected = 0
        for item in items[-self.max_entries:]:
            try:
                signature_data, ref, barrier, future = item
                signature = _signature_from_json(signature_data)
                ref = _number(ref)
                barrier = _number(barrier)
                future = float("inf") if future is None else _number(future)
                if not ref < barrier - TIME_EPSILON:
                    raise ValueError("certificate premise ref < barrier "
                                     "does not hold")
            except (ValueError, KeyError, TypeError):
                rejected += 1
                continue
            table[signature] = [ref, barrier, future, LOADED_GENERATION]
        self.entries_rejected += rejected
        if not table:
            self.tables_missed += 1
            return None
        self.tables_loaded += 1
        self.entries_loaded += len(table)
        return table

    def save(self, context: TableContext,
             table: "OrderedDict[Tuple, List]") -> Optional[Path]:
        """Persist the floor certificates of ``table``; best-effort.

        Only entries whose invariant premise holds (``ref < barrier``, the
        timeless certificate) are written; incumbent-relative information
        dies with its process, exactly as it dies with its call in PR 4.
        Returns the written path, or ``None`` when there was nothing
        certifiable to write or the filesystem refused (a persistence
        failure never fails the search that triggered it).  A save that
        creates a file counts it and prunes only when the count passes
        ``max_tables``.
        """
        items: List[List[object]] = []
        for signature, entry in table.items():
            ref, barrier, future = entry[0], entry[1], entry[2]
            if not ref < barrier - TIME_EPSILON:
                continue
            items.append([
                _signature_to_json(signature),
                ref,
                barrier,
                None if future == float("inf") else future,
            ])
        if not items:
            return None
        # Keep the most-recently-used tail: the OrderedDict back is what
        # the engine's LRU would have kept under pressure too.
        items = items[-self.max_entries:]
        payload = {
            "format": TTSTORE_FORMAT_VERSION,
            "request": context.payload,
            "entries": items,
        }
        try:
            grew = self.backend.stat(context.filename) is None
            self.backend.write_json_atomic(context.filename, payload)
        except OSError:
            return None
        self.tables_saved += 1
        if grew:
            # Overwrites cannot change the file count; only a new file
            # can push it past the bound.
            if self._table_files is None:
                self._table_files = len(self)
            else:
                self._table_files += 1
            if self._table_files > self.max_tables:
                self.prune()
                self._table_files = len(self)
        return (self.directory / context.filename
                if self.directory is not None else None)

    # ------------------------------------------------------------------ #
    def prune(self) -> int:
        """Enforce ``max_tables`` by deleting the oldest files; best-effort."""
        entries = sorted(list_entries(self.backend, "tt-*.json"),
                         key=lambda item: item[1].mtime)
        removed = 0
        excess = len(entries) - self.max_tables
        for name, _ in entries[:max(0, excess)]:
            if self.backend.delete(name):
                removed += 1
        return removed

    def __len__(self) -> int:
        """Number of table files currently in the directory."""
        return len(self.backend.list("tt-*.json"))

    def clear(self) -> int:
        """Delete every table file (and any crashed-writer temp debris);
        returns how many files were removed."""
        removed = 0
        for pattern in ("tt-*.json", TEMP_PATTERN):
            for name in self.backend.list(pattern):
                if self.backend.delete(name):
                    removed += 1
        return removed
