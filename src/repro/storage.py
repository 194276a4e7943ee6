"""Pluggable storage backends for the cache & distribution fabric.

The four on-disk stores behind sweeps — point results
(:class:`~repro.runner.cache.ResultCache`), design-time explorations
(:class:`~repro.runner.cache.ExplorationCache`), persisted transposition
tables (:class:`~repro.scheduling.ttstore.TranspositionStore`) and claim
files (:class:`~repro.runner.claims.ClaimDirectory`) — used to reimplement
the same handful of filesystem moves independently: read a named entry,
atomically write one, list by pattern, delete, rename exclusively, bump an
mtime.  This module names those moves once, as the :class:`Backend`
protocol, and provides the default implementation every current caller
gets implicitly: :class:`LocalDirBackend`, one directory on a local (or
NFS) filesystem.

Every store accepts either a path (wrapped in a :class:`LocalDirBackend`,
fully backward compatible) or an explicit :class:`Backend`, so an
object-store backend — S3-style conditional PUTs for
:meth:`Backend.create_exclusive`, server-side copy for
:meth:`Backend.replace` — can land later without touching a single
caller.  The protocol is deliberately small and names-only (no ``Path``
objects cross it except at construction), because that is exactly the
surface an object store can offer.

Semantics the stores rely on (and any backend must honour):

* :meth:`~Backend.write_json_atomic` — readers never observe a torn
  entry; concurrent writers of the same name end with one winner's
  complete payload (last-writer-wins).
* :meth:`~Backend.create_exclusive` — a true test-and-set: exactly one of
  any number of concurrent creators of one name returns ``True``.
  ``False`` means "somebody else holds it"; any *other* failure
  (permissions, read-only mount, disk full) must raise, so callers fail
  fast instead of misreading a broken backend as contention.
* :meth:`~Backend.replace` — atomic rename that *fails* (returns
  ``False``) when the source is gone; this is what makes the claim
  takeover dance race-free (see :mod:`repro.runner.claims`).
* :meth:`~Backend.stat` returning ``None`` for a missing entry, never
  raising — staleness checks race with deletion by design.
"""

from __future__ import annotations

import fnmatch
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Tuple, Union, runtime_checkable

from .jsonio import TEMP_PREFIX, atomic_write_json

#: Glob matching the atomic writer's crashed-writer debris.
TEMP_PATTERN = TEMP_PREFIX + "*"


@dataclass(frozen=True)
class EntryStat:
    """Size and modification time of one stored entry."""

    size: int
    mtime: float


@runtime_checkable
class Backend(Protocol):
    """The storage primitives shared by every fabric store.

    Entry ``name``s are flat, opaque strings within one backend ("one
    directory"); nested stores hang off :meth:`child` (e.g. the sweep
    cache's ``explorations``/``ttables``/``claims`` sub-stores).
    """

    def read_text(self, name: str) -> str:
        """Return the entry's full text; raises ``OSError`` when absent."""
        ...

    def write_json_atomic(self, name: str, entry: Dict[str, object]) -> None:
        """Atomically (re)write one JSON entry — readers never see a torn
        file, concurrent writers never interleave."""
        ...

    def create_exclusive(self, name: str, text: str) -> bool:
        """Atomically create ``name``; ``False`` iff somebody else already
        holds it.  Any other failure raises (see the module docstring)."""
        ...

    def replace(self, source: str, target: str) -> bool:
        """Atomically rename ``source`` to ``target``; ``False`` when the
        source vanished first (the takeover-race signal)."""
        ...

    def delete(self, name: str) -> bool:
        """Remove one entry; ``False`` when it was already gone (or the
        backend refused)."""
        ...

    def touch(self, name: str) -> bool:
        """Bump the entry's mtime (heartbeat); ``False`` when absent."""
        ...

    def list(self, pattern: str) -> List[str]:
        """Sorted entry names matching a glob-style ``pattern``."""
        ...

    def stat(self, name: str) -> Optional[EntryStat]:
        """Size/mtime of one entry, or ``None`` when absent."""
        ...

    def child(self, name: str) -> "Backend":
        """A backend rooted at the named sub-store (created on demand)."""
        ...


class LocalDirBackend:
    """:class:`Backend` over one local-filesystem (or NFS) directory.

    This is what every store builds implicitly when handed a path; all
    primitives map to the single-syscall filesystem operations the
    claim/cache protocols were designed around (``O_CREAT|O_EXCL``,
    ``os.replace``, ``os.utime``).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.root = Path(directory)
        self.root.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"LocalDirBackend({str(self.root)!r})"

    # ------------------------------------------------------------------ #
    def path_for(self, name: str) -> Path:
        """The file backing ``name`` (local backends only)."""
        return self.root / name

    def read_text(self, name: str) -> str:
        return (self.root / name).read_text(encoding="utf-8")

    def write_json_atomic(self, name: str, entry: Dict[str, object]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.root, self.root / name, entry)

    def create_exclusive(self, name: str, text: str) -> bool:
        try:
            handle = os.open(str(self.root / name),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(text)
        except OSError:
            pass  # a created-but-empty entry still exists exclusively
        return True

    def replace(self, source: str, target: str) -> bool:
        try:
            os.replace(str(self.root / source), str(self.root / target))
        except OSError:
            return False
        return True

    def delete(self, name: str) -> bool:
        try:
            (self.root / name).unlink()
        except OSError:
            return False
        return True

    def touch(self, name: str) -> bool:
        try:
            os.utime(str(self.root / name))
        except OSError:
            return False
        return True

    def list(self, pattern: str) -> List[str]:
        # scandir entries carry the file type from the directory read, so
        # filtering files costs no stat per name.
        try:
            with os.scandir(self.root) as entries:
                return sorted(entry.name for entry in entries
                              if fnmatch.fnmatchcase(entry.name, pattern)
                              and entry.is_file())
        except OSError:
            return []

    def stat(self, name: str) -> Optional[EntryStat]:
        try:
            result = (self.root / name).stat()
        except OSError:
            return None
        return EntryStat(size=result.st_size, mtime=result.st_mtime)

    def child(self, name: str) -> "LocalDirBackend":
        return LocalDirBackend(self.root / name)


def as_backend(target: Union[str, os.PathLike, Backend]) -> Backend:
    """Coerce a store's ``directory`` argument into a :class:`Backend`.

    Paths (the historical and still default calling convention) become
    :class:`LocalDirBackend`; explicit backends pass through untouched.
    """
    if isinstance(target, Backend):
        return target
    return LocalDirBackend(target)


def backend_root(backend: Backend) -> Optional[Path]:
    """The local directory behind a backend, or ``None`` if it has none.

    Callers that co-locate stores by path (the sweep engine's
    ``<cache-dir>/claims`` convention) use this to keep their historical
    ``.directory`` attributes meaningful on the default backend.
    """
    root = getattr(backend, "root", None)
    return Path(root) if root is not None else None


# --------------------------------------------------------------------- #
# Shared maintenance helpers (gc building blocks)
# --------------------------------------------------------------------- #
def list_entries(backend: Backend,
                 pattern: str) -> List[Tuple[str, EntryStat]]:
    """Stat every entry matching ``pattern``; vanished entries skipped."""
    entries: List[Tuple[str, EntryStat]] = []
    for name in backend.list(pattern):
        stat = backend.stat(name)
        if stat is not None:
            entries.append((name, stat))
    return entries


def sweep_aged(backend: Backend, pattern: str, max_age: float,
               now: Optional[float] = None,
               dry_run: bool = False) -> Tuple[int, int]:
    """Delete entries matching ``pattern`` older than ``max_age`` seconds.

    Returns ``(files, bytes)`` removed (or that would be removed, with
    ``dry_run``).  Used by cache gc for crashed-writer temp files
    (:data:`~repro.jsonio.TEMP_PREFIX` debris), leaked takeover
    tombstones and expired claim files.
    """
    now = time.time() if now is None else now
    removed_files = 0
    removed_bytes = 0
    for name, stat in list_entries(backend, pattern):
        if now - stat.mtime <= max_age:
            continue
        if dry_run or backend.delete(name):
            removed_files += 1
            removed_bytes += stat.size
    return removed_files, removed_bytes
