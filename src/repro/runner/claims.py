"""Claim files: cooperative work partitioning over a shared directory.

The sweep caches are content-addressed and atomically written, so any
number of workers can *share results* through one directory without
coordination.  What they cannot do without coordination is avoid
*duplicating work*: two fresh workers pointed at the same
:class:`~repro.runner.spec.SweepSpec` would both simulate every point.
:class:`ClaimDirectory` closes that gap with the smallest primitive a
shared store offers — exclusive creation (``O_CREAT | O_EXCL`` on a
filesystem; see :mod:`repro.storage` for the backend protocol):

* **Acquire** — a worker claims a unit of work (a sweep group) by creating
  ``<key>.claim`` exclusively.  Exactly one creator succeeds; everyone
  else observes the existing claim and moves on to other work (results
  flow back through the result cache, so a loser never needs the claim
  released — it polls the cache instead).  If the claim file vanishes
  *between* the failed creation and the staleness check (the holder
  released it, or a takeover tombstoned it), the creation is retried once
  immediately — a just-freed key is claimed now, not after a full
  backoff poll cycle.
* **Heartbeat** — a holder keeps its claim alive by :meth:`refresh`-ing it
  (bumping the mtime) on a background cadence; :class:`ClaimHeartbeat`
  does this automatically every ``ttl / 3`` seconds for as long as the
  holding process lives.  **The TTL therefore bounds the heartbeat gap,
  not the work**: a claim may be held for hours under a ``ttl`` of
  seconds, and ``ttl`` can be chosen purely for how fast a *crashed*
  holder should be detected.  (Choose it well above the longest plausible
  process stall — GC pause, NFS hiccup — because a holder that misses
  heartbeats for a full TTL can be taken over; the work is then
  duplicated, never corrupted, since results are content-addressed and
  recompute bit-identically.)
* **Stale takeover** — a crashed worker's heartbeats stop, so its claim's
  mtime freezes.  A claim older than ``ttl`` seconds is abandoned: a
  challenger atomically *renames* it to a unique ``.stale-*`` tombstone
  and then re-creates it exclusively.  Rename semantics make the takeover
  race-free: if two challengers race, the second rename fails (the file
  is gone), so exactly one challenger proceeds to the exclusive creation
  — the unlink-then-create alternative would let a slow challenger
  unlink the *winner's* fresh claim.  The winner deletes its tombstone
  immediately; if that deletion fails (or the winner dies first),
  :meth:`held_keys` and ``repro cache gc`` sweep expired tombstones, so
  they cannot accumulate in a long-lived directory.

Claim files are advisory and tiny (a JSON note naming the worker, for
``repro sweep --distributed`` debugging); completed work is never
re-claimed because its results are already in the cache — a completed
claim file is simply inert (and reaped by ``repro cache gc`` once its age
exceeds the TTL).  The protocol needs nothing but atomic exclusive-create
and rename from the backend, which NFS, every local filesystem and
conditional-PUT object stores provide.

**Clock-skew tolerance.**  Staleness compares the *local* clock against
a *backend* mtime, and on a shared directory those are set by different
machines (the claim writer stamps the mtime through the file server; the
challenger reads it against its own ``time.time()``).  The contract:

* An mtime in the observer's future (writer's clock ahead) clamps to age
  **0** — perfectly fresh, never stale, never negative.  Negative ages
  must not leak out of :meth:`ClaimDirectory._age`: arithmetic built on
  them (age sorting, ``abs()``-style refactors, budget math) would turn
  "fresher than fresh" into arbitrary behaviour.
* In the other direction (observer's clock ahead of the writer's), a
  live claim looks up to ``skew + ttl / HEARTBEAT_PER_TTL`` seconds old
  — its heartbeat bumps the mtime every ``ttl / HEARTBEAT_PER_TTL``
  seconds, all stamped by the lagging clock.  Takeover needs age >
  ``ttl``, so the protocol tolerates absolute skew up to
  ``ttl * (1 - 1 / HEARTBEAT_PER_TTL)`` (two thirds of the TTL at the
  default cadence) before a *live* claim can be prematurely taken over.
  Choose ``ttl`` well above ``max skew + heartbeat stall``; a premature
  takeover duplicates work but never corrupts it (results are
  content-addressed and recompute bit-identically).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..jsonio import dumps_canonical
from ..storage import (
    Backend,
    as_backend,
    backend_root,
    list_entries,
)

#: Default seconds after which an un-refreshed claim counts as abandoned.
#: Since holders heartbeat every ``ttl / 3`` (:class:`ClaimHeartbeat`),
#: this bounds crash *detection* latency, not group runtime — it only
#: needs to exceed the longest heartbeat gap a live-but-stalled holder
#: might show (scheduler pauses, NFS attribute-cache lag).
DEFAULT_CLAIM_TTL = 60.0

#: A claim is refreshed this many times per TTL, so one missed beat (or
#: two) never looks like a crash.
HEARTBEAT_PER_TTL = 3


def default_worker_id() -> str:
    """A claim-owner label unique enough to debug a shared directory."""
    return f"{socket.gethostname()}-{os.getpid()}"


class ClaimDirectory:
    """Advisory claim files under one directory (see the module docstring).

    ``directory`` may be a path (the default
    :class:`~repro.storage.LocalDirBackend` is built over it) or any
    :class:`~repro.storage.Backend`.
    """

    def __init__(self, directory: Union[str, Path, Backend],
                 worker_id: Optional[str] = None,
                 ttl: float = DEFAULT_CLAIM_TTL) -> None:
        if ttl <= 0:
            raise ValueError("claim ttl must be positive")
        self.backend = as_backend(directory)
        self.directory = backend_root(self.backend)
        self.worker_id = worker_id or default_worker_id()
        self.ttl = ttl
        self._sequence = 0
        self.claims_acquired = 0
        self.claims_lost = 0
        self.takeovers = 0
        self.tombstones_swept = 0

    # ------------------------------------------------------------------ #
    @staticmethod
    def name_for(key: str) -> str:
        """The claim entry backing ``key``."""
        return f"{key}.claim"

    def path_for(self, key: str) -> Path:
        """The claim file backing ``key`` (local backends only)."""
        if self.directory is None:
            raise ValueError("this claim directory has no local path; "
                             "use name_for() with the backend")
        return self.directory / self.name_for(key)

    def _create(self, key: str) -> bool:
        """Exclusive creation; ``False`` when somebody else holds it.

        Only "already exists" means "held" — any other backend failure
        (permissions, read-only mount, disk full) propagates, so a worker
        with an unusable claims directory fails fast instead of polling
        for results nobody is computing until ``wait_timeout``.
        """
        note = dumps_canonical({"worker": self.worker_id,
                                "claimed_at": time.time()})
        if self.backend.create_exclusive(self.name_for(key), note):
            self.claims_acquired += 1
            return True
        return False

    def _age(self, name: str) -> Optional[float]:
        """Seconds since the entry's last heartbeat; ``None`` when gone.

        Clamped at 0: an mtime in the local future (the writer's clock
        runs ahead of ours — see "Clock-skew tolerance" in the module
        docstring) means *fresh*, and callers must never see a negative
        age.
        """
        stat = self.backend.stat(name)
        if stat is None:
            return None
        return max(0.0, time.time() - stat.mtime)

    def _is_stale(self, name: str) -> bool:
        """Whether an entry has outlived the TTL (``False`` when gone)."""
        age = self._age(name)
        return age is not None and age > self.ttl

    def acquire(self, key: str) -> bool:
        """Try to claim ``key``; take over an abandoned claim if needed."""
        name = self.name_for(key)
        if self._create(key):
            return True
        age = self._age(name)
        if age is None:
            # The claim vanished between the failed creation and the stat
            # — released, or tombstoned by a concurrent takeover.  Retry
            # the creation once instead of reporting a loss: a just-freed
            # key should be claimed immediately, not after the caller's
            # next full poll cycle.
            if self._create(key):
                return True
        elif age > self.ttl:
            self._sequence += 1
            tombstone = (
                f".stale-{key}-{self.worker_id}-{self._sequence}"
            )
            if not self.backend.replace(name, tombstone):
                # Another challenger renamed it first; it now owns the
                # takeover attempt — report a loss (its fresh claim will
                # appear momentarily).
                self.claims_lost += 1
                return False
            # The tombstone inherits the stale claim's frozen mtime, so
            # even if this deletion fails (full disk, dropped permissions,
            # a crash right here) it is already expired and will be swept
            # by held_keys()/gc rather than leaking forever.
            self.backend.delete(tombstone)
            if self._create(key):
                self.takeovers += 1
                return True
        self.claims_lost += 1
        return False

    def refresh(self, key: str) -> bool:
        """Bump the claim's mtime (heartbeat); ``False`` if it vanished."""
        return self.backend.touch(self.name_for(key))

    def release(self, key: str) -> bool:
        """Delete a claim (only meaningful for abandoned-on-purpose work)."""
        return self.backend.delete(self.name_for(key))

    def heartbeat(self, keys: Sequence[str]) -> "ClaimHeartbeat":
        """A background heartbeat over ``keys`` (use as a context manager)."""
        return ClaimHeartbeat(self, keys)

    # ------------------------------------------------------------------ #
    def held_keys(self) -> List[str]:
        """Keys with a live (non-stale) claim file.

        Also sweeps expired ``.stale-*`` tombstones as a side effect —
        tombstones leaked by a challenger that crashed (or whose delete
        failed) mid-takeover must not accumulate in a long-lived shared
        directory, and every scan of it is a chance to reap them.
        """
        self.sweep_tombstones()
        keys = []
        for name in self.backend.list("*.claim"):
            if not self._is_stale(name):
                keys.append(name[: -len(".claim")])
        return keys

    def sweep_tombstones(self) -> int:
        """Delete expired ``.stale-*`` tombstones; returns files removed.

        A tombstone inherits the mtime of the stale claim it was renamed
        from, so it is born expired — any tombstone older than the TTL is
        debris from an interrupted takeover, never part of a live dance.
        """
        removed = 0
        for name, stat in list_entries(self.backend, ".stale-*"):
            # Same clamp as _age: a future mtime (skewed writer clock)
            # reads as age 0, so the tombstone survives until real time
            # has passed on every observer's clock.
            if max(0.0, time.time() - stat.mtime) <= self.ttl:
                continue
            if self.backend.delete(name):
                removed += 1
        self.tombstones_swept += removed
        return removed

    def clear(self) -> int:
        """Delete every claim and tombstone; returns files removed."""
        removed = 0
        for pattern in ("*.claim", ".stale-*"):
            for name in self.backend.list(pattern):
                if self.backend.delete(name):
                    removed += 1
        return removed


class ClaimHeartbeat:
    """Background auto-refresh of held claims (the heartbeat invariant).

    A daemon thread refreshes every key in ``keys`` each
    ``ttl / HEARTBEAT_PER_TTL`` seconds until :meth:`stop` (or context
    exit).  While it runs, the claims can never look abandoned — so
    ``claim_ttl`` can sit far below the runtime of the work the claims
    protect, and a *crashed* holder (whose thread died with it) is taken
    over within roughly one TTL instead of after a worst-case-runtime
    one.  Refresh failures are ignored: a vanished claim means a
    concurrent takeover already happened, and the work itself is still
    safe (results are content-addressed; duplicated computation converges
    on identical bytes).
    """

    def __init__(self, claims: ClaimDirectory, keys: Sequence[str],
                 interval: Optional[float] = None) -> None:
        self.claims = claims
        self.keys = list(keys)
        self.interval = (claims.ttl / HEARTBEAT_PER_TTL
                         if interval is None else interval)
        if self.interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.beats = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ClaimHeartbeat":
        """Start beating (idempotent); returns self for chaining."""
        if self._thread is None and self.keys:
            self._thread = threading.Thread(
                target=self._run, name="claim-heartbeat", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            for key in self.keys:
                self.claims.refresh(key)
            self.beats += 1

    def stop(self) -> None:
        """Stop beating and join the thread (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "ClaimHeartbeat":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
