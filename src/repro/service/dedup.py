"""In-flight request deduplication: one computation per identical request.

A service whose clients hammer it with the *same* request — N sweep
drivers asking for the same point, a dashboard polling one schedule —
should compute it once, not N times.  :class:`InFlightTable` provides the
leader/follower lease that makes that safe under concurrency:

* the first caller to :meth:`join` a key becomes the **leader** (owns the
  computation) and gets a fresh :class:`~concurrent.futures.Future`;
* every later caller joining while the leader is still computing becomes
  a **follower**: it gets the *same* future and simply awaits the
  leader's result (or exception — a shed leader sheds its followers too,
  which is exactly right: they would have queued behind the same work);
* the leader :meth:`release`\\ s the key once the future is settled, so
  the *next* identical request starts a fresh computation rather than
  being answered from a stale one — this table deduplicates concurrency,
  it is not a cache (the result/exploration caches do the remembering).

Keys are canonical-JSON digests of (endpoint, payload), so "identical"
means byte-identical request content, never object identity.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import Future
from typing import Dict, Tuple

from ..jsonio import dumps_canonical


def request_key(endpoint: str, payload: object) -> str:
    """Stable content digest identifying one request's work."""
    canonical = dumps_canonical([endpoint, payload])
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class InFlightTable:
    """Leader/follower leases over currently-computing request keys."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}

    def join(self, key: str) -> Tuple[bool, "Future"]:
        """Join the computation of ``key``.

        Returns ``(True, future)`` for the leader — it must settle the
        future (result or exception) and then :meth:`release` the key —
        and ``(False, future)`` for a follower, which just awaits it.
        """
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                return False, existing
            future: Future = Future()
            self._inflight[key] = future
            return True, future

    def release(self, key: str, future: "Future") -> None:
        """Retire the leader's lease (identity-checked, so a slow release
        can never evict a *newer* leader's lease for the same key)."""
        with self._lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]

    @property
    def inflight_count(self) -> int:
        """Number of keys currently being computed."""
        with self._lock:
            return len(self._inflight)
