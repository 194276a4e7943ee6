"""Service observability: per-endpoint counters and latency percentiles.

:class:`ServiceMetrics` is the single sink every request flows through —
one counter bump on arrival, one latency sample on completion, plus
outcome marks (error / shed / dedup / cache hit / computed).  The
``/metrics`` endpoint renders :meth:`ServiceMetrics.snapshot`, which
combines these request-side numbers with the warm-state counters the
:class:`~repro.service.state.ServiceState` exposes (scheduler-pool hit
rates, transposition warm answers, resident explorations).

Latencies are kept in a bounded per-endpoint window (the most recent
:data:`LATENCY_WINDOW` samples) and reduced to nearest-rank p50/p95/p99
at snapshot time — a long-lived daemon must not grow its metrics without
bound, and recent percentiles are the SLO-relevant ones anyway.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Sequence, Tuple

#: Latency samples retained per endpoint (a sliding window, not a total).
LATENCY_WINDOW = 2048

#: Percentiles reported per endpoint.
PERCENTILES: Tuple[int, ...] = (50, 95, 99)


def nearest_rank(sorted_samples: Sequence[float],
                 percentile: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty sample."""
    if not sorted_samples:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(percentile / 100.0 * len(sorted_samples))
    return sorted_samples[max(0, min(rank, len(sorted_samples))) - 1]


class EndpointStats:
    """Counters and the latency window of one endpoint."""

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.shed = 0
        self.dedup_hits = 0
        self.cache_hits = 0
        self.computed = 0
        self.latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view, latencies reduced to percentiles (ms)."""
        data: Dict[str, object] = {
            "requests": self.requests,
            "errors": self.errors,
            "shed": self.shed,
            "dedup_hits": self.dedup_hits,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "latency_samples": len(self.latencies),
        }
        if self.latencies:
            ordered = sorted(self.latencies)
            for percentile in PERCENTILES:
                data[f"p{percentile}_ms"] = round(
                    nearest_rank(ordered, percentile) * 1000.0, 3
                )
        return data


class ServiceMetrics:
    """Thread-safe aggregate of every endpoint's request-side metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: Dict[str, EndpointStats] = {}
        self.started_at = time.time()

    # ------------------------------------------------------------------ #
    def _endpoint(self, name: str) -> EndpointStats:
        return self._endpoints.setdefault(name, EndpointStats())

    def count_request(self, endpoint: str) -> None:
        with self._lock:
            self._endpoint(endpoint).requests += 1

    def count_error(self, endpoint: str) -> None:
        with self._lock:
            self._endpoint(endpoint).errors += 1

    def count_shed(self, endpoint: str) -> None:
        with self._lock:
            self._endpoint(endpoint).shed += 1

    def count_dedup_hit(self, endpoint: str) -> None:
        with self._lock:
            self._endpoint(endpoint).dedup_hits += 1

    def count_cache_hit(self, endpoint: str) -> None:
        with self._lock:
            self._endpoint(endpoint).cache_hits += 1

    def count_computed(self, endpoint: str) -> None:
        with self._lock:
            self._endpoint(endpoint).computed += 1

    def record_latency(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            self._endpoint(endpoint).latencies.append(seconds)

    # ------------------------------------------------------------------ #
    def snapshot(self, warm: Optional[Dict[str, object]] = None,
                 admission: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
        """One JSON document describing the whole service right now."""
        with self._lock:
            endpoints = {name: stats.snapshot()
                         for name, stats in sorted(self._endpoints.items())}
        totals = {
            "requests": sum(e["requests"] for e in endpoints.values()),
            "errors": sum(e["errors"] for e in endpoints.values()),
            "shed": sum(e["shed"] for e in endpoints.values()),
            "dedup_hits": sum(e["dedup_hits"] for e in endpoints.values()),
        }
        data: Dict[str, object] = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "endpoints": endpoints,
            "totals": totals,
        }
        if warm is not None:
            data["warm"] = warm
        if admission is not None:
            data["admission"] = admission
        return data
