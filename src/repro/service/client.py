"""A small stdlib HTTP client for the scheduling service.

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.server` and raises the service's own exception types
back out of HTTP responses — a 429 becomes
:class:`~repro.service.errors.ServiceOverloaded` carrying the server's
retry hint, any other error status becomes
:class:`~repro.service.errors.ServiceRequestError` — so in-process and
over-the-wire callers share one error-handling story.

Connections are per-request, so a stateless client survives server
restarts without bookkeeping.  The daemon is a
:class:`~http.server.ThreadingHTTPServer`, which is thread-per-
*connection*: each request here pays a TCP handshake and a thread start,
about a millisecond on loopback.  A fresh connection also never met the
~40 ms Nagle/delayed-ACK stall that keep-alive callers hit before the
daemon set ``TCP_NODELAY``: a new connection starts in quick-ACK mode,
so the client ACKs the response headers at once and the held-back body
follows, while a connection that has carried a few exchanges delays its
ACKs.  Callers that send many requests in a row can hold one HTTP/1.1
connection open instead (see the Protocol section of
:mod:`repro.service`).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Optional

from .errors import ServiceOverloaded, ServiceRequestError

#: Attempts :meth:`ServiceClient.request_with_retry` makes before giving
#: up on a persistently overloaded server.
DEFAULT_RETRIES = 5


class ServiceClient:
    """Talks JSON to one ``repro serve`` daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    def request(self, endpoint: str,
                payload: Optional[Dict[str, object]] = None
                ) -> Dict[str, object]:
        """One request; the decoded body on 200, an exception otherwise."""
        path = endpoint if endpoint.startswith("/") else f"/{endpoint}"
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=self.timeout)
        try:
            if payload is None:
                connection.request("GET", path)
            else:
                body = json.dumps(payload).encode("utf-8")
                connection.request(
                    "POST", path, body=body,
                    headers={"Content-Type": "application/json"},
                )
            response = connection.getresponse()
            raw = response.read()
            try:
                data = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, ValueError):
                data = {"error": raw.decode("utf-8", "replace")}
            if response.status == 429:
                raise ServiceOverloaded(
                    float(data.get("retry_after", 1.0))
                )
            if response.status != 200:
                raise ServiceRequestError(
                    response.status,
                    str(data.get("error", "request failed")),
                    body=data if isinstance(data, dict) else None,
                )
            return data
        finally:
            connection.close()

    def request_with_retry(self, endpoint: str,
                           payload: Optional[Dict[str, object]] = None,
                           retries: int = DEFAULT_RETRIES
                           ) -> Dict[str, object]:
        """Like :meth:`request`, but honors 429 retry hints.

        Sleeps the server's ``retry_after`` between attempts and
        re-raises the final :class:`ServiceOverloaded` once ``retries``
        shed responses have been eaten.
        """
        attempt = 0
        while True:
            try:
                return self.request(endpoint, payload)
            except ServiceOverloaded as exc:
                attempt += 1
                if attempt > retries:
                    raise
                time.sleep(exc.retry_after)

    # ------------------------------------------------------------------ #
    # Convenience wrappers (one per endpoint)
    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict[str, object]:
        """Liveness probe."""
        return self.request("healthz")

    def metrics(self) -> Dict[str, object]:
        """The service's metrics snapshot."""
        return self.request("metrics")

    def schedule(self, **payload) -> Dict[str, object]:
        """Solve one prefetch-scheduling problem."""
        return self.request("schedule", payload)

    def simulate(self, **payload) -> Dict[str, object]:
        """Run (or replay from cache) one sweep point."""
        return self.request("simulate", payload)

    def robustness(self, **payload) -> Dict[str, object]:
        """Compute overhead-vs-noise degradation curves."""
        return self.request("robustness", payload)
