"""Online scheduling service: a long-lived daemon over the warm engines.

The batch drivers (``repro sweep``, the experiment commands) pay the
warm-up bill — TCM design-time exploration, branch-and-bound
transposition tables, result memoization — once per *process* and then
throw the warm state away.  ``repro serve`` turns that state into a
**service**: one process-wide warm trio
(:class:`~repro.scheduling.pool.SchedulerPool` +
:class:`~repro.scheduling.ttstore.TranspositionStore` +
exploration/result caches) lives across requests behind the
lock-disciplined :class:`~repro.service.state.ServiceState`, so repeated
and near-identical requests are answered at warm-engine speed instead of
cold-process speed.

Three throughput mechanisms stack in front of the (serialized) warm
computation:

* **deduplication** — identical in-flight requests collapse onto one
  computation; followers await the leader and get a response marked
  ``"deduplicated": true`` (:mod:`repro.service.dedup`);
* **batching** — near-identical requests (same workload/platform,
  different ``reused`` sets, seeds or approaches) share one *resident*
  exploration and its warm pool engines (:mod:`repro.service.state`);
* **admission control** — past ``--max-pending`` queued computations,
  requests are shed with HTTP 429 + a ``Retry-After`` hint rather than
  queueing without bound.

Results are **byte-identical** to the CLI: the simulate path is step for
step the sweep engine's group runner, and a ``--cache-dir`` is shared
with CLI sweeps in both directions.

``repro serve`` flags
---------------------
``--host HOST``
    Bind address (default ``127.0.0.1``; the protocol is unauthenticated,
    so binding non-loopback addresses is on the operator).
``--port PORT``
    TCP port (default 8642; ``0`` picks an ephemeral port, announced in
    the readiness line).
``--cache-dir PATH`` / ``--tt-cache / --no-tt-cache``
    Same meaning as for the sweep commands: memoized results and
    explorations under ``PATH``, transposition certificates under
    ``PATH/ttables``.
``--max-pending N``
    Admission-gate depth: computations queued or running before shedding
    starts (default 8).
``--max-explorations N``
    Resident (workload, platform, exploration) trios kept warm
    (default 8).
``--shed-retry-after SECONDS``
    Retry hint attached to 429 responses (default 1.0).

On start the daemon prints one readiness line —
``repro service listening on http://HOST:PORT`` — and serves until
SIGTERM/SIGINT, then flushes every warm table and exits 0.

Protocol
--------
JSON over HTTP; every response body is a JSON object.  Request bodies
must be strict JSON: ``NaN``, ``Infinity``, ``-Infinity`` and numbers
too large for a float get a 400.  Fields are typed strictly: an integer
field takes neither ``true`` nor ``1.5``, a number field takes no
boolean, a flag takes only ``true``/``false`` and a name only a string;
anything else is a 400, never a coerced value.  The work one request
may ask for is capped (``MAX_TILES`` and ``MAX_ITERATIONS`` in
:mod:`repro.service.server`): a ``tile_count`` over 1024 on any
endpoint, or more than 20,000 simulated iterations in one request
(``iterations`` on ``/simulate``, grid points x ``iterations`` on
``/robustness``), is a 400 naming the field and the cap, answered before
admission, so one request cannot hold the compute lock for days.  Errors are
``{"error": "..."}`` with status 400 (bad request), 404 (unknown
endpoint), 413 (body over 1 MiB), 429 (shed; plus ``"retry_after"`` and
a ``Retry-After`` header) or 500.  Responses answered from another request's in-flight
computation additionally carry ``"deduplicated": true``.

HTTP/1.1 keep-alive is supported and is the low-latency path: one
connection carries any number of requests, served in order by that
connection's thread, with no handshake or thread start per request.
Error statuses keep the connection open too, except a POST whose
``Content-Length`` is not a non-negative integer (a 400) or is over
1 MiB (a 413, body unread): both get ``Connection: close``, because the
body cannot be framed or skipped.  A connection whose socket read or
write stalls for 30 s is closed, so a client that sends nothing, or less
body than it declared, does not hold a handler thread.  Every accepted
socket has ``TCP_NODELAY`` set, so a response never waits for the peer's
delayed ACK.

``GET /healthz``
    ``{"status": "ok", "pending": N}``.

``GET /metrics``
    Per-endpoint request/error/shed/dedup/cache-hit counters and
    nearest-rank p50/p95/p99 latencies, warm-state counters (exploration
    and schedule LRU hits, pool hits/misses, warm-table answers, cache
    traffic) and the admission gate's state.  See
    :mod:`repro.service.metrics`.  The latencies time
    :meth:`ReproService.handle` alone, so HTTP parsing, socket writes and
    TCP delays never show in them.  Before the daemon set ``TCP_NODELAY``
    they read ~1 ms while keep-alive clients waited ~44 ms per answer;
    time transport from the client side.

``POST /schedule``
    Solve one prefetch-scheduling problem on a warm engine.  Payload:
    ``{"task": NAME, "tile_count": N, "latency": MS,
    "reused": [SUBTASK, ...]}`` — ``task`` is one of
    :func:`repro.workloads.registry.task_graph_names`; ``reused`` lists
    already resident subtasks (the ``with_reused`` ladder).  Response
    carries ``makespan``, ``ideal_makespan``, ``overhead``,
    ``overhead_percent``, ``load_order``, ``load_count``,
    ``hidden_load_fraction``, ``scheduler`` and the search's ``stats``.

``POST /simulate``
    Run (or replay from cache) one sweep point.  Payload fields mirror
    :class:`~repro.runner.spec.SweepPoint`: ``workload`` / ``approach``
    (registry name or ``{"name", "options", "replacement"}``),
    ``tile_count`` (alias ``tiles``), ``seed``, ``iterations``,
    ``point_selection``, ``deadline``, ``keep_state_between_iterations``,
    ``configuration_fault_rate``, ``perturbation`` (``null`` or a
    :class:`~repro.sim.noise.PerturbationConfig` field object).
    Response: ``{"point": ..., "cache_key": ..., "from_cache": BOOL,
    "metrics": {...}}`` with the full serialized
    :class:`~repro.sim.metrics.SimulationMetrics`.

``POST /robustness``
    Overhead-vs-noise degradation curves.  Payload: ``workload``,
    ``tile_count``/``tiles``, ``approaches`` (list), ``levels`` (noise
    intensities; 0 = noise-free), ``seeds``, ``iterations``, ``metric``
    (a metrics field, default ``overhead_percent``).  Response:
    ``{"curves": {APPROACH_LABEL: [{"level", "mean", "ci_half_width",
    "count", "minimum", "maximum", "std"}, ...]}}`` plus the echoed
    parameters and computed/cached point counts.
"""

from .client import ServiceClient
from .dedup import InFlightTable, request_key
from .errors import (
    BadRequest,
    ServiceError,
    ServiceOverloaded,
    ServiceRequestError,
)
from .metrics import ServiceMetrics
from .server import (
    DEFAULT_PORT,
    ReproService,
    ReproServiceServer,
    point_from_payload,
    serve,
)
from .state import (
    DEFAULT_MAX_EXPLORATIONS,
    DEFAULT_MAX_PENDING,
    ServiceState,
)

__all__ = [
    "BadRequest",
    "DEFAULT_MAX_EXPLORATIONS",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_PORT",
    "InFlightTable",
    "ReproService",
    "ReproServiceServer",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "ServiceOverloaded",
    "ServiceRequestError",
    "ServiceState",
    "point_from_payload",
    "request_key",
    "serve",
]
