"""The online scheduling service: request handling and the HTTP daemon.

:class:`ReproService` is the transport-free core — ``handle(endpoint,
payload)`` returns an ``(HTTP status, JSON body)`` pair, so tests and
benchmarks can drive the full request pipeline (dedup, admission, warm
state, metrics) in-process without a socket.  The stdlib
:class:`~http.server.ThreadingHTTPServer` wrapper underneath
:func:`serve` only parses HTTP and JSON around it.

Request pipeline (POST endpoints)
---------------------------------
1. **Deduplication** — identical in-flight requests collapse onto one
   computation (:mod:`repro.service.dedup`); followers await the
   leader's response and return a copy marked ``"deduplicated": true``.
2. **Result cache** — with a cache directory configured, a memoized
   point answers immediately (``"from_cache": true``), never touching
   the admission gate.
3. **Admission** — at most ``max_pending`` computations may be queued or
   running; past that the request is shed with 429 + a ``Retry-After``
   hint (:class:`~repro.service.errors.ServiceOverloaded`).
4. **Warm computation** — serialized on the state's compute lock; see
   :mod:`repro.service.state` for the batching story.

See the package docstring (:mod:`repro.service`) for the endpoint
schemas and the ``repro serve`` flags.
"""

from __future__ import annotations

import dataclasses
import json
import math
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..experiments.robustness import noise_profile
from ..jsonio import loads
from ..runner.cache import metrics_to_dict
from ..runner.ensemble import aggregate
from ..runner.spec import ApproachSpec, SweepPoint, WorkloadSpec
from ..scheduling.base import PrefetchProblem
from ..sim.metrics import SimulationMetrics
from ..sim.noise import PerturbationConfig
from .dedup import InFlightTable, request_key
from .errors import BadRequest, ServiceOverloaded
from .metrics import ServiceMetrics
from .state import ServiceState

#: Default TCP port of ``repro serve`` (0 asks the OS for an ephemeral one).
DEFAULT_PORT = 8642

#: Largest request body the daemon reads (bytes); request bodies are a
#: few KB.  A larger ``Content-Length`` is answered 413 unread.
MAX_BODY_BYTES = 1 << 20

#: Caps on the work one request may ask for.  Compute grows linearly in
#: both and one ``compute_lock`` serializes all of it, so an uncapped
#: request could hold every other client off for days or exhaust memory.
#: ``MAX_TILES`` bounds every endpoint's ``tile_count``; ``MAX_ITERATIONS``
#: bounds a request's total simulated iterations: ``iterations`` on
#: ``/simulate``, grid points x ``iterations`` on ``/robustness``.  Paper
#: scale is 1000 iterations at 16 tiles.
MAX_TILES = 1024
MAX_ITERATIONS = 20_000

#: A JSON-ready response: (HTTP status, body).
Response = Tuple[int, Dict[str, object]]


# --------------------------------------------------------------------- #
# Payload parsing
# --------------------------------------------------------------------- #
def _require_mapping(value: object, what: str) -> Dict[str, object]:
    if not isinstance(value, dict):
        raise BadRequest(f"{what} must be a JSON object, "
                         f"got {type(value).__name__}")
    return value


def _check_keys(payload: Dict[str, object], allowed: Tuple[str, ...],
                what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise BadRequest(f"unknown {what} field(s) {unknown}; "
                         f"allowed: {sorted(allowed)}")


# Strict field parsers: JSON gives ``True`` for ``true`` and Python's
# ``int(1.9)``, ``int("7")`` and ``bool("false")`` all answer, so any
# coercion turns a mistyped field into a silently different request.
def _int(value: object, what: str) -> int:
    """An integer, never a bool or a float."""
    if type(value) is not int:
        raise BadRequest(f"{what} must be an integer, got {value!r}")
    return value


def _float(value: object, what: str) -> float:
    """An int or a float, never a bool."""
    if type(value) not in (int, float):
        raise BadRequest(f"{what} must be a number, got {value!r}")
    return float(value)


def _bool(value: object, what: str) -> bool:
    """``true`` or ``false`` only."""
    if type(value) is not bool:
        raise BadRequest(f"{what} must be true or false, got {value!r}")
    return value


def _str(value: object, what: str) -> str:
    """A string, never a number."""
    if type(value) is not str:
        raise BadRequest(f"{what} must be a string, got {value!r}")
    return value


def _at_most(value: int, cap: int, what: str) -> int:
    """``value``, unless it is over ``cap`` (a 400 naming both)."""
    if value > cap:
        raise BadRequest(f"{what} must be at most {cap}, got {value}",
                         detail={"cap": cap})
    return value


def _tile_count(payload: Dict[str, object]) -> int:
    """``tile_count`` (alias ``tiles``, default 8), capped at MAX_TILES."""
    if "tile_count" in payload and "tiles" in payload:
        raise BadRequest("give either 'tile_count' or 'tiles', not both")
    tiles = _int(payload.get("tile_count", payload.get("tiles", 8)),
                 "'tile_count'")
    return _at_most(tiles, MAX_TILES, "'tile_count'")


def _list(parse: Callable[[object, str], object], value: object,
          what: str) -> list:
    """A non-empty list whose every entry ``parse`` accepts."""
    if not isinstance(value, (list, tuple)) or not value:
        raise BadRequest(f"{what} must be a non-empty list")
    return [parse(item, f"{what} entries") for item in value]


def workload_spec_from(value: object) -> WorkloadSpec:
    """A workload reference: a registry name or ``{name, options}``."""
    if isinstance(value, str):
        return WorkloadSpec.of(value)
    data = _require_mapping(value, "workload")
    _check_keys(data, ("name", "options"), "workload")
    if "name" not in data:
        raise BadRequest("workload object needs a 'name'")
    options = _require_mapping(data.get("options", {}), "workload options")
    try:
        return WorkloadSpec.of(_str(data["name"], "workload name"), **options)
    except TypeError as exc:
        raise BadRequest(f"bad workload options: {exc}")


def approach_spec_from(value: object) -> ApproachSpec:
    """An approach reference: a name or ``{name, options, replacement}``."""
    if isinstance(value, str):
        return ApproachSpec.of(value)
    data = _require_mapping(value, "approach")
    _check_keys(data, ("name", "options", "replacement"), "approach")
    if "name" not in data:
        raise BadRequest("approach object needs a 'name'")
    options = _require_mapping(data.get("options", {}), "approach options")
    replacement = data.get("replacement")
    if replacement is not None:
        replacement = _str(replacement, "'replacement'")
    try:
        return ApproachSpec.of(_str(data["name"], "approach name"),
                               replacement=replacement, **options)
    except TypeError as exc:
        raise BadRequest(f"bad approach options: {exc}")


def perturbation_from(value: object) -> Optional[PerturbationConfig]:
    """A perturbation: ``null`` (noise-free) or a config field object."""
    if value is None:
        return None
    data = _require_mapping(value, "perturbation")
    try:
        return PerturbationConfig(**data)
    except TypeError as exc:
        raise BadRequest(f"bad perturbation: {exc}")


#: Fields a ``/simulate`` payload may carry (``tiles`` aliases
#: ``tile_count``; everything else matches :class:`SweepPoint`).
_SIMULATE_FIELDS = (
    "workload", "approach", "tile_count", "tiles", "seed", "iterations",
    "point_selection", "deadline", "keep_state_between_iterations",
    "configuration_fault_rate", "perturbation",
)


def point_from_payload(payload: Dict[str, object]) -> SweepPoint:
    """Build the :class:`SweepPoint` a ``/simulate`` payload describes."""
    _check_keys(payload, _SIMULATE_FIELDS, "simulate")
    tiles = _tile_count(payload)
    deadline = payload.get("deadline")
    return SweepPoint(
        workload=workload_spec_from(payload.get("workload", "multimedia")),
        approach=approach_spec_from(payload.get("approach", "hybrid")),
        tile_count=tiles,
        seed=_int(payload.get("seed", 2005), "'seed'"),
        iterations=_at_most(_int(payload.get("iterations", 300),
                                 "'iterations'"),
                            MAX_ITERATIONS, "'iterations'"),
        point_selection=_str(payload.get("point_selection", "fastest"),
                             "'point_selection'"),
        deadline=None if deadline is None else _float(deadline,
                                                      "'deadline'"),
        keep_state_between_iterations=_bool(
            payload.get("keep_state_between_iterations", True),
            "'keep_state_between_iterations'"),
        configuration_fault_rate=_float(
            payload.get("configuration_fault_rate", 0.0),
            "'configuration_fault_rate'"),
        perturbation=perturbation_from(payload.get("perturbation")),
    )


def _finite_number(text: str) -> float:
    """JSON number hook refusing ``NaN``, ``Infinity`` and overflow, which
    ``json.loads`` accepts and every ``x < 0`` range check lets through."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


# --------------------------------------------------------------------- #
# The service core
# --------------------------------------------------------------------- #
class ReproService:
    """Transport-free request handling over one :class:`ServiceState`."""

    def __init__(self, state: ServiceState,
                 metrics: Optional[ServiceMetrics] = None) -> None:
        self.state = state
        self.metrics = metrics or ServiceMetrics()
        self.inflight = InFlightTable()
        self._handlers: Dict[str, Callable[[Dict[str, object]], Response]] = {
            "schedule": self._handle_schedule,
            "simulate": self._handle_simulate,
            "robustness": self._handle_robustness,
        }

    # ------------------------------------------------------------------ #
    def handle(self, endpoint: str,
               payload: Optional[Dict[str, object]] = None) -> Response:
        """Serve one request; never raises (errors become responses)."""
        name = endpoint.strip("/") or "root"
        self.metrics.count_request(name)
        start = time.monotonic()
        try:
            if name == "healthz":
                return 200, {"status": "ok",
                             "pending": self.state.pending}
            if name == "metrics":
                return 200, self.metrics.snapshot(
                    warm=self.state.warm_snapshot(),
                    admission=self.state.admission_snapshot(),
                )
            handler = self._handlers.get(name)
            if handler is None:
                self.metrics.count_error(name)
                return 404, {"error": f"unknown endpoint {endpoint!r}; "
                                      "available: /healthz /metrics "
                                      "/schedule /simulate /robustness"}
            if payload is None:
                payload = {}
            payload = _require_mapping(payload, "request body")
            return self._deduplicated(name, handler, payload)
        except ServiceOverloaded as exc:
            self.metrics.count_shed(name)
            return 429, {"error": "overloaded",
                         "retry_after": exc.retry_after}
        except ReproError as exc:
            # BadRequest, spec/scheduling validation errors, ...: the
            # request was wrong, not the service.  A BadRequest's
            # structured detail fields join the body next to the message.
            self.metrics.count_error(name)
            body: Dict[str, object] = {"error": str(exc)}
            body.update(getattr(exc, "detail", None) or {})
            return 400, body
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            self.metrics.count_error(name)
            return 500, {"error": f"internal error: "
                                  f"{type(exc).__name__}: {exc}"}
        finally:
            self.metrics.record_latency(name, time.monotonic() - start)

    def _deduplicated(self, name: str,
                      handler: Callable[[Dict[str, object]], Response],
                      payload: Dict[str, object]) -> Response:
        """Collapse identical in-flight requests onto one computation."""
        key = request_key(name, payload)
        leader, future = self.inflight.join(key)
        if not leader:
            self.metrics.count_dedup_hit(name)
            status, body = future.result()
            body = dict(body)
            body["deduplicated"] = True
            return status, body
        try:
            response = handler(payload)
            future.set_result(response)
            return response
        except BaseException as exc:
            future.set_exception(exc)
            raise
        finally:
            self.inflight.release(key, future)

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _handle_schedule(self, payload: Dict[str, object]) -> Response:
        _check_keys(payload, ("task", "tile_count", "tiles", "latency",
                              "reused"), "schedule")
        tiles = _tile_count(payload)
        task = payload.get("task")
        if not isinstance(task, str):
            raise BadRequest("schedule payload needs a 'task' name")
        latency = _float(payload.get("latency", 4.0), "'latency'")
        reused_raw = payload.get("reused", [])
        if (not isinstance(reused_raw, (list, tuple))
                or not all(isinstance(item, str) for item in reused_raw)):
            raise BadRequest("'reused' must be a list of subtask names")
        state = self.state
        with state.admission():
            with state.compute_lock:
                placed = state.placed_schedule_for(task, tiles, latency)
                problem = PrefetchProblem(placed, latency,
                                          reused=frozenset(reused_raw))
                result = state.scheduler_pool.schedule(problem)
        self.metrics.count_computed("schedule")
        return 200, {
            "task": task,
            "tile_count": tiles,
            "reconfiguration_latency": latency,
            "reused": sorted(reused_raw),
            "scheduler": result.scheduler_name,
            "makespan": result.makespan,
            "ideal_makespan": result.ideal_makespan,
            "overhead": result.overhead,
            "overhead_percent": result.overhead_percent,
            "load_order": list(result.load_order),
            "load_count": result.load_count,
            "hidden_load_fraction": result.hidden_load_fraction,
            "stats": dataclasses.asdict(result.stats),
        }

    def _simulate(self, point: SweepPoint
                  ) -> Tuple[SimulationMetrics, bool]:
        """One point through cache -> admission -> warm computation."""
        state = self.state
        cached = state.load_cached(point)
        if cached is not None:
            return cached, True
        with state.admission():
            with state.compute_lock:
                # Another leader may have memoized it while we queued.
                cached = state.load_cached(point)
                if cached is not None:
                    return cached, True
                return state.simulate_point(point), False

    def _handle_simulate(self, payload: Dict[str, object]) -> Response:
        point = point_from_payload(payload)
        metrics, from_cache = self._simulate(point)
        if from_cache:
            self.metrics.count_cache_hit("simulate")
        else:
            self.metrics.count_computed("simulate")
        return 200, {
            "point": point.payload(),
            "cache_key": point.cache_key(),
            "from_cache": from_cache,
            "metrics": metrics_to_dict(metrics),
        }

    def _handle_robustness(self, payload: Dict[str, object]) -> Response:
        _check_keys(payload, ("workload", "tile_count", "tiles",
                              "approaches", "levels", "seeds", "iterations",
                              "metric"), "robustness")
        tiles = _tile_count(payload)
        workload = workload_spec_from(payload.get("workload", "multimedia"))
        approaches_raw = payload.get("approaches", ["hybrid"])
        if not isinstance(approaches_raw, (list, tuple)) or not approaches_raw:
            raise BadRequest("'approaches' must be a non-empty list")
        approaches = [approach_spec_from(item) for item in approaches_raw]
        levels = _list(_float, payload.get("levels", [0.0, 0.15, 0.3]),
                       "'levels'")
        seeds = _list(_int, payload.get("seeds", [2005, 2006, 2007]),
                      "'seeds'")
        iterations = _int(payload.get("iterations", 60), "'iterations'")
        points = len(approaches) * len(levels) * len(seeds)
        _at_most(points * iterations, MAX_ITERATIONS,
                 f"'iterations' x {points} grid points")
        metric = _str(payload.get("metric", "overhead_percent"), "'metric'")
        valid_metrics = set(SimulationMetrics.__dataclass_fields__) | {
            name for name, attr in vars(SimulationMetrics).items()
            if isinstance(attr, property)
        }
        if metric not in valid_metrics:
            raise BadRequest(f"unknown metric {metric!r}; available: "
                             f"{sorted(valid_metrics)}")
        computed = 0
        cached = 0
        curves: Dict[str, List[Dict[str, object]]] = {}
        for approach in approaches:
            rows: List[Dict[str, object]] = []
            for level in levels:
                values: List[float] = []
                for seed in seeds:
                    point = SweepPoint(
                        workload=workload,
                        approach=approach,
                        tile_count=tiles,
                        seed=seed,
                        iterations=iterations,
                        perturbation=noise_profile(level),
                    )
                    metrics, from_cache = self._simulate(point)
                    if from_cache:
                        cached += 1
                    else:
                        computed += 1
                    values.append(float(getattr(metrics, metric)))
                cell = aggregate(values)
                rows.append({
                    "level": level,
                    "mean": cell.mean,
                    "ci_half_width": cell.ci_half_width,
                    "count": cell.count,
                    "minimum": cell.minimum,
                    "maximum": cell.maximum,
                    "std": cell.std,
                })
            curves[approach.label] = rows
        if cached:
            self.metrics.count_cache_hit("robustness")
        if computed:
            self.metrics.count_computed("robustness")
        return 200, {
            "workload": workload.label,
            "tile_count": tiles,
            "metric": metric,
            "levels": levels,
            "seeds": seeds,
            "iterations": iterations,
            "computed_points": computed,
            "cached_points": cached,
            "curves": curves,
        }


# --------------------------------------------------------------------- #
# The HTTP daemon
# --------------------------------------------------------------------- #
class ReproServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ReproService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: ReproService) -> None:
        self.service = service
        super().__init__(address, _RequestHandler)


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP/JSON shim around :meth:`ReproService.handle`."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket.  A response goes out as two
    # writes (headers, then body); with Nagle on, the body waits for the
    # peer to ACK the headers, and a keep-alive peer delays that ACK by
    # ~40 ms on every response.
    disable_nagle_algorithm = True
    # Seconds a socket read or write may stall before the connection is
    # dropped, so a client that sends nothing, or less body than it
    # declared, cannot hold a handler thread forever.
    timeout = 30.0
    server: ReproServiceServer

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the /metrics endpoint is the observability story

    def _respond(self, status: int, body: Dict[str, object]) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        if status == 429:
            retry_after = body.get("retry_after")
            if retry_after is not None:
                self.send_header("Retry-After",
                                 str(max(1, int(float(retry_after) + 0.5))))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        status, body = self.server.service.handle(self.path)
        self._respond(status, body)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            length = -1
        if length < 0:
            # Where the body ends is unknown, so no later request on this
            # connection can be framed: answer, then hang up.
            self.close_connection = True
            self._respond(400, {"error": "bad Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot be reused.
            self.close_connection = True
            self._respond(413, {"error": f"request body over "
                                         f"{MAX_BODY_BYTES} bytes"})
            return
        raw = self.rfile.read(length) if length else b""
        if raw:
            try:
                payload = loads(raw.decode("utf-8"),
                                parse_constant=_finite_number,
                                parse_float=_finite_number)
            except (UnicodeDecodeError, ValueError):
                self._respond(400, {"error": "request body is not JSON"})
                return
        else:
            payload = {}
        status, body = self.server.service.handle(self.path, payload)
        self._respond(status, body)


def serve(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
          cache_dir: Optional[str] = None, tt_cache: bool = True,
          max_pending: Optional[int] = None,
          max_explorations: Optional[int] = None,
          shed_retry_after: Optional[float] = None,
          install_signal_handlers: bool = True) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit status.

    The first stdout line — ``repro service listening on
    http://HOST:PORT`` — is the readiness signal scripts wait for (and
    the place the real port appears when ``port=0`` asked the OS for an
    ephemeral one).  Shutdown is clean: stop accepting, drain handler
    threads, flush every warm transposition table to the store.
    """
    state_kwargs: Dict[str, object] = {"cache_dir": cache_dir,
                                       "tt_cache": tt_cache}
    if max_pending is not None:
        state_kwargs["max_pending"] = max_pending
    if max_explorations is not None:
        state_kwargs["max_explorations"] = max_explorations
    if shed_retry_after is not None:
        state_kwargs["shed_retry_after"] = shed_retry_after
    state = ServiceState(**state_kwargs)
    service = ReproService(state)
    server = ReproServiceServer((host, port), service)

    def _shutdown(signum, frame) -> None:
        # shutdown() joins serve_forever's loop, so it must run off the
        # signal-handling (= serving) thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signal_handlers:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(signum, _shutdown)
            except ValueError:
                pass  # not the main thread (embedded serve): caller stops us
    bound_host, bound_port = server.server_address[:2]
    print(f"repro service listening on http://{bound_host}:{bound_port}",
          flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        state.close()
    return 0
