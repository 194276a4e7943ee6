"""Tests for the service endpoints, payload parsing and the HTTP layer."""

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro.runner import ApproachSpec, WorkloadSpec
from repro.service import (
    BadRequest,
    ReproService,
    ReproServiceServer,
    ServiceClient,
    ServiceRequestError,
    ServiceState,
    point_from_payload,
)
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_ITERATIONS,
    MAX_TILES,
    _RequestHandler,
    approach_spec_from,
    workload_spec_from,
)

from .test_state import ITERATIONS, SYNTH_OPTIONS

SYNTH_PAYLOAD = {"name": "synthetic", "options": dict(SYNTH_OPTIONS)}


@pytest.fixture()
def service() -> ReproService:
    return ReproService(ServiceState())


class TestPayloadParsing:
    def test_workload_by_name(self):
        assert workload_spec_from("multimedia") == WorkloadSpec.of(
            "multimedia")

    def test_workload_with_options(self):
        spec = workload_spec_from(SYNTH_PAYLOAD)
        assert spec == WorkloadSpec.of("synthetic", **SYNTH_OPTIONS)

    def test_approach_with_replacement(self):
        spec = approach_spec_from({"name": "hybrid", "replacement": "lru"})
        assert spec == ApproachSpec.of("hybrid", replacement="lru")

    def test_unknown_approach_option_is_a_bad_request(self, service):
        status, body = service.handle("/simulate", {
            "workload": SYNTH_PAYLOAD, "tiles": 4, "iterations": ITERATIONS,
            "approach": {"name": "run-time",
                         "options": {"priority": "weight"}},
        })
        assert status == 400
        assert "bad options" in body["error"]

    def test_unknown_names_are_bad_requests(self):
        with pytest.raises(BadRequest):
            workload_spec_from({"options": {}})
        with pytest.raises(BadRequest):
            approach_spec_from({"name": "hybrid", "bogus": 1})

    def test_point_round_trips_defaults(self):
        point = point_from_payload({})
        assert point.workload.name == "multimedia"
        assert point.approach.name == "hybrid"
        assert point.tile_count == 8
        assert point.seed == 2005

    def test_tiles_alias(self):
        assert point_from_payload({"tiles": 6}).tile_count == 6
        with pytest.raises(BadRequest, match="not both"):
            point_from_payload({"tiles": 6, "tile_count": 6})

    def test_unknown_field_is_rejected(self):
        with pytest.raises(BadRequest, match="unknown simulate field"):
            point_from_payload({"bogus": 1})

    def test_perturbation_object(self):
        point = point_from_payload(
            {"perturbation": {"latency_sigma": 0.2}})
        assert point.perturbation is not None
        assert point.perturbation.latency_sigma == 0.2

    def test_null_perturbation_normalizes_to_none(self):
        point = point_from_payload(
            {"perturbation": {"latency_sigma": 0.0}})
        assert point.perturbation is None

    def test_bad_perturbation_field(self):
        with pytest.raises(BadRequest, match="bad perturbation"):
            point_from_payload({"perturbation": {"bogus": 1}})


class TestEndpoints:
    def test_healthz(self, service):
        status, body = service.handle("/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_unknown_endpoint_is_404(self, service):
        status, body = service.handle("/nope")
        assert status == 404
        assert "unknown endpoint" in body["error"]

    def test_non_object_body_is_400(self, service):
        status, body = service.handle("/simulate", [1, 2, 3])
        assert status == 400

    def test_schedule(self, service):
        status, body = service.handle("/schedule",
                                      {"task": "jpeg_decoder"})
        assert status == 200
        assert body["scheduler"] == "branch-and-bound"
        assert body["makespan"] >= body["ideal_makespan"]
        assert body["load_count"] == len(body["load_order"])
        assert body["stats"]["operations"] > 0

    def test_schedule_reused_ladder_hits_warm_engine(self, service):
        status, first = service.handle("/schedule",
                                       {"task": "jpeg_decoder"})
        assert status == 200
        pool = service.state.scheduler_pool
        misses_before = pool.pool_misses
        status, second = service.handle(
            "/schedule",
            {"task": "jpeg_decoder", "reused": first["load_order"][:1]},
        )
        assert status == 200
        # Same placed schedule -> same warm engine, no new engine built.
        assert pool.pool_misses == misses_before
        assert pool.pool_hits >= 1
        assert second["overhead"] <= first["overhead"]

    def test_schedule_unknown_task_is_400(self, service):
        status, body = service.handle("/schedule", {"task": "nope"})
        assert status == 400
        assert "unknown task" in body["error"]

    def test_schedule_unknown_reused_subtask_is_400(self, service):
        status, body = service.handle(
            "/schedule", {"task": "jpeg_decoder", "reused": ["ghost"]})
        assert status == 400

    def test_schedule_non_finite_latency_is_400(self, service):
        # Transport-free callers can hand over a NaN directly; the
        # platform's own check must still refuse it.
        status, body = service.handle(
            "/schedule", {"task": "jpeg_decoder", "latency": float("nan")})
        assert status == 400
        assert "must be finite" in body["error"]

    def test_schedule_requires_task(self, service):
        status, body = service.handle("/schedule", {})
        assert status == 400
        assert "task" in body["error"]

    def test_simulate(self, service):
        status, body = service.handle(
            "/simulate",
            {"workload": SYNTH_PAYLOAD, "tiles": 4,
             "iterations": ITERATIONS},
        )
        assert status == 200
        assert body["from_cache"] is False
        assert body["metrics"]["iterations"] == ITERATIONS
        assert len(body["cache_key"]) == 64

    @pytest.mark.parametrize("perturbation", [
        {"max_retries": 1.5},
        {"latency_seed": 1.0},
        {"latency_sigma": True},
    ], ids=["float-retries", "float-seed", "bool-sigma"])
    def test_simulate_mistyped_perturbation_is_400(self, service,
                                                   perturbation):
        status, body = service.handle("/simulate", {
            "workload": SYNTH_PAYLOAD, "tiles": 4, "iterations": ITERATIONS,
            "perturbation": perturbation,
        })
        assert status == 400, body
        assert "must be" in body["error"]

    @pytest.mark.parametrize("endpoint, field, value", [
        ("/simulate", "keep_state_between_iterations", "false"),
        ("/simulate", "seed", 1.9),
        ("/simulate", "iterations", "7"),
        ("/simulate", "tiles", True),
        ("/simulate", "point_selection", 1),
        ("/schedule", "tile_count", True),
        ("/schedule", "tile_count", 4.7),
        ("/schedule", "latency", True),
        ("/robustness", "levels", ["0.1", True]),
        ("/robustness", "seeds", [1.9]),
        ("/robustness", "metric", 1),
    ], ids=["simulate-str-flag", "simulate-float-seed",
            "simulate-str-iterations", "simulate-bool-tiles",
            "simulate-int-point-selection", "schedule-bool-tiles",
            "schedule-float-tiles", "schedule-bool-latency",
            "robustness-str-bool-levels", "robustness-float-seed",
            "robustness-int-metric"])
    def test_mistyped_field_is_400(self, service, endpoint, field, value):
        # Coercing these (bool("false"), int(1.9), float(True), ...) would
        # answer 200 for a different request than the one sent.
        payload = {
            "/simulate": {"workload": SYNTH_PAYLOAD, "tiles": 4,
                          "iterations": ITERATIONS},
            "/schedule": {"task": "jpeg_decoder"},
            "/robustness": {"workload": SYNTH_PAYLOAD, "tiles": 4,
                            "iterations": ITERATIONS, "levels": [0.0],
                            "seeds": [1], "approaches": ["hybrid"]},
        }[endpoint]
        status, body = service.handle(endpoint, {**payload, field: value})
        assert status == 400, body
        assert "must be" in body["error"]

    @pytest.mark.parametrize("endpoint, field, value", [
        ("/simulate", "tile_count", MAX_TILES + 1),
        ("/simulate", "tiles", 20_000),
        ("/simulate", "iterations", MAX_ITERATIONS + 1),
        ("/schedule", "tile_count", MAX_TILES + 1),
        ("/robustness", "tiles", MAX_TILES + 1),
        # Two seeds: each point is under the cap, the grid is not.
        ("/robustness", "iterations", MAX_ITERATIONS // 2 + 1),
    ], ids=["simulate-tiles", "simulate-tiles-alias", "simulate-iterations",
            "schedule-tiles", "robustness-tiles", "robustness-grid"])
    def test_over_cap_request_is_400_before_any_compute(
            self, service, endpoint, field, value):
        payload = {
            "/simulate": {"workload": SYNTH_PAYLOAD, "iterations": ITERATIONS},
            "/schedule": {"task": "jpeg_decoder"},
            "/robustness": {"workload": SYNTH_PAYLOAD, "tiles": 4,
                            "iterations": ITERATIONS, "levels": [0.0],
                            "seeds": [1, 2], "approaches": ["hybrid"]},
        }[endpoint]
        status, body = service.handle(endpoint, {**payload, field: value})
        assert status == 400, body
        cap, named = ((MAX_TILES, "'tile_count'") if "tile" in field
                      else (MAX_ITERATIONS, "'iterations'"))
        assert body["cap"] == cap
        assert str(cap) in body["error"] and named in body["error"]
        assert service.state.simulations == 0
        assert service.metrics.snapshot()["endpoints"][
            endpoint.strip("/")]["computed"] == 0

    def test_requests_at_the_caps_are_admitted(self, service):
        assert point_from_payload({"tile_count": MAX_TILES,
                                   "iterations": MAX_ITERATIONS})
        status, body = service.handle("/schedule", {"task": "jpeg_decoder",
                                                    "tile_count": MAX_TILES})
        assert status == 200, body

    def test_integral_number_field_is_accepted(self, service):
        status, body = service.handle("/schedule",
                                      {"task": "jpeg_decoder", "latency": 4})
        assert status == 200, body
        assert body["reconfiguration_latency"] == 4.0

    def test_simulate_cache_hit_with_cache_dir(self, tmp_path):
        service = ReproService(ServiceState(cache_dir=tmp_path))
        payload = {"workload": SYNTH_PAYLOAD, "tiles": 4,
                   "iterations": ITERATIONS}
        _, first = service.handle("/simulate", payload)
        _, second = service.handle("/simulate", payload)
        assert first["from_cache"] is False
        assert second["from_cache"] is True
        assert second["metrics"] == first["metrics"]

    def test_robustness(self, service):
        status, body = service.handle(
            "/robustness",
            {"workload": SYNTH_PAYLOAD, "tiles": 4, "iterations": 5,
             "levels": [0.0, 0.3], "seeds": [1, 2],
             "approaches": ["hybrid"]},
        )
        assert status == 200
        curve = body["curves"]["hybrid"]
        assert [row["level"] for row in curve] == [0.0, 0.3]
        assert all(row["count"] == 2 for row in curve)
        assert body["computed_points"] == 4

    def test_robustness_unknown_metric_is_400(self, service):
        status, body = service.handle(
            "/robustness", {"metric": "nope", "levels": [0.0],
                            "seeds": [1]})
        assert status == 400
        assert "unknown metric" in body["error"]

    def test_robustness_rejects_empty_axes(self, service):
        status, body = service.handle("/robustness", {"levels": []})
        assert status == 400

    def test_metrics_snapshot_shape(self, service):
        service.handle("/healthz")
        status, body = service.handle("/metrics")
        assert status == 200
        assert body["totals"]["requests"] >= 1
        assert "healthz" in body["endpoints"]
        assert "warm" in body and "admission" in body

    def test_latency_percentiles_appear_after_requests(self, service):
        service.handle("/schedule", {"task": "jpeg_decoder"})
        _, body = service.handle("/metrics")
        schedule = body["endpoints"]["schedule"]
        assert schedule["requests"] == 1
        assert schedule["p99_ms"] >= schedule["p50_ms"] >= 0.0


@pytest.fixture()
def live_server():
    """A real ThreadingHTTPServer on an ephemeral port."""
    service = ReproService(ServiceState())
    server = ReproServiceServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestHttpLayer:
    def test_client_round_trip(self, live_server):
        client = ServiceClient(port=live_server.server_address[1])
        assert client.healthz()["status"] == "ok"
        body = client.schedule(task="jpeg_decoder", tiles=8, latency=4.0)
        assert body["scheduler"] == "branch-and-bound"
        snapshot = client.metrics()
        assert snapshot["totals"]["requests"] >= 2

    def test_client_raises_on_error_status(self, live_server):
        client = ServiceClient(port=live_server.server_address[1])
        with pytest.raises(ServiceRequestError) as excinfo:
            client.request("nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceRequestError) as excinfo:
            client.schedule(task="ghost")
        assert excinfo.value.status == 400

    def test_non_json_body_is_400(self, live_server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", live_server.server_address[1], timeout=10)
        try:
            connection.request(
                "POST", "/schedule", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()

    def test_keep_alive_round_trips_do_not_stall(self, live_server):
        # Headers and body leave in two writes; without TCP_NODELAY the
        # body waits out the client's ~40 ms delayed ACK every time.
        requests = [("GET", "/healthz", None),
                    ("POST", "/schedule", {"task": "jpeg_decoder",
                                           "tiles": 4})] * 10
        requests[7] = ("POST", "/schedule", {"task": "ghost"})
        requests[12] = ("GET", "/nope", None)
        connection = http.client.HTTPConnection(
            "127.0.0.1", live_server.server_address[1], timeout=10)
        round_trips, statuses, sockets = [], [], set()
        try:
            for method, path, payload in requests:
                body = None if payload is None else json.dumps(payload)
                start = time.perf_counter()
                connection.request(method, path, body=body)
                response = connection.getresponse()
                response.read()
                round_trips.append(time.perf_counter() - start)
                statuses.append(response.status)
                sockets.add(connection.sock)
        finally:
            connection.close()
        assert statuses.count(200) == 18
        assert (statuses[7], statuses[12]) == (400, 404)
        assert len(sockets) == 1  # every request rode the one connection
        assert statistics.median(round_trips) < 0.010, round_trips

    @staticmethod
    def _raw_exchange(port: int, request: bytes) -> bytes:
        """Send raw bytes; everything the server says until it hangs up."""
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as sock:
            sock.sendall(request)
            received = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return received
                received += chunk

    @pytest.mark.parametrize("path, payload", [
        ("/schedule", {"task": "jpeg_decoder", "latency": float("nan")}),
        ("/schedule", {"task": "jpeg_decoder", "latency": float("inf")}),
        ("/simulate", {"workload": SYNTH_PAYLOAD, "approach": "hybrid",
                       "tiles": 4, "iterations": ITERATIONS,
                       "perturbation": {"execution_sigma": float("inf")}}),
        ("/robustness", {"workload": SYNTH_PAYLOAD, "tiles": 4,
                         "approaches": ["hybrid"], "seeds": [1],
                         "iterations": ITERATIONS,
                         "levels": [float("nan")]}),
    ], ids=["schedule-nan", "schedule-inf", "simulate-inf", "robustness-nan"])
    def test_non_finite_json_numbers_are_400(self, live_server, path,
                                             payload):
        # json.dumps writes the NaN/Infinity tokens json.loads accepts by
        # default; they must never reach a range check.
        connection = http.client.HTTPConnection(
            "127.0.0.1", live_server.server_address[1], timeout=30)
        try:
            connection.request("POST", path, body=json.dumps(payload))
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400, body
        assert "error" in body

    def test_deeply_nested_body_is_400(self, live_server):
        # 400 KB of "[" is under the body cap, and json.loads gives up on
        # it with a RecursionError rather than a ValueError.
        body = b"[" * 400_000
        connection = http.client.HTTPConnection(
            "127.0.0.1", live_server.server_address[1], timeout=30)
        try:
            connection.request("POST", "/simulate", body=body)
            response = connection.getresponse()
            reply = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert reply == {"error": "request body is not JSON"}

    def test_overflowing_json_number_is_400(self, live_server):
        body = b'{"task": "jpeg_decoder", "latency": 1e999}'
        reply = self._raw_exchange(
            live_server.server_address[1],
            b"POST /schedule HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
        )
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_negative_content_length_is_400_and_closes(self, live_server):
        reply = self._raw_exchange(
            live_server.server_address[1],
            b"POST /schedule HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: -1\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in reply
        assert b"bad Content-Length" in reply

    def test_non_integer_content_length_is_400_and_closes(self,
                                                          live_server):
        # The bytes after the headers are an unframed body, so the GET
        # inside them must not be answered as a second request.
        reply = self._raw_exchange(
            live_server.server_address[1],
            b"POST /schedule HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: abc\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
            b"Connection: close\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        assert b"\r\nConnection: close\r\n" in reply

    @pytest.mark.parametrize("length", [MAX_BODY_BYTES + 1, 10 ** 12],
                             ids=["just-over-cap", "terabyte"])
    def test_oversized_body_is_413_unread_and_closes(self, live_server,
                                                      length):
        # No body follows the headers: answering at all proves the server
        # neither waited for the body nor tried to allocate it.
        reply = self._raw_exchange(
            live_server.server_address[1],
            b"POST /schedule HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n\r\n" % length,
        )
        assert reply.startswith(b"HTTP/1.1 413 "), reply
        assert b"\r\nConnection: close\r\n" in reply

    def test_body_at_the_cap_is_read(self, live_server):
        body = b'{"task": "jpeg_decoder", "tiles": 4}'
        body += b" " * (MAX_BODY_BYTES - len(body))
        reply = self._raw_exchange(
            live_server.server_address[1],
            b"POST /schedule HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
        )
        assert reply.startswith(b"HTTP/1.1 200 "), reply[:200]

    @pytest.mark.parametrize("request_bytes", [
        b"",
        b"POST /schedule HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: 100\r\n\r\n",
    ], ids=["silent-client", "short-body"])
    def test_stalled_reads_time_out_and_close(self, live_server,
                                              monkeypatch, request_bytes):
        # The shipped timeout is finite; shrink it to keep the test short.
        assert 0 < _RequestHandler.timeout <= 60
        monkeypatch.setattr(_RequestHandler, "timeout", 0.5)
        start = time.perf_counter()
        reply = self._raw_exchange(live_server.server_address[1],
                                   request_bytes)
        assert reply == b""  # hung up without answering
        assert time.perf_counter() - start < 4.0


class TestCliParser:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-pending", "3",
             "--max-explorations", "2", "--shed-retry-after", "0.5",
             "--cache-dir", "/tmp/x", "--no-tt-cache"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.max_pending == 3
        assert args.max_explorations == 2
        assert args.shed_retry_after == 0.5
        assert args.cache_dir == "/tmp/x"
        assert args.tt_cache is False
