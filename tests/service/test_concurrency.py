"""Concurrency contracts: dedup, shedding, byte-identity, clean shutdown."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.jsonio import dumps_canonical
from repro.runner import SweepEngine
from repro.runner.cache import metrics_to_dict
from repro.service import ReproService, ServiceState

from .test_state import make_point

SYNTH_PAYLOAD = {
    "name": "synthetic",
    "options": dict(task_count=2, subtasks_per_task=5,
                    scenarios_per_task=2, seed=3),
}


def wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


class TestDeduplication:
    def test_identical_concurrent_requests_compute_once(self):
        """N identical in-flight requests -> exactly one simulation."""
        state = ServiceState()
        service = ReproService(state)
        payload = {"workload": SYNTH_PAYLOAD, "tiles": 4, "iterations": 5}
        followers = 4
        responses = []
        lock = threading.Lock()

        def request():
            response = service.handle("/simulate", payload)
            with lock:
                responses.append(response)

        # Hold the compute lock so the leader blocks mid-computation and
        # every other thread joins its in-flight future deterministically.
        with state.compute_lock:
            threads = [threading.Thread(target=request)
                       for _ in range(followers + 1)]
            for thread in threads:
                thread.start()
            wait_until(lambda: service.metrics.snapshot()["endpoints"]
                       .get("simulate", {}).get("dedup_hits", 0)
                       == followers)
        for thread in threads:
            thread.join(timeout=60)
        assert len(responses) == followers + 1
        assert all(status == 200 for status, _ in responses)
        # Exactly one computation happened; everyone saw its result.
        assert state.simulations == 1
        deduplicated = [body for _, body in responses
                        if body.get("deduplicated")]
        assert len(deduplicated) == followers
        reference = next(body for _, body in responses
                         if not body.get("deduplicated"))
        for body in deduplicated:
            copy = dict(body)
            del copy["deduplicated"]
            assert copy == reference

    def test_next_identical_request_recomputes(self):
        """The in-flight table deduplicates concurrency, not history."""
        state = ServiceState()
        service = ReproService(state)
        payload = {"workload": SYNTH_PAYLOAD, "tiles": 4, "iterations": 5}
        service.handle("/simulate", payload)
        service.handle("/simulate", payload)
        assert state.simulations == 2  # no cache dir: nothing memoized
        assert service.inflight.inflight_count == 0


class TestShedding:
    def test_sheds_past_queue_depth_with_retry_hint(self):
        """A saturated admission gate sheds with 429 + the retry hint."""
        state = ServiceState(max_pending=1, shed_retry_after=0.25)
        service = ReproService(state)
        blocked = {"workload": SYNTH_PAYLOAD, "tiles": 4, "iterations": 5}
        other = {"workload": SYNTH_PAYLOAD, "tiles": 5, "iterations": 5}
        first = []

        def occupant():
            first.append(service.handle("/simulate", blocked))

        with state.compute_lock:
            thread = threading.Thread(target=occupant)
            thread.start()
            # The occupant holds the only admission slot (blocked on the
            # compute lock), so a *different* request must be shed.
            wait_until(lambda: state.pending == 1)
            status, body = service.handle("/simulate", other)
        thread.join(timeout=60)
        assert status == 429
        assert body["error"] == "overloaded"
        assert body["retry_after"] == 0.25
        assert state.shed_count == 1
        # The occupant finished normally once the lock freed up.
        assert first and first[0][0] == 200
        snapshot = service.metrics.snapshot()
        assert snapshot["endpoints"]["simulate"]["shed"] == 1

    def test_cache_hits_are_never_shed(self, tmp_path):
        """Memoized answers bypass the admission gate entirely."""
        state = ServiceState(cache_dir=tmp_path, max_pending=1)
        service = ReproService(state)
        payload = {"workload": SYNTH_PAYLOAD, "tiles": 4, "iterations": 5}
        service.handle("/simulate", payload)
        # Saturate the gate, then replay the memoized point.
        with state.admission():
            status, body = service.handle("/simulate", payload)
        assert status == 200
        assert body["from_cache"] is True


class TestByteIdentity:
    def test_service_simulate_matches_cli_sweep_bytes(self):
        """Zero-noise service results are byte-identical to a CLI sweep."""
        point = make_point()
        engine_metrics = SweepEngine(max_workers=1).run([point]) \
            .outcomes[0].metrics

        service = ReproService(ServiceState())
        status, body = service.handle("/simulate", {
            "workload": SYNTH_PAYLOAD,
            "tiles": point.tile_count,
            "iterations": point.iterations,
            "seed": point.seed,
        })
        assert status == 200
        assert (dumps_canonical(body["metrics"])
                == dumps_canonical(metrics_to_dict(engine_metrics)))

    def test_warm_repeat_stays_byte_identical(self):
        """A warm-engine replay of the same point changes nothing."""
        service = ReproService(ServiceState())
        payload = {"workload": SYNTH_PAYLOAD, "tiles": 4, "iterations": 5}
        _, first = service.handle("/simulate", payload)
        _, second = service.handle("/simulate", payload)
        assert (dumps_canonical(second["metrics"])
                == dumps_canonical(first["metrics"]))


@pytest.mark.slow
class TestDaemonLifecycle:
    def test_sigterm_is_a_clean_shutdown(self):
        """repro serve: readiness line, live requests, SIGTERM -> exit 0."""
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=root,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("repro service listening on http://")
            port = int(line.rsplit(":", 1)[1])

            import urllib.request

            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/schedule",
                data=json.dumps({"task": "jpeg_decoder"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                body = json.load(response)
            assert body["load_count"] > 0

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
