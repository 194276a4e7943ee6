"""Tests for the service's warm state: admission, residency, counters."""

import threading

import pytest

from repro.runner import ApproachSpec, SweepPoint, WorkloadSpec
from repro.service import ServiceOverloaded, ServiceState
from repro.service.state import DEFAULT_MAX_PENDING
from repro.workloads import registry

#: Tiny synthetic workload shared by the service tests (fast to explore
#: and to simulate, same spirit as tests/runner/test_engine.py).
SYNTH_OPTIONS = dict(task_count=2, subtasks_per_task=5,
                     scenarios_per_task=2, seed=3)
ITERATIONS = 10


def synth_spec() -> WorkloadSpec:
    return WorkloadSpec.of("synthetic", **SYNTH_OPTIONS)


def make_point(**overrides) -> SweepPoint:
    fields = dict(
        workload=synth_spec(),
        approach=ApproachSpec.of("hybrid"),
        tile_count=4,
        seed=2005,
        iterations=ITERATIONS,
    )
    fields.update(overrides)
    return SweepPoint(**fields)


class TestAdmission:
    def test_defaults(self):
        state = ServiceState()
        assert state.max_pending == DEFAULT_MAX_PENDING
        assert state.pending == 0

    def test_slot_occupied_and_released(self):
        state = ServiceState(max_pending=2)
        with state.admission():
            assert state.pending == 1
            with state.admission():
                assert state.pending == 2
        assert state.pending == 0

    def test_sheds_past_max_pending(self):
        state = ServiceState(max_pending=1, shed_retry_after=2.5)
        with state.admission():
            with pytest.raises(ServiceOverloaded) as excinfo:
                with state.admission():
                    pass
        assert excinfo.value.retry_after == 2.5
        assert state.shed_count == 1
        # The shed attempt never occupied a slot.
        assert state.pending == 0

    def test_slot_released_on_error(self):
        state = ServiceState(max_pending=1)
        with pytest.raises(RuntimeError):
            with state.admission():
                raise RuntimeError("boom")
        with state.admission():
            assert state.pending == 1

    def test_validates_configuration(self):
        with pytest.raises(ValueError):
            ServiceState(max_pending=0)
        with pytest.raises(ValueError):
            ServiceState(max_explorations=0)


class TestResidentExplorations:
    def test_second_request_is_a_batch_hit(self):
        state = ServiceState()
        first = state.exploration_for(synth_spec(), 4)
        assert state.exploration_builds == 1
        second = state.exploration_for(synth_spec(), 4)
        assert second is first  # the same live trio, not a rebuild
        assert state.exploration_lru_hits == 1
        assert state.exploration_builds == 1

    def test_lru_evicts_oldest_platform(self):
        state = ServiceState(max_explorations=1)
        state.exploration_for(synth_spec(), 4)
        state.exploration_for(synth_spec(), 5)
        assert state.exploration_builds == 2
        # Platform 4 was evicted: asking again rebuilds it.
        state.exploration_for(synth_spec(), 4)
        assert state.exploration_builds == 3

    def test_exploration_memoized_on_disk_with_cache_dir(self, tmp_path):
        state = ServiceState(cache_dir=tmp_path)
        state.exploration_for(synth_spec(), 4)
        exploration_dir = tmp_path / "explorations"
        assert any(exploration_dir.glob("explore-*.json"))


class TestResidentSchedules:
    def test_same_core_returns_same_placed_schedule(self):
        state = ServiceState()
        first = state.placed_schedule_for("jpeg_decoder", 8, 4.0)
        second = state.placed_schedule_for("jpeg_decoder", 8, 4.0)
        assert second is first
        assert state.schedule_lru_hits == 1

    def test_unknown_task_is_a_bad_request(self):
        from repro.service import BadRequest

        state = ServiceState()
        with pytest.raises(BadRequest, match="unknown task"):
            state.placed_schedule_for("nope", 8, 4.0)

    def test_registry_covers_demo_tasks(self):
        assert set(registry.task_graph_names()) == {
            "pattern_recognition", "jpeg_decoder", "parallel_jpeg",
            "mpeg_encoder_b", "mpeg_encoder_p", "mpeg_encoder_i",
        }


class TestSimulatePath:
    def test_simulation_counted_and_cached(self, tmp_path):
        state = ServiceState(cache_dir=tmp_path)
        point = make_point()
        assert state.load_cached(point) is None
        with state.compute_lock:
            metrics = state.simulate_point(point)
        assert state.simulations == 1
        assert state.result_cache_stores == 1
        replay = state.load_cached(point)
        assert replay == metrics
        assert state.result_cache_hits == 1

    def test_without_cache_dir_nothing_is_memoized(self):
        state = ServiceState()
        point = make_point()
        assert state.load_cached(point) is None
        with state.compute_lock:
            state.simulate_point(point)
        assert state.load_cached(point) is None
        assert state.result_cache_stores == 0


class TestSnapshotsAndClose:
    def test_warm_snapshot_keys(self):
        state = ServiceState()
        snapshot = state.warm_snapshot()
        for key in ("exploration_lru_hits", "schedule_lru_hits",
                    "exploration_builds",
                    "resident_explorations", "resident_schedules",
                    "result_cache_hits", "simulations", "pool_hits",
                    "pool_misses", "pool_engines", "tt_warm_hits"):
            assert key in snapshot

    def test_admission_snapshot_tracks_pending(self):
        state = ServiceState(max_pending=3)
        with state.admission():
            snapshot = state.admission_snapshot()
        assert snapshot["pending"] == 1
        assert snapshot["max_pending"] == 3

    def test_close_drops_residency(self):
        state = ServiceState()
        state.exploration_for(synth_spec(), 4)
        state.placed_schedule_for("jpeg_decoder", 8, 4.0)
        state.close()
        snapshot = state.warm_snapshot()
        assert snapshot["resident_explorations"] == 0
        assert snapshot["resident_schedules"] == 0

    def test_state_is_shareable_across_threads(self):
        """Concurrent admissions on one state never corrupt the counter."""
        state = ServiceState(max_pending=64)
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(25):
                with state.admission():
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert state.pending == 0
        assert state.shed_count == 0
