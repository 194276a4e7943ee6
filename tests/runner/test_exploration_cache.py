"""Tests for the on-disk TCM design-time exploration cache."""

import json

import pytest

from repro.platform.description import Platform
from repro.runner import ExplorationCache, WorkloadSpec
from repro.runner.engine import explore_platform
from repro.tcm.design_time import (
    TcmDesignTimeScheduler,
    exploration_from_dict,
    exploration_to_dict,
)
from repro.workloads.multimedia import MultimediaWorkload


@pytest.fixture(scope="module")
def workload_spec() -> WorkloadSpec:
    return WorkloadSpec.of(
        "multimedia",
        reconfiguration_latency=MultimediaWorkload().reconfiguration_latency,
    )


def explore(workload_spec: WorkloadSpec, tiles: int = 4):
    workload = workload_spec.build()
    platform = Platform(
        tile_count=tiles,
        reconfiguration_latency=workload.reconfiguration_latency,
    )
    return platform, TcmDesignTimeScheduler(platform).explore(
        workload.task_set
    )


def assert_same_exploration(left, right) -> None:
    assert set(left.curves) == set(right.curves)
    for key, curve in left.curves.items():
        other = right.curves[key]
        assert [p.key for p in curve] == [p.key for p in other]
        for mine, theirs in zip(curve, other):
            assert mine.execution_time == theirs.execution_time
            assert mine.energy == theirs.energy
            assert mine.tile_count == theirs.tile_count
            assert mine.placed.placements == theirs.placed.placements


class TestExplorationSerialization:
    def test_round_trip_is_exact(self, workload_spec):
        platform, result = explore(workload_spec)
        payload = json.loads(json.dumps(exploration_to_dict(result)))
        rebuilt = exploration_from_dict(payload, platform)
        assert_same_exploration(result, rebuilt)


class TestExplorationCache:
    def test_miss_then_hit(self, tmp_path, workload_spec):
        platform, result = explore(workload_spec)
        cache = ExplorationCache(tmp_path)
        assert cache.load(workload_spec, 4, platform) is None
        path = cache.store(workload_spec, 4, result)
        assert path.exists()
        loaded = cache.load(workload_spec, 4, platform)
        assert loaded is not None
        assert_same_exploration(result, loaded)

    def test_different_request_misses(self, tmp_path, workload_spec):
        platform, result = explore(workload_spec)
        cache = ExplorationCache(tmp_path)
        cache.store(workload_spec, 4, result)
        assert cache.load(workload_spec, 5, platform) is None
        other = WorkloadSpec.of("multimedia")
        assert cache.load(other, 4, platform) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, workload_spec):
        platform, result = explore(workload_spec)
        cache = ExplorationCache(tmp_path)
        path = cache.store(workload_spec, 4, result)
        path.write_text("{ not json", encoding="utf-8")
        assert cache.load(workload_spec, 4, platform) is None
        # Truncated-but-valid JSON with a matching request is also rejected
        # (the schedules fail to rebuild).
        entry = {"request": cache._payload(workload_spec, 4),
                 "exploration": {"curves": [{"task": "x"}]}}
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(workload_spec, 4, platform) is None

    def test_tampered_payload_is_a_miss(self, tmp_path, workload_spec):
        platform, result = explore(workload_spec)
        cache = ExplorationCache(tmp_path)
        path = cache.store(workload_spec, 4, result)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["request"]["tile_count"] = 999
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(workload_spec, 4, platform) is None

    def test_non_finite_execution_time_is_a_miss(self, tmp_path,
                                                 workload_spec):
        # NaN slips past every ``<=`` range check and the placement
        # duration check; reloaded, it would make every weight NaN.
        platform, result = explore(workload_spec)
        cache = ExplorationCache(tmp_path)
        path = cache.store(workload_spec, 4, result)
        entry = json.loads(path.read_text(encoding="utf-8"))
        point = entry["exploration"]["curves"][0]["points"][0]
        point["placed"]["graph"]["subtasks"][0]["execution_time"] = \
            float("nan")
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(workload_spec, 4, platform) is None


class TestResultCacheClearsExplorations:
    def test_clear_removes_nested_exploration_entries(self, tmp_path,
                                                      workload_spec):
        from repro.runner import ResultCache

        platform, result = explore(workload_spec)
        result_cache = ResultCache(tmp_path)
        exploration_cache = ExplorationCache(tmp_path / "explorations")
        exploration_cache.store(workload_spec, 4, result)
        assert exploration_cache.load(workload_spec, 4, platform) is not None
        removed = result_cache.clear()
        assert removed == 1
        assert exploration_cache.load(workload_spec, 4, platform) is None


class TestExplorePlatformMemoization:
    def test_warm_call_skips_exploration(self, tmp_path, workload_spec,
                                         monkeypatch):
        directory = str(tmp_path / "explorations")
        workload, platform, first = explore_platform(workload_spec, 4,
                                                     directory)
        calls = []
        original = TcmDesignTimeScheduler.explore

        def counting(self, task_set):
            calls.append(1)
            return original(self, task_set)

        monkeypatch.setattr(TcmDesignTimeScheduler, "explore", counting)
        _, _, second = explore_platform(workload_spec, 4, directory)
        assert calls == []
        assert_same_exploration(first, second)

    def test_without_directory_explores_fresh(self, workload_spec,
                                              monkeypatch):
        calls = []
        original = TcmDesignTimeScheduler.explore

        def counting(self, task_set):
            calls.append(1)
            return original(self, task_set)

        monkeypatch.setattr(TcmDesignTimeScheduler, "explore", counting)
        explore_platform(workload_spec, 2)
        assert calls == [1]

    def test_cached_exploration_yields_identical_metrics(self, tmp_path,
                                                         workload_spec):
        """Simulating on a disk-loaded exploration is bit-identical."""
        from repro.runner import ApproachSpec, SweepEngine, SweepSpec

        spec = SweepSpec(workloads=(workload_spec,),
                         approaches=(ApproachSpec("run-time"),),
                         tile_counts=(4,), seeds=(1,), iterations=5)
        cached_engine = SweepEngine(cache_dir=tmp_path / "cache")
        cold = cached_engine.run(spec)
        # Second run with a *different seed* reuses the stored exploration
        # but must recompute (and match) the simulation bit for bit.
        spec2 = SweepSpec(workloads=(workload_spec,),
                          approaches=(ApproachSpec("run-time"),),
                          tile_counts=(4,), seeds=(2,), iterations=5)
        warm = SweepEngine(cache_dir=tmp_path / "cache").run(spec2)
        fresh = SweepEngine().run(spec2)
        assert warm.outcomes[0].metrics == fresh.outcomes[0].metrics
        assert cold.computed_count == 1 and warm.computed_count == 1
