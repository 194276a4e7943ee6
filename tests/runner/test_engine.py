"""Tests for the sweep engine: determinism, parallelism, caching."""

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    ApproachSpec,
    SweepEngine,
    SweepSpec,
    WorkloadSpec,
    parallel_map,
    run_group,
)
from repro.sim.approaches import HybridApproach, RunTimeApproach
from repro.sim.simulator import simulate
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

#: A deliberately small synthetic workload: cheap design-time exploration,
#: cheap iterations, but the full engine machinery is exercised.
SYNTH_OPTIONS = dict(task_count=2, subtasks_per_task=5, scenarios_per_task=2,
                     seed=3)
ITERATIONS = 15


def synth_spec(**overrides) -> SweepSpec:
    fields = dict(
        workloads=(WorkloadSpec.of("synthetic", **SYNTH_OPTIONS),),
        approaches=("run-time", "hybrid"),
        tile_counts=(4, 6),
        seeds=(11,),
        iterations=ITERATIONS,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def double(value: int) -> int:
    return value * 2


class TestParallelMap:
    def test_in_process(self):
        assert parallel_map(double, [1, 2, 3], max_workers=1) == [2, 4, 6]

    def test_on_processes_preserves_order(self):
        items = list(range(20))
        assert parallel_map(double, items, max_workers=4) == \
            [2 * item for item in items]

    def test_empty(self):
        assert parallel_map(double, [], max_workers=4) == []


class TestRunGroup:
    def test_rejects_mixed_groups(self):
        points = synth_spec().expand()  # two tile counts -> two groups
        with pytest.raises(ConfigurationError):
            run_group(points)

    def test_empty_group(self):
        assert run_group([]) == []


class TestDeterminism:
    @pytest.fixture(scope="class")
    def sequential(self):
        return SweepEngine(max_workers=1).run(synth_spec())

    def test_parallel_matches_sequential_exactly(self, sequential):
        """max_workers=4 produces bit-identical SimulationMetrics."""
        parallel = SweepEngine(max_workers=4).run(synth_spec())
        assert [o.metrics for o in parallel] == \
            [o.metrics for o in sequential]
        assert all(not o.from_cache for o in parallel)

    def test_engine_matches_direct_simulation(self, sequential):
        """Shared design-time exploration does not change any result."""
        workload = SyntheticWorkload(spec=SyntheticSpec(**SYNTH_OPTIONS))
        for outcome in sequential.outcomes:
            approach = {"run-time": RunTimeApproach,
                        "hybrid": HybridApproach}[outcome.point.approach.name]
            direct = simulate(workload, outcome.point.tile_count, approach(),
                              iterations=ITERATIONS, seed=11)
            assert direct.metrics == outcome.metrics

    def test_rerun_is_identical(self, sequential):
        again = SweepEngine(max_workers=1).run(synth_spec())
        assert [o.metrics for o in again] == [o.metrics for o in sequential]


class TestCacheIntegration:
    def test_warm_cache_skips_simulation(self, tmp_path):
        spec = synth_spec()
        engine = SweepEngine(max_workers=1, cache_dir=tmp_path)
        cold = engine.run(spec)
        assert cold.computed_count == spec.point_count
        assert cold.cached_count == 0

        warm = SweepEngine(max_workers=1, cache_dir=tmp_path).run(spec)
        assert warm.computed_count == 0
        assert warm.cached_count == spec.point_count
        assert [o.metrics for o in warm] == [o.metrics for o in cold]

    def test_parallel_warm_cache(self, tmp_path):
        spec = synth_spec()
        cold = SweepEngine(max_workers=4, cache_dir=tmp_path).run(spec)
        warm = SweepEngine(max_workers=4, cache_dir=tmp_path).run(spec)
        assert warm.computed_count == 0
        assert [o.metrics for o in warm] == [o.metrics for o in cold]

    def test_changed_point_misses_the_cache(self, tmp_path):
        engine = SweepEngine(max_workers=1, cache_dir=tmp_path)
        engine.run(synth_spec())
        shifted_spec = synth_spec(seeds=(12,))
        shifted = engine.run(shifted_spec)
        # A different seed shares no cache entry with the warm sweep.
        assert shifted.cached_count == 0
        assert shifted.computed_count == shifted_spec.point_count

    def test_corrupted_entry_is_recomputed(self, tmp_path):
        spec = synth_spec(tile_counts=(4,))
        engine = SweepEngine(max_workers=1, cache_dir=tmp_path)
        cold = engine.run(spec)
        victim = cold.outcomes[0].point
        engine.cache.path_for(victim).write_text("{ definitely broken")

        recovered = SweepEngine(max_workers=1, cache_dir=tmp_path).run(spec)
        assert recovered.computed_count == 1
        assert recovered.cached_count == spec.point_count - 1
        assert [o.metrics for o in recovered] == \
            [o.metrics for o in cold]
        # The recomputation also repaired the entry on disk.
        followup = SweepEngine(max_workers=1, cache_dir=tmp_path).run(spec)
        assert followup.computed_count == 0


class TestEngineApi:
    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            SweepEngine(max_workers=0)

    def test_duplicate_points_computed_once(self):
        points = synth_spec(tile_counts=(4,)).expand()
        result = SweepEngine(max_workers=1).run(points + points)
        assert len(result) == 2 * len(points)
        first, second = (result.outcomes[: len(points)],
                         result.outcomes[len(points):])
        # Duplicates resolve to the *same* outcome object: the point was
        # simulated once, not twice.
        for left, right in zip(first, second):
            assert left is right

    def test_duplicate_points_stored_once_in_cache(self, tmp_path):
        points = synth_spec(tile_counts=(4,)).expand()
        engine = SweepEngine(max_workers=1, cache_dir=tmp_path)
        result = engine.run(points + points)
        assert len(engine.cache) == len(points)
        warm = engine.run(points + points)
        assert warm.computed_count == 0
        assert [o.metrics for o in warm] == [o.metrics for o in result]

    def test_metrics_for_requires_unique_match(self):
        result = SweepEngine(max_workers=1).run(synth_spec(tile_counts=(4,)))
        single = result.metrics_for(approach="hybrid", tile_count=4)
        assert single.approach == "hybrid"
        with pytest.raises(KeyError):
            result.metrics_for(approach="hybrid", tile_count=99)
        with pytest.raises(KeyError):
            result.metrics_for()  # two approaches match

    def test_by_approach_shape(self):
        result = SweepEngine(max_workers=1).run(synth_spec())
        table = result.by_approach()
        assert set(table) == {"run-time", "hybrid"}
        assert set(table["hybrid"]) == {4, 6}


class TestRunGroupStoreLifecycle:
    def test_run_group_restores_previous_tt_binding(self, tmp_path):
        """A finished group must not leave its store bound to the
        process-global pool — later unrelated work in the same process
        would otherwise keep writing (and resurrect) a dead sweep's
        cache directory."""
        from repro.runner.engine import run_group
        from repro.scheduling.pool import (
            process_scheduler_pool,
            reset_process_scheduler_pool,
        )

        reset_process_scheduler_pool()
        try:
            points = synth_spec(tile_counts=(4,)).expand()
            group = [p for p in points if p.approach.name == "hybrid"]
            run_group(group, tt_dir=str(tmp_path / "ttables"))
            assert list((tmp_path / "ttables").glob("tt-*.json"))
            assert process_scheduler_pool().tt_store is None
        finally:
            reset_process_scheduler_pool()
