"""Unit tests for the TCM design-time exploration."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.description import Platform
from repro.scheduling.pool import SchedulerPool
from repro.tcm.design_time import (
    TcmDesignTimeScheduler,
    point_key_for_tiles,
)
from repro.workloads.multimedia import multimedia_task_set


@pytest.fixture
def platform():
    return Platform(tile_count=8, reconfiguration_latency=4.0)


@pytest.fixture
def design_result(platform):
    return TcmDesignTimeScheduler(platform).explore(multimedia_task_set())


class TestExploration:
    def test_curve_per_scenario(self, design_result):
        task_set = multimedia_task_set()
        assert design_result.curve_count == task_set.scenario_count
        for task in task_set:
            for scenario in task:
                curve = design_result.curve(task.name, scenario.name)
                assert len(curve) >= 1

    def test_missing_curve(self, design_result):
        with pytest.raises(ConfigurationError):
            design_result.curve("ghost", "default")

    def test_points_trade_time_for_energy(self, design_result):
        curve = design_result.curve("pattern_recognition", "default")
        front = curve.pareto_points()
        if len(front) > 1:
            times = [p.execution_time for p in front]
            energies = [p.energy for p in front]
            assert times == sorted(times)
            assert energies == sorted(energies, reverse=True)

    def test_full_pool_point_always_present(self, design_result, platform):
        full_key = point_key_for_tiles(platform.tile_count)
        for curve in design_result.curves.values():
            assert any(point.key == full_key for point in curve)

    def test_fastest_point_matches_critical_path(self, design_result):
        task_set = multimedia_task_set()
        for task in task_set:
            for scenario in task:
                curve = design_result.curve(task.name, scenario.name)
                assert curve.fastest().execution_time == pytest.approx(
                    scenario.graph.critical_path_length()
                )

    def test_single_tile_point_serializes_work(self, design_result):
        task_set = multimedia_task_set()
        for task in task_set:
            for scenario in task:
                curve = design_result.curve(task.name, scenario.name)
                point = curve.point(point_key_for_tiles(1))
                assert point.execution_time == pytest.approx(
                    scenario.graph.total_execution_time
                )

    def test_schedules_lists_every_point(self, design_result):
        listed = design_result.schedules()
        assert len(listed) == sum(len(curve)
                                  for curve in design_result.curves.values())

    def test_build_design_store_covers_every_point(self, design_result):
        store = design_result.build_design_store(4.0)
        assert len(store) == len(design_result.schedules())


class TestDesignStoreMemoization:
    def test_equivalent_heuristics_share_one_store(self, design_result):
        first = design_result.build_design_store(4.0)
        second = design_result.build_design_store(4.0)
        assert second is first
        assert design_result.store_cache_hits >= 1

    def test_latency_is_the_memo_key(self, design_result):
        misses_before = design_result.store_cache_misses
        slow = design_result.build_design_store(4.0)
        fast = design_result.build_design_store(2.0)
        assert fast is not slow
        assert design_result.store_cache_misses == misses_before + 2
        assert {entry.reconfiguration_latency for entry in fast} == {2.0}

    def test_a_caller_pool_reads_the_same_slot(self, design_result):
        """Warm pools change search speed, never the store."""
        first = design_result.build_design_store(4.0, SchedulerPool())
        assert design_result.build_design_store(4.0) is first
