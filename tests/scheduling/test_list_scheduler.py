"""Unit tests for the initial (reconfiguration-free) list scheduler."""

import pytest

from repro.errors import SchedulingError
from repro.graphs.taskgraph import TaskGraph
from repro.platform.description import Platform
from repro.scheduling.list_scheduler import build_initial_schedule


class TestBasicScheduling:
    def test_chain_makespan_equals_critical_path(self, chain4, platform8):
        placed = build_initial_schedule(chain4, platform8)
        assert placed.makespan == pytest.approx(chain4.critical_path_length())

    def test_diamond_uses_parallelism(self, diamond, platform8):
        placed = build_initial_schedule(diamond, platform8)
        assert placed.makespan == pytest.approx(28.0)
        # left and right run concurrently on different tiles.
        assert placed.resource_of("left") != placed.resource_of("right")

    def test_single_tile_serializes(self, diamond):
        platform = Platform(tile_count=1)
        placed = build_initial_schedule(diamond, platform)
        assert placed.makespan == pytest.approx(diamond.total_execution_time)

    def test_respects_dependencies(self, benchmark_graphs, platform8):
        for graph in benchmark_graphs:
            placed = build_initial_schedule(graph, platform8)
            for producer, consumer in graph.dependencies():
                assert placed.ideal_start(consumer) >= \
                    placed.ideal_finish(producer) - 1e-9

    def test_no_resource_overlap(self, benchmark_graphs, platform3):
        for graph in benchmark_graphs:
            placed = build_initial_schedule(graph, platform3)
            for resource in placed.resources:
                order = placed.resource_order(resource)
                for earlier, later in zip(order, order[1:]):
                    assert placed.ideal_start(later) >= \
                        placed.ideal_finish(earlier) - 1e-9

    def test_isp_subtasks_go_to_isp(self, mixed_graph, platform8):
        placed = build_initial_schedule(mixed_graph, platform8)
        assert not placed.resource_of("sw_b").is_tile
        assert placed.resource_of("hw_a").is_tile

    def test_isp_needed_but_absent(self, mixed_graph):
        platform = Platform(tile_count=4, isp_count=0)
        with pytest.raises(SchedulingError):
            build_initial_schedule(mixed_graph, platform)

    def test_makespan_never_below_critical_path(self, benchmark_graphs):
        for tiles in (1, 2, 3, 8):
            platform = Platform(tile_count=tiles)
            for graph in benchmark_graphs:
                placed = build_initial_schedule(graph, platform)
                assert placed.makespan >= graph.critical_path_length() - 1e-9

    def test_more_tiles_never_hurt(self, benchmark_graphs):
        for graph in benchmark_graphs:
            previous = None
            for tiles in (1, 2, 4, 8):
                placed = build_initial_schedule(graph, Platform(tile_count=tiles))
                if previous is not None:
                    assert placed.makespan <= previous + 1e-9
                previous = placed.makespan

    def test_empty_graph_rejected(self, platform8):
        with pytest.raises(Exception):
            build_initial_schedule(TaskGraph("empty"), platform8)


class TestSpreadingAndPacking:
    def test_spreading_uses_one_tile_per_subtask(self, chain4, platform8):
        placed = build_initial_schedule(chain4, platform8)
        used = {placed.resource_of(name) for name in chain4.subtask_names}
        assert len(used) == len(chain4)

    def test_deterministic(self, benchmark_graphs, platform8):
        for graph in benchmark_graphs:
            a = build_initial_schedule(graph, platform8)
            b = build_initial_schedule(graph, platform8)
            assert a.placements == b.placements

