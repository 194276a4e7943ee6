"""Unit tests for the task-graph container."""

import pytest

from repro.errors import (
    CycleError,
    DuplicateSubtaskError,
    GraphError,
    UnknownSubtaskError,
)
from repro.graphs.subtask import drhw_subtask, isp_subtask
from repro.graphs.taskgraph import TaskGraph, chain_graph, fork_join_graph


class TestConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph("")

    def test_add_subtask_and_lookup(self):
        graph = TaskGraph("t")
        subtask = graph.add_subtask(drhw_subtask("a", 1.0))
        assert graph.subtask("a") is subtask
        assert "a" in graph
        assert len(graph) == 1

    def test_duplicate_subtask_rejected(self):
        graph = TaskGraph("t")
        graph.add_subtask(drhw_subtask("a", 1.0))
        with pytest.raises(DuplicateSubtaskError):
            graph.add_subtask(drhw_subtask("a", 2.0))

    def test_unknown_subtask_lookup(self):
        graph = TaskGraph("t")
        with pytest.raises(UnknownSubtaskError):
            graph.subtask("missing")

    def test_dependency_requires_known_endpoints(self):
        graph = TaskGraph("t")
        graph.add_subtask(drhw_subtask("a", 1.0))
        with pytest.raises(UnknownSubtaskError):
            graph.add_dependency("a", "b")

    def test_self_dependency_rejected(self):
        graph = TaskGraph("t")
        graph.add_subtask(drhw_subtask("a", 1.0))
        with pytest.raises(CycleError):
            graph.add_dependency("a", "a")

    def test_cycle_rejected_and_rolled_back(self):
        graph = TaskGraph("t")
        graph.add_subtask(drhw_subtask("a", 1.0))
        graph.add_subtask(drhw_subtask("b", 1.0))
        graph.add_dependency("a", "b")
        with pytest.raises(CycleError):
            graph.add_dependency("b", "a")
        # The offending edge must not remain in the graph.
        assert graph.dependencies() == [("a", "b")]

    def test_negative_data_size_rejected(self):
        graph = TaskGraph("t")
        graph.add_subtask(drhw_subtask("a", 1.0))
        graph.add_subtask(drhw_subtask("b", 1.0))
        with pytest.raises(GraphError):
            graph.add_dependency("a", "b", data_size=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True],
                             ids=["nan", "inf", "true"])
    def test_non_finite_or_bool_data_size_rejected(self, value):
        graph = TaskGraph("t")
        graph.add_subtask(drhw_subtask("a", 1.0))
        graph.add_subtask(drhw_subtask("b", 1.0))
        with pytest.raises(GraphError):
            graph.add_dependency("a", "b", data_size=value)
        assert graph.dependencies() == []

    def test_constructor_with_subtasks_and_dependencies(self):
        graph = TaskGraph(
            "t",
            subtasks=[drhw_subtask("a", 1.0), drhw_subtask("b", 2.0)],
            dependencies=[("a", "b")],
        )
        assert graph.dependencies() == [("a", "b")]


class TestIntrospection:
    def test_sources_and_sinks(self, diamond):
        assert diamond.sources() == ["src"]
        assert diamond.sinks() == ["sink"]

    def test_predecessors_successors(self, diamond):
        assert set(diamond.successors("src")) == {"left", "right"}
        assert set(diamond.predecessors("sink")) == {"left", "right"}

    def test_topological_order_is_valid(self, diamond):
        order = diamond.topological_order()
        position = {name: i for i, name in enumerate(order)}
        for producer, consumer in diamond.dependencies():
            assert position[producer] < position[consumer]

    def test_topological_order_deterministic(self, diamond):
        assert diamond.topological_order() == diamond.topological_order()

    def test_critical_path_length_chain(self, chain4):
        assert chain4.critical_path_length() == pytest.approx(81.0)

    def test_critical_path_length_diamond(self, diamond):
        # src -> right -> sink is the longest path: 10 + 12 + 6.
        assert diamond.critical_path_length() == pytest.approx(28.0)

    def test_total_execution_time(self, diamond):
        assert diamond.total_execution_time == pytest.approx(36.0)

    def test_data_size_roundtrip(self):
        graph = TaskGraph("t")
        graph.add_subtask(drhw_subtask("a", 1.0))
        graph.add_subtask(drhw_subtask("b", 1.0))
        graph.add_dependency("a", "b", data_size=64.0)
        assert graph.data_size("a", "b") == pytest.approx(64.0)

    def test_data_size_missing_edge(self, diamond):
        with pytest.raises(GraphError):
            diamond.data_size("left", "right")

    def test_drhw_and_isp_partitions(self, mixed_graph):
        assert [s.name for s in mixed_graph.drhw_subtasks] == ["hw_a", "hw_c"]
        assert [s.name for s in mixed_graph.isp_subtasks] == ["sw_b"]

    def test_configurations_unique(self):
        graph = TaskGraph("t")
        graph.add_subtask(drhw_subtask("a0", 1.0, configuration="shared"))
        graph.add_subtask(drhw_subtask("a1", 1.0, configuration="shared"))
        graph.add_subtask(isp_subtask("sw", 1.0))
        assert graph.configurations == ["shared"]

    def test_empty_graph_critical_path(self):
        assert TaskGraph("empty").critical_path_length() == 0.0


class TestTransformations:
    def test_copy_is_independent(self, diamond):
        clone = diamond.copy()
        clone.add_subtask(drhw_subtask("extra", 1.0))
        assert "extra" not in diamond
        assert len(clone) == len(diamond) + 1


class TestFactories:
    def test_chain_graph_structure(self):
        graph = chain_graph("c", [1.0, 2.0, 3.0])
        assert len(graph) == 3
        assert graph.dependencies() == [("s0", "s1"), ("s1", "s2")]
        assert graph.critical_path_length() == pytest.approx(6.0)

    def test_fork_join_structure(self):
        graph = fork_join_graph("fj", 2.0, [3.0, 4.0, 5.0], 1.0)
        assert len(graph) == 5
        assert graph.sources() == ["s_fork"]
        assert graph.sinks() == ["s_join"]
        assert graph.critical_path_length() == pytest.approx(2.0 + 5.0 + 1.0)
