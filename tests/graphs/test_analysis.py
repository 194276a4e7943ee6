"""Unit tests for the graph timing analyses."""

import pytest

from repro.errors import GraphError
from repro.graphs.analysis import (
    asap_times,
    max_parallelism,
    parallelism_profile,
    subtask_weights,
    weight_ordered_subtasks,
)
from repro.graphs.taskgraph import chain_graph


class TestAsap:
    def test_chain_asap(self, chain4):
        starts = asap_times(chain4)
        assert starts["s0"] == pytest.approx(0.0)
        assert starts["s1"] == pytest.approx(20.0)
        assert starts["s3"] == pytest.approx(61.0)

    def test_diamond_asap(self, diamond):
        starts = asap_times(diamond)
        assert starts["left"] == pytest.approx(10.0)
        assert starts["right"] == pytest.approx(10.0)
        assert starts["sink"] == pytest.approx(22.0)


class TestWeights:
    def test_chain_weights_decrease(self, chain4):
        weights = subtask_weights(chain4)
        assert weights["s0"] == pytest.approx(81.0)
        assert weights["s1"] == pytest.approx(61.0)
        assert weights["s3"] == pytest.approx(20.0)

    def test_diamond_weights(self, diamond):
        weights = subtask_weights(diamond)
        assert weights["src"] == pytest.approx(28.0)
        assert weights["right"] == pytest.approx(18.0)
        assert weights["left"] == pytest.approx(14.0)
        assert weights["sink"] == pytest.approx(6.0)

    def test_weight_ordering_helper(self, diamond):
        ordered = weight_ordered_subtasks(diamond)
        assert ordered == ["src", "right", "left", "sink"]

    def test_weight_ordering_subset(self, diamond):
        assert weight_ordered_subtasks(diamond, ["left", "sink"]) == [
            "left", "sink"
        ]

    def test_weight_ordering_unknown_subtask(self, diamond):
        with pytest.raises(GraphError):
            weight_ordered_subtasks(diamond, ["nope"])


class TestParallelism:
    def test_chain_parallelism_is_one(self, chain4):
        assert max_parallelism(chain4) == 1

    def test_diamond_parallelism_is_two(self, diamond):
        assert max_parallelism(diamond) == 2

    def test_profile_length(self, diamond):
        assert len(parallelism_profile(diamond, resolution=64)) == 64

    def test_profile_never_exceeds_subtask_count(self, diamond):
        assert max(parallelism_profile(diamond)) <= len(diamond)

    def test_single_subtask_profile(self):
        graph = chain_graph("one", [5.0])
        assert max_parallelism(graph) == 1
