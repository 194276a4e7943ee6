"""Tests for the ablation studies."""

import pytest

from repro.core.critical import PICK_STRATEGIES
from repro.experiments.ablation import (
    run_engine_ablation,
    run_pick_metric_ablation,
)
from repro.experiments.artifacts import (
    INTERTASK_ABLATION,
    REPLACEMENT_ABLATION,
    run_artifact,
)

ITERATIONS = 40
WITH = "hybrid with inter-task prefetch"
WITHOUT = "hybrid without inter-task prefetch"


class TestPickMetricAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_pick_metric_ablation()

    def test_all_strategies_evaluated(self, result):
        for row in result.rows:
            assert set(row.critical_by_strategy) == set(PICK_STRATEGIES)

    def test_max_weight_is_competitive(self, result):
        """The paper's pick never needs more critical subtasks in total."""
        totals = {strategy: result.total(strategy)
                  for strategy in PICK_STRATEGIES}
        assert totals["max-weight"] <= min(totals.values()) + 1

    def test_format(self, result):
        assert "max-weight" in result.format_table()


class TestInterTaskAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_artifact(INTERTASK_ABLATION, iterations=ITERATIONS,
                            seeds=(3,))

    def test_intertask_never_hurts(self, result):
        assert result.value(WITH, 8) <= result.value(WITHOUT, 8) + 1e-9

    def test_intertask_brings_meaningful_gain(self, result):
        assert result.value(WITHOUT, 8) - result.value(WITH, 8) > 0.5

    def test_format(self, result):
        assert "inter-task" in result.format_table()


class TestReplacementAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_artifact(REPLACEMENT_ABLATION, iterations=ITERATIONS,
                            seeds=(3,))

    def test_all_policies_reported(self, result):
        assert set(result.approaches) == {
            "lru", "lfu", "fifo", "randomlike", "weight-aware"
        }

    def test_reuse_rates_in_unit_interval(self, result):
        for policy in result.approaches:
            assert 0.0 <= result.value(policy, 8, "reuse_rate") <= 1.0

    def test_overheads_positive_and_small(self, result):
        for policy in result.approaches:
            assert 0.0 <= result.value(policy, 8) < 25.0

    def test_format(self, result):
        assert "lru" in result.format_table()


class TestEngineAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_engine_ablation()

    def test_heuristic_never_beats_optimal(self, result):
        for row in result.rows:
            assert row.optimality_gap_percent_points >= -1e-9

    def test_gap_is_small_on_benchmarks(self, result):
        assert result.maximum_gap <= 5.0

    def test_critical_counts_reported(self, result):
        for row in result.rows:
            assert row.optimal_critical >= 1
            assert row.heuristic_critical >= 1

    def test_format(self, result):
        assert "B&B" in result.format_table()
