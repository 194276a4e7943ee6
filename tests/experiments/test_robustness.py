"""Tests for the robustness study (repro.experiments.robustness)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.artifacts import ROBUSTNESS, run_artifact
from repro.experiments.robustness import (
    DEFAULT_APPROACHES,
    DEFAULT_NOISE_LEVELS,
    DEFAULT_SEEDS,
    noise_profile,
)


class TestNoiseProfile:
    def test_zero_is_the_noise_free_run(self):
        assert noise_profile(0.0) is None

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_profile(-0.1)

    def test_scales_every_source(self):
        mild = noise_profile(0.2)
        harsh = noise_profile(1.0)
        assert 0 < mild.latency_sigma < harsh.latency_sigma
        assert 0 < mild.execution_sigma < harsh.execution_sigma
        assert 0 < mild.load_failure_rate < harsh.load_failure_rate

    def test_failure_rate_is_capped(self):
        assert noise_profile(10.0).load_failure_rate <= 0.9

    def test_defaults_meet_the_acceptance_grid(self):
        """>= 3 approaches x >= 4 noise levels x >= 5 seeds by default."""
        assert len(DEFAULT_APPROACHES) >= 3
        assert len(DEFAULT_NOISE_LEVELS) >= 4
        assert len(DEFAULT_SEEDS) >= 5
        assert 0.0 in DEFAULT_NOISE_LEVELS


class TestRunRobustness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_artifact(
            ROBUSTNESS, workload="synthetic", tile_count=6,
            xs=(0.0, 0.4), approaches=("design-time", "adaptive"),
            seeds=(1, 2, 3), iterations=10,
        )

    def test_grid_shape(self, result):
        assert result.xs == (0.0, 0.4)
        assert set(result.approaches) == {"design-time", "adaptive"}
        assert len(result.points) == 4
        for samples in result.points.values():
            assert len(samples) == 3

    def test_zero_level_has_no_stochastic_work(self, result):
        for name in result.approaches:
            assert result.cell(name, 0.0, "total_loads_failed").mean == 0.0
            assert result.cell(name, 0.0,
                               "total_prefetches_abandoned").mean == 0.0

    def test_noise_level_injects_failures(self, result):
        assert result.cell("design-time", 0.4,
                           "total_loads_failed").mean > 0.0

    def test_curve_and_degradation(self, result):
        curve = result.curve("adaptive")
        assert curve.xs == (0.0, 0.4)
        assert curve.value_at(0.4) - curve.value_at(0.0) == pytest.approx(
            result.cell("adaptive", 0.4).mean
            - result.cell("adaptive", 0.0).mean)

    def test_adaptive_degrades_no_worse_than_design_time(self, result):
        top = max(result.xs)
        assert result.cell("adaptive", top).mean \
            <= result.cell("design-time", top).mean + 1e-9

    def test_format_table(self, result):
        text = result.format_table()
        assert "overhead (%)" in text
        assert "design-time" in text and "adaptive" in text
        assert "intensity 0 is the noise-free simulator" in text

    def test_unknown_cell_raises(self, result):
        with pytest.raises(KeyError):
            result.cell("design-time", 0.9)
        with pytest.raises(KeyError):
            result.curve("hybrid")

    def test_empty_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            run_artifact(ROBUSTNESS, xs=())
