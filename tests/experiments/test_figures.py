"""Tests for the Figure 6 and Figure 7 experiment drivers.

These use a reduced iteration count and a reduced tile sweep so the suite
stays fast; the benchmark harness runs the full configuration.
"""

import pytest

from repro.experiments.artifacts import (
    FIGURE6,
    FIGURE7,
    critical_fraction,
    run_artifact,
)
from repro.workloads.pocketgl import POCKETGL_REFERENCE

from tests.conftest import SMALL_ITERATIONS

#: Full figure sweeps are the heaviest tests of the suite.
pytestmark = pytest.mark.slow

ITERATIONS = SMALL_ITERATIONS


@pytest.fixture(scope="module")
def figure6():
    return run_artifact(FIGURE6, xs=(8, 12, 16), iterations=ITERATIONS,
                        seeds=(7,))


@pytest.fixture(scope="module")
def figure7():
    return run_artifact(FIGURE7, xs=(5, 8, 10), iterations=ITERATIONS,
                        seeds=(7,))


class TestFigure6:
    def test_contains_three_curves(self, figure6):
        for name in ("run-time", "run-time+inter-task", "hybrid"):
            assert figure6.curve(name).xs == (8.0, 12.0, 16.0)

    def test_approach_ordering_matches_paper(self, figure6):
        """no-prefetch >> design-time >= run-time >= hybrid (per tile count)."""
        for tiles in figure6.xs:
            no_prefetch = figure6.value("no-prefetch", tiles)
            design_time = figure6.value("design-time", tiles)
            run_time = figure6.curve("run-time").value_at(tiles)
            hybrid = figure6.curve("hybrid").value_at(tiles)
            assert no_prefetch > design_time
            assert run_time <= design_time + 1.0
            assert hybrid < run_time

    def test_baseline_magnitudes(self, figure6):
        assert figure6.value("no-prefetch", 8) == pytest.approx(23.0, abs=6.0)
        assert figure6.value("design-time", 8) == pytest.approx(7.0, abs=2.0)

    def test_hybrid_hides_most_overhead(self, figure6):
        for tiles in figure6.xs:
            assert figure6.hidden_fraction("hybrid", tiles) >= 0.85

    def test_hybrid_close_to_runtime_intertask(self, figure6):
        for tiles in figure6.xs:
            hybrid = figure6.curve("hybrid").value_at(tiles)
            intertask = figure6.curve("run-time+inter-task").value_at(tiles)
            assert abs(hybrid - intertask) <= 1.0

    def test_overhead_decreases_with_tiles(self, figure6):
        for name in ("run-time", "hybrid"):
            ys = figure6.curve(name).ys
            assert ys[-1] <= ys[0] + 0.25

    def test_hybrid_below_paper_bound(self, figure6):
        assert figure6.curve("hybrid").maximum <= 3.0

    def test_format_table(self, figure6):
        table = figure6.format_table()
        assert "Figure 6" in table
        assert "hybrid" in table


class TestFigure7:
    def test_no_prefetch_overhead_is_large_on_small_pools(self, figure7):
        """With fewer tiles than configurations, nearly every load is paid.

        Once the pool holds every configuration (10 tiles for 10
        configurations) even the no-prefetch baseline benefits from full
        reuse, so the check only applies below that point.
        """
        for tiles in figure7.xs:
            if tiles <= 8:
                assert figure7.value("no-prefetch", tiles) > 40.0

    def test_design_time_between_no_prefetch_and_hybrid(self, figure7):
        for tiles in figure7.xs:
            no_prefetch = figure7.value("no-prefetch", tiles)
            design_time = figure7.value("design-time", tiles)
            hybrid = figure7.curve("hybrid").value_at(tiles)
            assert hybrid < design_time
            if tiles <= 8:
                assert design_time < no_prefetch

    def test_hybrid_small_at_eight_tiles(self, figure7):
        assert figure7.curve("hybrid").value_at(8) <= 5.0

    def test_hybrid_hides_at_least_90_percent_at_eight_tiles(self, figure7):
        assert figure7.hidden_fraction("hybrid", 8) >= 0.90

    def test_overhead_decreases_with_tiles(self, figure7):
        for name in ("run-time", "hybrid", "run-time+inter-task"):
            series = figure7.curve(name)
            assert series.value_at(10) <= series.value_at(5) + 0.5

    def test_critical_fraction_close_to_paper(self, figure7):
        assert figure7.critical_fraction[10] == pytest.approx(
            POCKETGL_REFERENCE["critical_fraction"], abs=0.1
        )

    def test_format_table(self, figure7):
        table = figure7.format_table()
        assert "Figure 7" in table
        assert "critical" in table


class TestCriticalFractionHelper:
    def test_standalone_measurement(self):
        fraction = critical_fraction("pocketgl", 8)
        assert 0.4 <= fraction <= 0.8

    def test_precomputed_exploration_matches_fresh(self):
        """Passing a shared exploration skips re-exploring, same number."""
        from repro.runner import WorkloadSpec, explore_platform

        _, _, design = explore_platform(WorkloadSpec.of("pocketgl"), 8)
        shared = critical_fraction("pocketgl", 8, design_result=design)
        assert shared == critical_fraction("pocketgl", 8)
