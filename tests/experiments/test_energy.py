"""Tests for the energy/load-cancellation study."""

import hashlib

import pytest

from repro.experiments.artifacts import ENERGY, run_artifact

#: Simulates four approaches on a 12-tile pool: a heavyweight sweep.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def result():
    return run_artifact(ENERGY, tile_count=12, iterations=40, seeds=(3,))


class TestEnergyStudy:
    def test_all_approaches_reported(self, result):
        assert set(result.approaches) == {
            "no-prefetch", "design-time", "run-time", "hybrid",
        }

    def test_design_time_never_reuses(self, result):
        assert result.value("design-time", 12, "reuse_rate") == 0.0
        assert result.value("design-time", 12, "total_cancelled") == 0

    def test_reuse_saves_loads_and_energy(self, result):
        for approach in ("run-time", "hybrid"):
            for metric in ("total_loads", "total_energy"):
                assert result.value(approach, 12, metric) \
                    < result.value("design-time", 12, metric)

    def test_hybrid_cancels_loads(self, result):
        assert result.value("hybrid", 12, "total_cancelled") > 0

    def test_load_savings_metric(self, result):
        savings = 100.0 * (1.0 - result.value("hybrid", 12, "total_loads")
                           / result.value("design-time", 12, "total_loads"))
        assert 0.0 < savings < 100.0

    def test_unknown_approach(self, result):
        with pytest.raises(KeyError):
            result.value("magic", 12)

    def test_format(self, result):
        table = result.format_table()
        assert "energy/iteration" in table
        assert "hybrid" in table

    def test_format_is_pinned(self, result):
        digest = hashlib.sha256(result.format_table().encode()).hexdigest()
        assert digest == ("e3fe6c2d7c9d242c113d34e04640f6b8"
                          "df13db966ffbd89d5c4edc76e9f4044b")
