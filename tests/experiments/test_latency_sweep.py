"""Tests for the reconfiguration-latency sweep."""

import hashlib

import pytest

from repro.experiments.artifacts import LATENCY_SWEEP, run_artifact

#: Simulates three latencies x three approaches: a heavyweight sweep.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def result():
    return run_artifact(LATENCY_SWEEP, xs=(0.5, 4.0, 8.0), iterations=30,
                        seeds=(3,))


class TestLatencySweep:
    def test_rows_match_latencies(self, result):
        assert list(result.xs) == [0.5, 4.0, 8.0]

    def test_overhead_grows_with_latency(self, result):
        for approach in ("no-prefetch", "run-time", "hybrid"):
            values = [result.value(approach, x) for x in result.xs]
            assert values[0] <= values[-1] + 1e-9

    def test_critical_fraction_grows_with_latency(self, result):
        fractions = [result.critical_fraction[x] for x in result.xs]
        assert fractions[0] <= fractions[-1] + 1e-9
        assert all(0.0 <= fraction <= 1.0 for fraction in fractions)

    def test_hybrid_always_best(self, result):
        for x in result.xs:
            hybrid = result.value("hybrid", x)
            assert hybrid <= result.value("no-prefetch", x) + 1e-9
            assert hybrid <= result.value("run-time", x) + 1e-9

    def test_row_lookup(self, result):
        assert result.value("hybrid", 4.0) >= 0.0
        with pytest.raises(KeyError):
            result.value("hybrid", 3.0)

    def test_format(self, result):
        table = result.format_table()
        assert "latency" in table
        assert "hybrid" in table

    def test_format_is_pinned(self, result):
        digest = hashlib.sha256(result.format_table().encode()).hexdigest()
        assert digest == ("214d0b38b990cb08256bc0f0fecb9388"
                          "8daaab8316f970f465d3ff8e267935c5")
