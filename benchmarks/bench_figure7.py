"""Benchmark regenerating Figure 7 (Pocket GL 3D renderer, overhead vs tiles).

Runs the sweep over 5-10 tiles for the Pocket GL workload and prints the
overhead series together with the measured critical-subtask fraction.  The
paper's qualitative claims are asserted: a very large no-prefetch overhead,
a still-significant design-time-only overhead, a small hybrid overhead at
eight tiles and a critical fraction around 62 %.
"""

from __future__ import annotations

import pytest

from repro.experiments.artifacts import FIGURE7, run_artifact
from repro.runner import SweepEngine
from repro.workloads.pocketgl import POCKETGL_REFERENCE


@pytest.mark.benchmark(group="figure7")
def test_figure7_regeneration(benchmark, iterations, jobs):
    result = benchmark.pedantic(
        run_artifact,
        args=(FIGURE7, SweepEngine(max_workers=jobs)),
        kwargs=dict(iterations=iterations, seeds=(2005,)),
        rounds=1, iterations=1,
    )
    print()
    print(result.format_table())
    print(f"hybrid hides {100 * result.hidden_fraction('hybrid', 8):.1f}% of "
          "the no-prefetch overhead at 8 tiles")

    for tiles in result.xs:
        no_prefetch = result.value("no-prefetch", tiles)
        design_time = result.value("design-time", tiles)
        hybrid = result.curve("hybrid").value_at(tiles)
        assert design_time > hybrid
        if tiles <= 8:
            # Beyond 8 tiles the whole configuration set stays resident and
            # even the no-prefetch baseline approaches zero overhead.
            assert no_prefetch > design_time
    assert result.value("no-prefetch", 5) >= 50.0
    assert result.curve("hybrid").value_at(8) <= 5.0
    assert result.hidden_fraction("hybrid", 8) >= \
        POCKETGL_REFERENCE["minimum_hidden_fraction"] - 0.05
    assert result.critical_fraction[10] == pytest.approx(
        POCKETGL_REFERENCE["critical_fraction"], abs=0.1
    )
    for name in ("run-time", "hybrid"):
        series = result.curve(name)
        assert series.value_at(10) <= series.value_at(5) + 0.5
