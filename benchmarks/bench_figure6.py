"""Benchmark regenerating Figure 6 (multimedia mix, overhead vs tiles).

Runs the five scheduling approaches over the 8-16 tile sweep and prints the
overhead series.  The paper's qualitative results are asserted:

* the no-prefetch baseline sits around 23 % and the design-time-only
  prefetch around 7 %;
* the run-time heuristic improves with the tile count;
* the hybrid heuristic tracks run-time+inter-task closely and hides the
  vast majority of the original overhead.
"""

from __future__ import annotations

import pytest

from repro.experiments.artifacts import FIGURE6, run_artifact
from repro.runner import SweepEngine


@pytest.mark.benchmark(group="figure6")
def test_figure6_regeneration(benchmark, iterations, jobs):
    result = benchmark.pedantic(
        run_artifact,
        args=(FIGURE6, SweepEngine(max_workers=jobs)),
        kwargs=dict(iterations=iterations, seeds=(2005,)),
        rounds=1, iterations=1,
    )
    print()
    print(result.format_table())
    print(f"hybrid hides {100 * result.hidden_fraction('hybrid', 8):.1f}% of "
          "the no-prefetch overhead at 8 tiles")

    assert result.value("no-prefetch", 8) == pytest.approx(23.0, abs=6.0)
    assert result.value("design-time", 8) == pytest.approx(7.0, abs=2.0)
    for tiles in result.xs:
        run_time = result.curve("run-time").value_at(tiles)
        intertask = result.curve("run-time+inter-task").value_at(tiles)
        hybrid = result.curve("hybrid").value_at(tiles)
        assert hybrid < run_time
        assert abs(hybrid - intertask) <= 1.0
        assert result.hidden_fraction("hybrid", tiles) >= 0.85
    # Overhead decreases (weakly) as tiles are added.
    run_time_series = result.curve("run-time")
    assert run_time_series.ys[-1] <= run_time_series.ys[0] + 0.25
    assert result.curve("hybrid").maximum <= 3.0
