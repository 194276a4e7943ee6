"""Benchmark of the energy/load-cancellation study (Section 6 claim).

Quantifies the "unnecessary waste of energy" avoided by cancelling the
scheduled loads of reusable non-critical subtasks: the hybrid heuristic and
the run-time heuristic perform markedly fewer loads per iteration than the
design-time baseline, which reloads every configuration on every execution.
"""

from __future__ import annotations

import pytest

from repro.experiments.artifacts import ENERGY, run_artifact


@pytest.mark.benchmark(group="energy")
def test_energy_study(benchmark, iterations):
    result = benchmark.pedantic(
        run_artifact,
        args=(ENERGY,),
        kwargs=dict(tile_count=12, iterations=min(iterations, 300),
                    seeds=(2005,)),
        rounds=1, iterations=1,
    )
    print()
    print(result.format_table())

    def design_time(metric):
        return result.value("design-time", 12, metric)

    def hybrid(metric):
        return result.value("hybrid", 12, metric)

    savings = 100.0 * (1.0 - hybrid("total_loads") / design_time("total_loads"))
    print(f"hybrid performs {savings:.0f}% fewer "
          "loads than the design-time baseline")

    assert hybrid("total_loads") < design_time("total_loads")
    assert hybrid("total_energy") < design_time("total_energy")
    assert hybrid("total_cancelled") > 0
    assert design_time("reuse_rate") == 0.0
