"""Benchmark of the reconfiguration-latency sweep (Section 4 motivation).

Sweeps the reconfiguration latency from coarse-grain-array values to the
paper's 4 ms FPGA tiles and prints how the overhead and the critical-subtask
fraction react for the no-prefetch, run-time and hybrid approaches.
"""

from __future__ import annotations

import pytest

from repro.experiments.artifacts import LATENCY_SWEEP, run_artifact


@pytest.mark.benchmark(group="latency-sweep")
def test_latency_sweep(benchmark, iterations):
    result = benchmark.pedantic(
        run_artifact,
        args=(LATENCY_SWEEP,),
        kwargs=dict(tile_count=8, iterations=min(iterations, 150),
                    seeds=(2005,)),
        rounds=1, iterations=1,
    )
    print()
    print(result.format_table())

    low, high = result.xs[0], result.xs[-1]
    # Overhead and criticality both grow with the reconfiguration latency.
    assert result.value("hybrid", low) <= result.value("hybrid", high) + 1e-9
    assert result.critical_fraction[low] \
        <= result.critical_fraction[high] + 1e-9
    # The hybrid heuristic is never worse than the baselines.
    for latency in result.xs:
        hybrid = result.value("hybrid", latency)
        assert hybrid <= result.value("no-prefetch", latency) + 1e-9
        assert hybrid <= result.value("run-time", latency) + 1e-9
