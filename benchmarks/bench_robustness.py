"""Benchmark of the robustness study (stochastic run-time layer).

Sweeps noise intensity x approaches x seeds and prints the
overhead-vs-noise degradation curves with 95 % confidence intervals.  The
assertions double as the scenario's acceptance gates: the noise-free
column must match the deterministic simulator, every approach must
degrade monotonically-ish (no free lunch from noise), and the adaptive
PI-controlled prefetcher must degrade no worse than the static
design-time plan at the harshest level.
"""

from __future__ import annotations

import pytest

from repro.experiments.artifacts import ROBUSTNESS, run_artifact
from repro.experiments.robustness import DEFAULT_NOISE_LEVELS
from repro.runner import SweepEngine
from repro.sim import SimulationConfig, make_approach, simulate
from repro.workloads.multimedia import MultimediaWorkload

APPROACHES = ("design-time", "run-time+inter-task", "hybrid", "adaptive")
SEEDS = (2005, 2006, 2007, 2008, 2009)


@pytest.mark.benchmark(group="robustness")
def test_robustness_curves(benchmark, iterations, jobs):
    run_iterations = min(iterations, 60)
    result = benchmark.pedantic(
        run_artifact,
        args=(ROBUSTNESS, SweepEngine(max_workers=jobs)),
        kwargs=dict(workload="multimedia", tile_count=8,
                    xs=DEFAULT_NOISE_LEVELS, approaches=APPROACHES,
                    seeds=SEEDS, iterations=run_iterations),
        rounds=1, iterations=1,
    )
    print()
    print(result.format_table())

    # The noise-free column is the deterministic simulator, bit-identical
    # to a direct run at the same seed.
    for name in APPROACHES:
        direct = simulate(
            MultimediaWorkload(), 8, make_approach(name),
            config=SimulationConfig(iterations=run_iterations,
                                    seed=SEEDS[0]),
        )
        cell = result.cell(name, 0.0)
        assert direct.overhead_percent == pytest.approx(cell.minimum) \
            or cell.minimum <= direct.overhead_percent <= cell.maximum

    top = max(DEFAULT_NOISE_LEVELS)
    for name in APPROACHES:
        harsh, clean = result.cell(name, top), result.cell(name, 0.0)
        # Noise never helps: the harshest level costs at least as much as
        # the noise-free run (means, with a little CI slack).
        assert harsh.mean + harsh.ci_half_width \
            >= clean.mean - clean.ci_half_width
    # The feedback-controlled prefetcher holds up at least as well as the
    # static design-time plan under the harshest noise.
    assert result.cell("adaptive", top).mean \
        <= result.cell("design-time", top).mean + 1e-9
