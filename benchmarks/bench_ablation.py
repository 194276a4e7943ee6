"""Ablation benchmarks for the design choices called out in DESIGN.md.

Four studies: the critical-subtask pick metric, the inter-task optimization,
the replacement policy and the design-time prefetch engine.
"""

from __future__ import annotations

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


@pytest.mark.benchmark(group="ablation")
def test_pick_metric_ablation(benchmark):
    result = benchmark.pedantic(run_pick_metric_ablation, rounds=1,
                                iterations=1)
    print()
    print(result.format_table())
    totals = {strategy: result.total(strategy) for strategy in PICK_STRATEGIES}
    assert totals["max-weight"] <= min(totals.values()) + 1


@pytest.mark.benchmark(group="ablation")
def test_intertask_ablation(benchmark, iterations):
    result = benchmark.pedantic(
        run_artifact,
        args=(INTERTASK_ABLATION,),
        kwargs=dict(iterations=min(iterations, 300), seeds=(2005,)),
        rounds=1, iterations=1,
    )
    print()
    print(result.format_table())
    with_intertask = result.value("hybrid with inter-task prefetch", 8)
    without_intertask = result.value("hybrid without inter-task prefetch", 8)
    assert with_intertask <= without_intertask
    assert without_intertask - with_intertask > 0.5


@pytest.mark.benchmark(group="ablation")
def test_replacement_ablation(benchmark, iterations):
    result = benchmark.pedantic(
        run_artifact,
        args=(REPLACEMENT_ABLATION,),
        kwargs=dict(iterations=min(iterations, 300), seeds=(2005,)),
        rounds=1, iterations=1,
    )
    print()
    print(result.format_table())
    assert set(result.approaches) == {"lru", "lfu", "fifo",
                                      "randomlike", "weight-aware"}
    for policy in result.approaches:
        assert 0.0 <= result.value(policy, 8) < 25.0


@pytest.mark.benchmark(group="ablation")
def test_engine_ablation(benchmark):
    result = benchmark.pedantic(run_engine_ablation, rounds=1, iterations=1)
    print()
    print(result.format_table())
    for row in result.rows:
        assert row.optimality_gap_percent_points >= -1e-9
    assert result.maximum_gap <= 5.0
