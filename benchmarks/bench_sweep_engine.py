"""Benchmark of the sweep engine: sequential vs parallel vs warm cache.

Runs the Figure 6 sweep grid (five approaches over the 8-16 tile range)
three ways and records the wall times:

* sequentially in-process (``max_workers=1``, the old execution model
  minus the redundant per-approach design-time explorations);
* on a process pool with one worker per CPU;
* against a warm result cache (no simulation at all).

A second benchmark quantifies the persisted transposition tables: the
same grid computed twice into an empty result cache (the rerun has its
point/exploration caches wiped so every simulation re-runs), once with
``tt_cache`` off and once warm-starting from ``<cache>/ttables`` — the
restart/fresh-fleet scenario of the warm-table store.

Correctness is asserted unconditionally: all three executions must return
bit-identical metrics, and the warm-cache pass must not recompute any
point.  The speedup assertion is conditional on the hardware — on a
single-core machine the pool only adds overhead, so the parallel pass is
merely recorded there, while multi-core machines must show a measurable
win for the acceptance criterion of the parallel engine.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.artifacts import FIGURE6
from repro.runner import ApproachSpec, SweepEngine, SweepSpec

#: Approach grid of the Figure 6 sweep.
FIGURE6_APPROACHES = ("no-prefetch", "design-time", "run-time",
                      "run-time+inter-task", "hybrid")


def bench_iterations(default: int = 50) -> int:
    """Iteration count (shared ``REPRO_BENCH_ITERATIONS`` override)."""
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_ITERATIONS", default)))
    except ValueError:
        return default


def _figure6_spec(iterations: int) -> SweepSpec:
    return SweepSpec(
        workloads=("multimedia",),
        approaches=tuple(ApproachSpec(name) for name in FIGURE6_APPROACHES),
        tile_counts=FIGURE6.xs,
        seeds=(2005,),
        iterations=iterations,
    )


@pytest.mark.benchmark(group="sweep-engine")
def test_sequential_vs_parallel_figure6_sweep(benchmark, tmp_path):
    iterations = bench_iterations(default=50)
    spec = _figure6_spec(iterations)
    cpus = max(1, os.cpu_count() or 1)
    workers = min(4, cpus)

    from repro.scheduling.pool import (
        process_scheduler_pool,
        reset_process_scheduler_pool,
    )

    reset_process_scheduler_pool()
    start = time.perf_counter()
    sequential = SweepEngine(max_workers=1).run(spec)
    sequential_seconds = time.perf_counter() - start
    scheduler_pool = process_scheduler_pool()

    start = time.perf_counter()
    parallel = SweepEngine(max_workers=workers).run(spec)
    parallel_seconds = time.perf_counter() - start

    cache_dir = tmp_path / "sweep-cache"
    cold_engine = SweepEngine(max_workers=workers, cache_dir=cache_dir)
    cold = cold_engine.run(spec)

    def warm_run():
        return SweepEngine(max_workers=workers, cache_dir=cache_dir).run(spec)

    start = time.perf_counter()
    warm = benchmark.pedantic(warm_run, rounds=1, iterations=1)
    warm_seconds = time.perf_counter() - start

    speedup = (sequential_seconds / parallel_seconds
               if parallel_seconds > 0 else float("inf"))
    print()
    print(f"figure6 sweep ({spec.point_count} points, {iterations} "
          f"iterations, {cpus} CPUs):")
    print(f"  sequential (1 worker):   {sequential_seconds:8.2f} s")
    print(f"  parallel ({workers} workers):    {parallel_seconds:8.2f} s  "
          f"(speedup {speedup:.2f}x)")
    print(f"  warm cache:              {warm_seconds:8.2f} s")
    print(f"  scheduler pool (seq):    {scheduler_pool.pool_hits} engine "
          f"hits / {scheduler_pool.pool_misses} misses, "
          f"{scheduler_pool.tt_warm_hits} warm tt answers")

    # Determinism: every execution mode returns bit-identical metrics.
    assert [o.metrics for o in parallel] == [o.metrics for o in sequential]
    assert [o.metrics for o in cold] == [o.metrics for o in sequential]
    assert [o.metrics for o in warm] == [o.metrics for o in sequential]
    # The warm pass answered everything from the cache.
    assert warm.computed_count == 0
    assert warm.cached_count == spec.point_count
    assert warm_seconds < sequential_seconds
    if cpus >= 2 and workers >= 2:
        # On a multi-core machine the pool must win measurably; 1.2x is a
        # deliberately conservative floor for a sweep this parallel.
        assert speedup >= 1.2


@pytest.mark.benchmark(group="sweep-engine")
def test_tt_store_warm_start_restart(benchmark, tmp_path):
    """Restart scenario: persisted tables must not slow a recompute down.

    Both passes simulate every point from scratch (the result and
    exploration caches are wiped between runs); the second pass may only
    differ by warm-starting its exact searches from the persisted
    certificates.  Results must stay bit-identical and the store must
    actually serve certificates; wall times are reported (the search is a
    modest share of a full simulation, so the win is measured in visited
    nodes by ``check_regression.py`` — here we only insist it is not a
    regression beyond noise).
    """
    import shutil

    from repro.scheduling.pool import (
        process_scheduler_pool,
        reset_process_scheduler_pool,
    )

    iterations = bench_iterations(default=50)
    spec = _figure6_spec(iterations)

    def wipe_results(cache_dir) -> None:
        for path in cache_dir.glob("*.json"):
            path.unlink()
        shutil.rmtree(cache_dir / "explorations", ignore_errors=True)

    cache_dir = tmp_path / "tt-cache"
    reset_process_scheduler_pool()
    start = time.perf_counter()
    first = SweepEngine(cache_dir=cache_dir).run(spec)
    first_seconds = time.perf_counter() - start
    wipe_results(cache_dir)

    reset_process_scheduler_pool()

    def restarted_run():
        return SweepEngine(cache_dir=cache_dir).run(spec)

    start = time.perf_counter()
    restarted = benchmark.pedantic(restarted_run, rounds=1, iterations=1)
    restart_seconds = time.perf_counter() - start
    warm_hits = process_scheduler_pool().tt_warm_hits

    print()
    print(f"tt-store restart ({spec.point_count} points, {iterations} "
          f"iterations):")
    print(f"  first run (cold tables): {first_seconds:8.2f} s")
    print(f"  restart (warm tables):   {restart_seconds:8.2f} s  "
          f"({warm_hits} warm tt answers)")

    assert restarted.computed_count == spec.point_count  # results wiped
    assert [o.metrics for o in restarted] == [o.metrics for o in first]
    assert warm_hits > 0, "persisted tables served no certificates"
