"""Property-based tests for the hybrid heuristic's defining invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.critical import CriticalSubtaskSelector
from repro.core.hybrid import HybridPrefetchHeuristic
from repro.graphs.generators import ExecutionTimeModel, random_dag
from repro.platform.description import Platform
from repro.scheduling.list_scheduler import build_initial_schedule
from repro.scheduling.prefetch_list import ListPrefetchScheduler

#: Instances small enough for the exact design-time engine.  The critical
#: subtask selection runs one branch-and-bound search per candidate subset,
#: and the search is exponential in the number of *independent* loads, so
#: the subtask count is capped where sparse DAGs stay tractable.
instance_params = st.tuples(
    st.integers(min_value=1, max_value=7),
    st.floats(min_value=0.0, max_value=0.7),
    st.integers(min_value=0, max_value=4000),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.5, max_value=6.0),
)


def build_placed(params):
    count, probability, seed, tiles, latency = params
    graph = random_dag("hyb", count=count, edge_probability=probability,
                       time_model=ExecutionTimeModel(minimum=0.5, maximum=25.0),
                       seed=seed)
    placed = build_initial_schedule(graph, Platform(tile_count=tiles))
    return placed, latency


@settings(max_examples=40, deadline=None)
@given(params=instance_params)
def test_critical_subset_property(params):
    """Reusing the CS subset always hides every remaining load."""
    placed, latency = build_placed(params)
    selector = CriticalSubtaskSelector()
    result = selector.select(placed, latency)
    assert result.schedule.overhead <= 1e-6
    assert set(result.critical) <= set(placed.drhw_names)


@settings(max_examples=40, deadline=None)
@given(params=instance_params)
def test_critical_subset_property_with_heuristic_engine(params):
    """The property also holds when the list heuristic is the engine."""
    placed, latency = build_placed(params)
    selector = CriticalSubtaskSelector(
        scheduler=ListPrefetchScheduler()
    )
    result = selector.select(placed, latency)
    assert result.schedule.overhead <= 1e-6


@settings(max_examples=30, deadline=None)
@given(params=instance_params)
def test_hybrid_overhead_is_initialization_only(params):
    """Without reuse the hybrid overhead equals the initialization phase."""
    placed, latency = build_placed(params)
    heuristic = HybridPrefetchHeuristic(latency)
    entry = heuristic.design_time(placed, "prop")
    execution = heuristic.run_time(entry, reusable=())
    expected = len(entry.critical_subtasks) * latency
    assert execution.overhead == pytest.approx(expected, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(params=instance_params)
def test_hybrid_with_full_critical_reuse_is_overhead_free(params):
    placed, latency = build_placed(params)
    heuristic = HybridPrefetchHeuristic(latency)
    entry = heuristic.design_time(placed, "prop")
    execution = heuristic.run_time(entry, reusable=entry.critical_subtasks)
    assert execution.overhead <= 1e-6


@pytest.mark.slow
@settings(max_examples=30, deadline=None)
@given(params=instance_params, subset_seed=st.integers(0, 999))
def test_hybrid_overhead_bounded_by_missing_critical_loads(params, subset_seed):
    """For any reuse state, overhead <= (# missing critical subtasks) * latency."""
    import random

    placed, latency = build_placed(params)
    heuristic = HybridPrefetchHeuristic(latency)
    entry = heuristic.design_time(placed, "prop")
    drhw = list(placed.drhw_names)
    rng = random.Random(subset_seed)
    reusable = [name for name in drhw if rng.random() < 0.5]
    execution = heuristic.run_time(entry, reusable=reusable)
    missing = [name for name in entry.critical_subtasks
               if name not in set(reusable)]
    assert execution.overhead <= len(missing) * latency + 1e-6
