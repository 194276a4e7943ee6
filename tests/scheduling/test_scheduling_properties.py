"""Property-based tests for the scheduling invariants of DESIGN.md."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import generators
from repro.graphs.generators import ExecutionTimeModel, random_dag
from repro.platform.description import Platform
from repro.scheduling.base import PrefetchProblem
from repro.scheduling.evaluator import replay_schedule
from repro.scheduling.list_scheduler import build_initial_schedule
from repro.scheduling.noprefetch import OnDemandScheduler
from repro.scheduling.prefetch_bb import OptimalPrefetchScheduler
from repro.scheduling.prefetch_list import ListPrefetchScheduler
from repro.workloads import registry

from .test_schedule_core import FAMILIES

#: Problem instances: (subtask count, edge probability, seed, tiles, latency).
problem_params = st.tuples(
    st.integers(min_value=1, max_value=9),
    st.floats(min_value=0.0, max_value=0.7),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.0, max_value=8.0),
)


def build_problem(params):
    count, probability, seed, tiles, latency = params
    graph = random_dag("prop", count=count, edge_probability=probability,
                       time_model=ExecutionTimeModel(minimum=0.5, maximum=20.0),
                       seed=seed)
    placed = build_initial_schedule(graph, Platform(tile_count=tiles))
    return PrefetchProblem(placed, latency)


@settings(max_examples=50, deadline=None)
@given(params=problem_params)
def test_replay_respects_all_constraints(params):
    """A timed schedule never violates precedence, tile or load constraints."""
    problem = build_problem(params)
    placed = problem.placed
    graph = placed.graph
    timed = replay_schedule(placed, problem.reconfiguration_latency,
                            problem.loads)
    load_finish = {load.subtask: load.finish for load in timed.loads}
    # precedence
    for producer, consumer in graph.dependencies():
        assert timed.executions[consumer].start >= \
            timed.executions[producer].finish - 1e-9
    # resource exclusivity
    for resource in placed.resources:
        order = placed.resource_order(resource)
        for earlier, later in zip(order, order[1:]):
            assert timed.executions[later].start >= \
                timed.executions[earlier].finish - 1e-9
    # loads precede executions and never overlap on the single port
    for name, finish in load_finish.items():
        assert timed.executions[name].start >= finish - 1e-9
    ordered_loads = sorted(timed.loads, key=lambda load: load.start)
    for earlier, later in zip(ordered_loads, ordered_loads[1:]):
        assert later.start >= earlier.finish - 1e-9


@settings(max_examples=50, deadline=None)
@given(params=problem_params)
def test_overhead_is_non_negative_and_bounded(params):
    """0 <= overhead <= loads * latency for any prefetch scheduler."""
    problem = build_problem(params)
    for scheduler in (OnDemandScheduler(), ListPrefetchScheduler()):
        result = scheduler.schedule(problem)
        assert result.overhead >= -1e-9
        bound = problem.load_count * problem.reconfiguration_latency
        assert result.overhead <= bound + 1e-6


@settings(max_examples=50, deadline=None)
@given(params=problem_params)
def test_prefetch_rarely_worse_than_no_prefetch(params):
    """Greedy prefetching may lose to on-demand loading only by bounded slack.

    A universal "prefetch <= on-demand" claim does not hold (a low-urgency
    load enabled early can occupy the single port ahead of a critical
    on-demand request), but any loss is bounded by the port time the early
    loads can steal: one latency per load.
    """
    problem = build_problem(params)
    prefetch = ListPrefetchScheduler().schedule(problem)
    baseline = OnDemandScheduler().schedule(problem)
    slack_bound = problem.load_count * problem.reconfiguration_latency
    assert prefetch.makespan <= baseline.makespan + slack_bound + 1e-9


#: Instances for the exact engine.  The historical leaf-replaying search
#: had to cap these at 7 subtasks (9-subtask sparse DAGs took minutes);
#: the incremental stateful search explores dispatch orders with realized
#: bounds and prefix dominance, which keeps full 9-subtask problems in
#: milliseconds.
bb_params = st.tuples(
    st.integers(min_value=1, max_value=9),
    st.floats(min_value=0.0, max_value=0.7),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.0, max_value=8.0),
)


@pytest.mark.slow
@settings(max_examples=30, deadline=None)
@given(params=bb_params)
def test_branch_and_bound_is_lower_bound(params):
    problem = build_problem(params)
    optimal = OptimalPrefetchScheduler().schedule(problem)
    for scheduler in (ListPrefetchScheduler(), OnDemandScheduler()):
        result = scheduler.schedule(problem)
        assert optimal.makespan <= result.makespan + 1e-9


@settings(max_examples=40, deadline=None)
@given(params=problem_params, reuse_seed=st.integers(0, 1000))
def test_reuse_never_increases_makespan(params, reuse_seed):
    """Marking more subtasks as reused never makes the schedule longer."""
    import random

    problem = build_problem(params)
    full = ListPrefetchScheduler().schedule(problem)
    rng = random.Random(reuse_seed)
    drhw = list(problem.placed.drhw_names)
    if not drhw:
        return
    reused = frozenset(rng.sample(drhw, rng.randint(1, len(drhw))))
    partial = ListPrefetchScheduler().schedule(problem.with_reused(reused))
    assert partial.makespan <= full.makespan + 1e-9


@settings(max_examples=40, deadline=None)
@given(params=problem_params)
def test_ideal_makespan_is_floor(params):
    problem = build_problem(params)
    result = ListPrefetchScheduler().schedule(problem)
    assert result.makespan >= result.ideal_makespan - 1e-9
    no_loads = ListPrefetchScheduler().schedule(
        problem.with_reused(problem.placed.drhw_names)
    )
    assert no_loads.makespan == pytest.approx(no_loads.ideal_makespan)


def assert_replays_placed_schedule(placed):
    """With no loads the replay is the placed schedule, start for start.

    This is the eager premise of the branch-and-bound floors
    (``release + placed.makespan`` and ``ReplayState.critical_floor``):
    no subtask of a list-scheduled placement could start earlier.
    """
    timed = replay_schedule(placed, 4.0, [])
    assert timed.load_count == 0
    for name, placement in placed.placements.items():
        execution = timed.executions[name]
        assert (execution.start, execution.finish) == (placement.start,
                                                      placement.finish), name
    assert timed.makespan == placed.makespan


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)),
       seed=st.integers(0, 10_000),
       tiles=st.sampled_from((2, 4, 8)),
       with_isp=st.booleans())
def test_replay_without_loads_is_the_placed_schedule(family, seed, tiles,
                                                     with_isp):
    graph = FAMILIES[family](seed)
    if with_isp:
        graph = generators.with_isp_fraction(graph, 0.3, seed=seed)
    assert_replays_placed_schedule(
        build_initial_schedule(graph, Platform(tile_count=tiles)))


@pytest.mark.parametrize("tiles", (2, 4, 8))
@pytest.mark.parametrize("name", registry.task_graph_names())
def test_registered_graphs_replay_as_placed(name, tiles):
    assert_replays_placed_schedule(build_initial_schedule(
        registry.build_task_graph(name), Platform(tile_count=tiles)))
