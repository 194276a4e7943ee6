"""Property-based tests (hypothesis) for the graph layer."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CycleError
from repro.graphs.analysis import (
    asap_times,
    max_parallelism,
    parallelism_profile,
    subtask_weights,
)
from repro.graphs.generators import (
    ExecutionTimeModel,
    chain,
    independent_set,
    layered_dag,
    multimedia_like,
    random_dag,
    series_parallel,
)
from repro.graphs.serialization import graph_from_dict, graph_to_dict
from repro.graphs.subtask import Subtask
from repro.graphs.taskgraph import TaskGraph
from repro.graphs.validation import validate_graph

#: Strategy producing (count, edge probability, seed) triples for random DAGs.
dag_params = st.tuples(
    st.integers(min_value=1, max_value=18),
    st.floats(min_value=0.0, max_value=0.8),
    st.integers(min_value=0, max_value=10_000),
)

time_models = st.tuples(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=5.0, max_value=40.0),
).map(lambda pair: ExecutionTimeModel(minimum=pair[0], maximum=pair[1]))


def build_dag(params, time_model=None):
    count, probability, seed = params
    return random_dag("prop", count=count, edge_probability=probability,
                      time_model=time_model or ExecutionTimeModel(),
                      seed=seed)


@settings(max_examples=60, deadline=None)
@given(params=dag_params)
def test_generated_dags_are_valid(params):
    graph = build_dag(params)
    assert validate_graph(graph).is_valid


@settings(max_examples=60, deadline=None)
@given(params=dag_params)
def test_topological_order_respects_dependencies(params):
    graph = build_dag(params)
    order = graph.topological_order()
    position = {name: index for index, name in enumerate(order)}
    assert len(order) == len(graph)
    for producer, consumer in graph.dependencies():
        assert position[producer] < position[consumer]


@settings(max_examples=60, deadline=None)
@given(params=dag_params)
def test_asap_respects_precedence(params):
    graph = build_dag(params)
    starts = asap_times(graph)
    for producer, consumer in graph.dependencies():
        assert starts[consumer] >= (starts[producer]
                                    + graph.execution_time(producer) - 1e-9)


@settings(max_examples=60, deadline=None)
@given(params=dag_params)
def test_weights_bound_by_critical_path(params):
    graph = build_dag(params)
    weights = subtask_weights(graph)
    makespan = graph.critical_path_length()
    for name, weight in weights.items():
        assert graph.execution_time(name) - 1e-9 <= weight <= makespan + 1e-9
    assert max(weights.values()) == pytest.approx(makespan)


@settings(max_examples=40, deadline=None)
@given(params=dag_params, model=time_models)
def test_serialization_roundtrip(params, model):
    graph = build_dag(params, model)
    rebuilt = graph_from_dict(graph_to_dict(graph))
    assert rebuilt.subtask_names == graph.subtask_names
    assert sorted(rebuilt.dependencies()) == sorted(graph.dependencies())
    assert rebuilt.critical_path_length() == pytest.approx(
        graph.critical_path_length()
    )


@settings(max_examples=30, deadline=None)
@given(layers=st.integers(min_value=1, max_value=6),
       width=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=1000))
def test_layered_dags_are_layered(layers, width, seed):
    graph = layered_dag("lay", layers=layers, width=width, seed=seed)
    assert validate_graph(graph).is_valid
    # The longest chain cannot exceed the number of layers.
    longest_chain = 0
    depth = {}
    for name in graph.topological_order():
        depth[name] = 1 + max((depth[p] for p in graph.predecessors(name)),
                              default=0)
        longest_chain = max(longest_chain, depth[name])
    assert longest_chain <= layers


# --------------------------------------------------------------------- #
# Independent oracles for the graph core
# --------------------------------------------------------------------- #
# The references below recompute every answer from a plain edge list with
# deliberately naive code: no ids, no heap, no caching.  They share
# nothing with ``GraphCore`` except the inputs.

#: Largest graph whose paths are enumerated one by one.
MAX_ENUMERATED = 12

#: Strategy for edge-by-edge builds: the insertion order of the subtask
#: labels, their execution times, and (producer, consumer, data size)
#: attempts, which may repeat an edge or try to close a cycle.
edge_builds = st.integers(min_value=1, max_value=MAX_ENUMERATED).flatmap(
    lambda count: st.tuples(
        st.permutations(range(count)),
        st.lists(st.floats(min_value=0.5, max_value=40.0),
                 min_size=count, max_size=count),
        st.lists(st.tuples(st.integers(min_value=0, max_value=count - 1),
                           st.integers(min_value=0, max_value=count - 1),
                           st.floats(min_value=0.0, max_value=64.0)),
                 max_size=30),
    )
)


def reference_order(names, edges):
    """Repeatedly take the ready subtask with the smallest insertion index."""
    order = []
    while len(order) < len(names):
        order.append(next(
            name for name in names if name not in order
            and all(p in order for p, c in edges if c == name)
        ))
    return order


def path_weights(names, edges, times):
    """Longest execution-time sum over every path from each subtask.

    Each path is summed from its end, as the recursive weight definition
    adds; rounding is monotone, so the maximum is then exact, not close.
    """
    def paths(start):
        tails = [c for p, c in edges if p == start]
        if not tails:
            return [[start]]
        return [[start] + path for tail in tails for path in paths(tail)]

    weights = {}
    for name in names:
        sums = []
        for path in paths(name):
            total = 0.0
            for step in reversed(path):
                total = times[step] + total
            sums.append(total)
        weights[name] = max(sums)
    return weights


def reaches(edges, start, goal):
    """Whether ``goal`` is reachable from ``start`` along ``edges``."""
    frontier, seen = [start], {start}
    while frontier:
        node = frontier.pop()
        if node == goal:
            return True
        for p, c in edges:
            if p == node and c not in seen:
                seen.add(c)
                frontier.append(c)
    return False


def assert_matches(graph, names, edges, times):
    """``graph`` answers what the plain model (names, edge dict) implies."""
    expected_edges = [(p, c) for p in names for q, c in edges if q == p]
    assert graph.subtask_names == names
    assert graph.dependencies() == expected_edges
    for name in names:
        assert graph.predecessors(name) == [p for p, c in edges if c == name]
        assert graph.successors(name) == [c for p, c in edges if p == name]
    for (p, c), size in edges.items():
        assert graph.data_size(p, c) == size
    order = graph.topological_order()
    assert order == reference_order(names, list(edges))
    weights = subtask_weights(graph)
    assert list(weights) == order[::-1]
    assert weights == path_weights(names, list(edges), times)


def build_edge_by_edge(build):
    """Replay a drawn build on a graph and on a plain edge dict, checking
    the graph against the model after every step.

    A subtask is added the first time an attempt names it, so subtask and
    edge insertions interleave, and every check queries a graph edited
    since the previous query.
    """
    labels, durations, attempts = build
    all_names = [f"n{label}" for label in labels]
    graph = TaskGraph("edges")
    names, edges, times = [], {}, {}

    def add_through(position):
        while len(names) <= position:
            name = all_names[len(names)]
            times[name] = durations[len(names)]
            graph.add_subtask(Subtask(name=name, execution_time=times[name]))
            names.append(name)

    for i, j, size in attempts:
        add_through(max(i, j))
        producer, consumer = all_names[i], all_names[j]
        if producer == consumer:
            continue
        if reaches(edges, consumer, producer):
            before = (graph.dependencies(), graph.topological_order())
            with pytest.raises(CycleError):
                graph.add_dependency(producer, consumer, data_size=size)
            assert (graph.dependencies(), graph.topological_order()) == before
        else:
            graph.add_dependency(producer, consumer, data_size=size)
            edges[(producer, consumer)] = size
        assert_matches(graph, names, edges, times)
    add_through(len(all_names) - 1)
    assert_matches(graph, names, edges, times)
    return graph


@settings(max_examples=80, deadline=None)
@given(build=edge_builds)
def test_edge_by_edge_builds_match_the_model(build):
    build_edge_by_edge(build)


@settings(max_examples=60, deadline=None)
@given(params=dag_params)
def test_topological_order_matches_reference(params):
    graph = build_dag(params)
    assert graph.topological_order() == reference_order(
        graph.subtask_names, graph.dependencies())


@settings(max_examples=60, deadline=None)
@given(params=dag_params)
def test_weights_match_path_enumeration(params):
    count, probability, seed = params
    graph = build_dag((min(count, MAX_ENUMERATED), probability, seed))
    times = {s.name: s.execution_time for s in graph}
    assert subtask_weights(graph) == path_weights(
        graph.subtask_names, graph.dependencies(), times)


@settings(max_examples=60, deadline=None)
@given(params=dag_params)
def test_dependencies_group_producers_in_insertion_order(params):
    graph = build_dag(params)
    position = {name: i for i, name in enumerate(graph.subtask_names)}
    producers = [position[p] for p, _ in graph.dependencies()]
    assert producers == sorted(producers)
    # Serialized graphs (cache keys, ttstore digests) keep the exact order.
    assert graph_from_dict(graph_to_dict(graph)).dependencies() == \
        graph.dependencies()


def test_duplicate_edge_updates_data_size_only():
    graph = TaskGraph("dup", [Subtask("a", 1.0), Subtask("b", 2.0),
                              Subtask("c", 3.0)])
    graph.add_dependency("a", "b", data_size=1.0)
    graph.add_dependency("a", "c", data_size=2.0)
    graph.add_dependency("a", "b", data_size=5.0)
    assert graph.dependencies() == [("a", "b"), ("a", "c")]
    assert graph.data_size("a", "b") == 5.0
    assert graph.predecessors("b") == ["a"]


def test_queries_see_later_edits():
    graph = TaskGraph("late", [Subtask("a", 1.0), Subtask("b", 2.0)])
    assert graph.topological_order() == ["a", "b"]
    graph.add_subtask(Subtask("c", 4.0))
    graph.add_dependency("c", "a")
    assert graph.topological_order() == ["b", "c", "a"]
    assert subtask_weights(graph) == {"a": 1.0, "c": 5.0, "b": 2.0}
    assert graph.critical_path_length() == 5.0


@settings(max_examples=30, deadline=None)
@given(params=dag_params)
def test_returned_weights_are_fresh(params):
    graph = build_dag(params)
    first = subtask_weights(graph)
    expected = dict(first)
    first.clear()
    assert subtask_weights(graph) == expected


@settings(max_examples=30, deadline=None)
@given(params=dag_params)
def test_graph_with_built_core_pickles(params):
    graph = build_dag(params)
    weights = subtask_weights(graph)  # builds and caches the core
    clone = pickle.loads(pickle.dumps(graph))
    assert graph_to_dict(clone) == graph_to_dict(graph)
    assert clone.topological_order() == graph.topological_order()
    assert list(subtask_weights(clone).items()) == list(weights.items())
    clone.add_subtask(Subtask("extra", 1.0))
    assert clone.topological_order()[-1] == "extra"
    assert "extra" not in graph


def _sampled_profile(graph, resolution):
    """The per-sample definition of the parallelism profile (reference)."""
    starts = asap_times(graph)
    makespan = graph.critical_path_length()
    if len(graph) == 0 or makespan <= 0:
        return [0] * resolution
    return [sum(1 for name, start in starts.items()
                if start <= makespan * (step + 0.5) / resolution
                < start + graph.execution_time(name))
            for step in range(resolution)]


graph_families = st.one_of(
    st.builds(lambda n, p, s: random_dag("pp", count=n, edge_probability=p,
                                         seed=s),
              st.integers(1, 30), st.floats(0.0, 0.8), st.integers(0, 10**4)),
    st.builds(lambda l, w, p, s: layered_dag("pp", layers=l, width=w,
                                             edge_probability=p, seed=s),
              st.integers(1, 6), st.integers(1, 5), st.floats(0.0, 1.0),
              st.integers(0, 10**4)),
    st.builds(lambda d, f, s: series_parallel("pp", depth=d, fan_out=f,
                                              seed=s),
              st.integers(0, 3), st.integers(1, 3), st.integers(0, 10**4)),
    st.builds(lambda n, s: chain("pp", length=n, seed=s),
              st.integers(1, 12), st.integers(0, 10**4)),
    st.builds(lambda n, s: independent_set("pp", count=n, seed=s),
              st.integers(1, 12), st.integers(0, 10**4)),
    st.builds(lambda n, s: multimedia_like("pp", subtask_count=n, seed=s),
              st.integers(1, 30), st.integers(0, 10**4)),
)


@settings(max_examples=80, deadline=None)
@given(graph=graph_families,
       resolution=st.sampled_from([1, 2, 7, 64, 128, 256]))
def test_parallelism_profile_equals_the_per_sample_formula(graph,
                                                          resolution):
    """The one-pass profile counts exactly what the per-sample
    comparison counts, at every sample of every generator family."""
    expected = _sampled_profile(graph, resolution)
    assert parallelism_profile(graph, resolution) == expected
    assert max_parallelism(graph, resolution) == max(expected)
