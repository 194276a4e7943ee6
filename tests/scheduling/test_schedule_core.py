"""The placed schedule's cached views and the run-time facts on its core.

Every fact :class:`~repro.scheduling.replay._ReplayCore` holds for the
simulator's per-task path must equal the name-level formula it replaced,
and the dispatcher's rank column must reproduce :func:`priority_rank`
exactly.  Graphs come from every :mod:`repro.graphs.generators` family,
on 1–8 tiles, with sampled ``reused`` subsets.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.graphs import generators
from repro.graphs.serialization import graph_from_dict, graph_to_dict
from repro.platform.description import Platform
from repro.reuse.reuse import ReuseModule
from repro.scheduling.base import PrefetchProblem
from repro.scheduling.evaluator import needed_loads, replay_schedule
from repro.scheduling.list_scheduler import build_initial_schedule
from repro.scheduling.noprefetch import OnDemandScheduler
from repro.scheduling.prefetch_list import ListPrefetchScheduler
from repro.scheduling.replay import ReplayState, priority_rank
from repro.scheduling.schedule import PlacedSchedule, tile_resource

from .test_replay_state import assert_bit_identical

FAMILIES = {
    "chain": lambda seed: generators.chain("g", 3 + seed % 5, seed=seed),
    "independent": lambda seed: generators.independent_set(
        "g", 2 + seed % 6, seed=seed),
    "layered": lambda seed: generators.layered_dag(
        "g", 2 + seed % 3, 2 + seed % 2, seed=seed),
    "series_parallel": lambda seed: generators.series_parallel(
        "g", 1 + seed % 2, fan_out=2 + seed % 2, seed=seed),
    "random": lambda seed: generators.random_dag(
        "g", 4 + seed % 8, edge_probability=0.3, seed=seed),
    "multimedia_like": lambda seed: generators.multimedia_like(
        "g", 5 + seed % 6, seed=seed),
}


def _permute_tiles(placed: PlacedSchedule, rng: random.Random
                   ) -> PlacedSchedule:
    """The same schedule on relabelled tiles (the list scheduler hands
    the heaviest work to the lowest tile index)."""
    tiles = sorted({p.resource.index for p in placed.placements.values()
                    if p.resource.is_tile})
    relabel = dict(zip(tiles, rng.sample(tiles, len(tiles))))
    return PlacedSchedule(placed.graph, {
        name: (dataclasses.replace(
            p, resource=tile_resource(relabel[p.resource.index]))
            if p.resource.is_tile else p)
        for name, p in placed.placements.items()})


@st.composite
def schedules(draw):
    """(placed schedule, sampled reused subset, rng) on 1-8 tiles."""
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    graph = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))](seed)
    if draw(st.booleans()):
        graph = generators.with_isp_fraction(graph, 0.3, seed=seed)
    placed = build_initial_schedule(
        graph, Platform(tile_count=draw(st.integers(1, 8))))
    if draw(st.booleans()):
        placed = _permute_tiles(placed, rng)
    drhw = placed.drhw_names
    reused = frozenset(name for name in drhw if draw(st.booleans()))
    return placed, reused, rng


def _weights(placed):
    core = placed.graph.core
    return dict(zip(core.names, core.weights))


@settings(max_examples=60, deadline=None)
@given(case=schedules())
def test_core_facts_equal_the_name_level_formulas(case):
    placed, reused, _ = case
    placements = placed.placements
    start = {name: p.start for name, p in placements.items()}
    weight = _weights(placed)
    resources = sorted({p.resource for p in placements.values()})
    order = {r: sorted((n for n, p in placements.items() if p.resource == r),
                       key=lambda n: (start[n], n)) for r in resources}
    tiles = [r for r in resources if r.is_tile]

    assert placed.resources == resources
    assert placed.tiles_used == tiles
    assert placed.drhw_names == [n for n, p in placements.items()
                                 if p.resource.is_tile]
    assert placed.first_on_tile() == {r: order[r][0] for r in tiles}
    assert placed.makespan == max(p.finish for p in placements.values())
    for resource in resources:
        assert placed.resource_order(resource) == order[resource]

    core = placed.core
    pending = [n for n in placed.drhw_names if n not in reused]
    assert needed_loads(placed, reused) == sorted(
        pending, key=lambda n: (start[n], n))
    problem = PrefetchProblem(placed, 4.0, reused=reused)
    assert problem.loads == tuple(needed_loads(placed, reused))
    by_start_weight = tuple(sorted(
        pending, key=lambda n: (start[n], -weight[n], n)))
    assert ListPrefetchScheduler().load_order(problem) == by_start_weight
    assert OnDemandScheduler().schedule(problem).load_order \
        == by_start_weight

    configuration = {s.name: s.configuration for s in placed.graph}
    assert core.reuse_tiles == tuple(
        (r, order[r][0], configuration[order[r][0]])
        for r in sorted(tiles, key=lambda r: (-weight[order[r][0]], r.index)))
    assert dict(core.drhw_tiles) == {n: placements[n].resource
                                     for n in placed.drhw_names}
    index = placed.graph.core.index
    assert core.tile_runs == {r: tuple((index[n], n, configuration[n])
                                       for n in order[r]) for r in tiles}
    assert core.tile_last == {r: index[order[r][-1]] for r in tiles}
    assert core.sorted_names == tuple(sorted(placements))
    assert core.sorted_ids == tuple(index[n] for n in sorted(placements))
    assert core.total_execution_time == placed.graph.total_execution_time
    assert core.configurations == tuple(placed.graph.configurations)

    decision = ReuseModule().analyze(placed, Platform(
        tile_count=max(1, len(tiles))).new_tile_states())
    assert decision.subtask_tiles == {
        n: decision.tile_binding[placements[n].resource]
        for n in placed.drhw_names}


def _reference_rank(placed, pending, priority_order):
    """The name-keyed tie rule as it was first written."""
    explicit = {}
    for index, name in enumerate(priority_order or ()):
        explicit.setdefault(name, index)
    fallback = sorted((n for n in pending if n not in explicit),
                      key=lambda n: (placed.ideal_start(n), n))
    rank = dict(explicit)
    for offset, name in enumerate(fallback):
        rank[name] = len(explicit) + offset
    return rank


@settings(max_examples=60, deadline=None)
@given(case=schedules(), on_demand=st.booleans(),
       shape=st.sampled_from(["none", "full", "partial", "messy"]))
def test_replay_schedule_equals_run_of_priority_rank(case, on_demand, shape):
    placed, reused, rng = case
    pending = [n for n in placed.drhw_names if n not in reused]
    names = placed.graph.subtask_names
    order = None
    if shape != "none":
        order = list(pending)
        rng.shuffle(order)
        if shape == "partial":
            order = order[:len(order) // 2]
        elif shape == "messy":
            # Duplicates, names the graph lacks, non-pending subtasks.
            order = order[:len(order) // 2 + 1] + ["ghost", "ghost"]
            order += rng.sample(names, min(3, len(names)))
            rng.shuffle(order)
    state = ReplayState.start(placed, 4.0, pending, on_demand=on_demand)
    rank = priority_rank(placed, state.pending_loads, order)
    reference = _reference_rank(placed, state.pending_loads, order)
    assert list(rank.items()) == list(reference.items())
    expected = state.run(rank).finish()
    timed = replay_schedule(placed, 4.0, pending, order, on_demand=on_demand)
    assert_bit_identical(timed, expected)


def _rebuilt(placed: PlacedSchedule) -> PlacedSchedule:
    """A content-equal copy: fresh graph, placements in reverse order."""
    items = list(placed.placements.items())[::-1]
    return PlacedSchedule(graph_from_dict(graph_to_dict(placed.graph)),
                          dict(items))


@settings(max_examples=20, deadline=None)
@given(case=schedules())
def test_content_equal_schedules_share_one_core(case):
    placed, _, _ = case
    copy = _rebuilt(placed)
    assert copy is not placed and copy.core is placed.core
    unpickled = pickle.loads(pickle.dumps(placed))
    assert unpickled.__dict__["_core"] is None
    assert unpickled.core is placed.core


def test_resource_id_hash_survives_pickling():
    resource = tile_resource(3)
    clone = pickle.loads(pickle.dumps(resource))
    assert clone == resource and hash(clone) == hash(resource)
    assert {resource: 1}[clone] == 1


_CHILD = """
import pickle, sys
from repro.scheduling.evaluator import replay_schedule
from repro.scheduling.schedule import tile_resource
first, second, resource = pickle.loads(open(sys.argv[1], "rb").read())
assert first is not second and first.core is second.core
assert hash(resource) == hash(tile_resource(resource.index))
assert tile_resource(0) in first.core.tile_runs
timed = replay_schedule(second, 4.0, second.drhw_names)
print(repr(timed.makespan))
"""


def test_pickled_schedule_reinterns_in_a_fresh_interpreter(tmp_path):
    graph = generators.random_dag("g", 9, edge_probability=0.3, seed=5)
    placed = build_initial_schedule(graph, Platform(tile_count=3))
    assert placed.core is not None
    blob = tmp_path / "schedules.pickle"
    # Two pickles of one schedule unpickle as two objects.
    blob.write_bytes(pickle.dumps((placed, pickle.loads(pickle.dumps(
        placed)), tile_resource(2))))
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="4242")
    output = subprocess.run([sys.executable, "-c", _CHILD, str(blob)],
                            env=env, capture_output=True, text=True,
                            check=True, timeout=120).stdout
    expected = replay_schedule(placed, 4.0, placed.drhw_names).makespan
    assert output.strip() == repr(expected)
