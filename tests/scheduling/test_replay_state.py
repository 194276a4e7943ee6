"""Tests for the incremental replay kernel (:mod:`repro.scheduling.replay`).

The central guarantee is *bit-identity*: driving a
:class:`~repro.scheduling.replay.ReplayState` load by load must produce
exactly the schedule the monolithic replay produced before the kernel
existed.  To pin that against the historical behaviour (not just against
the current wrapper), this module carries a verbatim copy of the seed's
monolithic ``replay_schedule`` as a reference implementation.
"""

from __future__ import annotations

import pickle
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InfeasibleScheduleError, SchedulingError
from repro.graphs.analysis import subtask_weights
from repro.graphs.generators import ExecutionTimeModel, random_dag
from repro.platform.description import Platform
from repro.scheduling.evaluator import replay_schedule
from repro.scheduling.list_scheduler import build_initial_schedule
from repro.scheduling.replay import ReplayState, priority_rank
from repro.scheduling.schedule import (
    ExecutionEntry,
    LoadEntry,
    PlacedSchedule,
    ResourceId,
    StartConstraint,
    TIME_EPSILON,
    TimedSchedule,
)


# ---------------------------------------------------------------------- #
# Reference: the seed's monolithic replay loop, copied verbatim
# ---------------------------------------------------------------------- #
def reference_replay_schedule(placed: PlacedSchedule,
                              reconfiguration_latency: float,
                              loads_needed,
                              priority_order: Optional[Sequence[str]] = None,
                              *,
                              on_demand: bool = False,
                              release_time: float = 0.0,
                              controller_available: Optional[float] = None
                              ) -> TimedSchedule:
    """The pre-kernel monolithic replay (regression oracle)."""
    if reconfiguration_latency < 0:
        raise SchedulingError("reconfiguration latency must be non-negative")
    graph = placed.graph

    drhw_names = set(placed.drhw_names)
    pending_loads: Set[str] = set()
    for name in loads_needed:
        placed.placement(name)
        if name in drhw_names:
            pending_loads.add(name)

    controller_time = max(release_time,
                          controller_available if controller_available is not None
                          else release_time)

    explicit_rank: Dict[str, int] = {}
    if priority_order is not None:
        for index, name in enumerate(priority_order):
            explicit_rank.setdefault(name, index)
    fallback_base = len(explicit_rank)
    fallback_order = sorted(
        (name for name in pending_loads if name not in explicit_rank),
        key=lambda n: (placed.ideal_start(n), n),
    )
    rank = dict(explicit_rank)
    for offset, name in enumerate(fallback_order):
        rank[name] = fallback_base + offset

    resource_sequences: Dict[ResourceId, List[str]] = {
        resource: placed.resource_order(resource)
        for resource in placed.resources
    }
    next_index: Dict[ResourceId, int] = {r: 0 for r in resource_sequences}
    resource_free: Dict[ResourceId, float] = {r: release_time
                                              for r in resource_sequences}

    executions: Dict[str, ExecutionEntry] = {}
    load_finish: Dict[str, float] = {}
    load_entries: List[LoadEntry] = []

    total = len(graph)

    def predecessor_ready_time(name: str) -> float:
        ready = release_time
        for predecessor in graph.predecessors(name):
            ready = max(ready, executions[predecessor].finish)
        return ready

    def executable_head(resource: ResourceId) -> Optional[str]:
        sequence = resource_sequences[resource]
        index = next_index[resource]
        if index >= len(sequence):
            return None
        name = sequence[index]
        if any(p not in executions for p in graph.predecessors(name)):
            return None
        if name in pending_loads:
            return None
        return name

    def execute(name: str, resource: ResourceId) -> None:
        ready = predecessor_ready_time(name)
        free = resource_free[resource]
        load_done = load_finish.get(name)
        candidates: List[Tuple[StartConstraint, float]] = [
            (StartConstraint.RELEASE, release_time),
            (StartConstraint.PREDECESSOR, ready),
            (StartConstraint.RESOURCE, free),
        ]
        if load_done is not None:
            candidates.append((StartConstraint.LOAD, load_done))
        start = max(value for _, value in candidates)
        constraint = StartConstraint.RELEASE
        for kind, value in candidates:
            if value >= start - TIME_EPSILON:
                constraint = kind
                break
        if constraint is not StartConstraint.LOAD and load_done is not None:
            non_load_max = max(value for kind, value in candidates
                               if kind is not StartConstraint.LOAD)
            if load_done > non_load_max + TIME_EPSILON:
                constraint = StartConstraint.LOAD
        execution_time = graph.execution_time(name)
        entry = ExecutionEntry(
            subtask=name,
            resource=resource,
            start=start,
            finish=start + execution_time,
            constraint=constraint,
            ideal_start=release_time + placed.ideal_start(name),
        )
        executions[name] = entry
        resource_free[resource] = entry.finish
        next_index[resource] += 1

    def issuable_loads() -> List[Tuple[str, float]]:
        found: List[Tuple[str, float]] = []
        for name in pending_loads:
            resource = placed.resource_of(name)
            if placed.position_on_resource(name) != next_index[resource]:
                continue
            enable = resource_free[resource]
            if on_demand:
                if any(p not in executions for p in graph.predecessors(name)):
                    continue
                enable = max(enable, predecessor_ready_time(name))
            found.append((name, enable))
        return found

    while len(executions) < total:
        progressed = False
        while True:
            ready_names = []
            for resource in resource_sequences:
                head = executable_head(resource)
                if head is not None:
                    ready_names.append((head, resource))
            if not ready_names:
                break
            for name, resource in ready_names:
                execute(name, resource)
                progressed = True
        if len(executions) >= total:
            break

        candidates = issuable_loads()
        if candidates:
            horizon = max(controller_time,
                          min(enable for _, enable in candidates))
            enabled = [(name, enable) for name, enable in candidates
                       if enable <= horizon + TIME_EPSILON]
            name, enable = min(
                enabled,
                key=lambda item: (rank.get(item[0], len(rank)), item[1], item[0]),
            )
            start = max(controller_time, enable)
            finish = start + reconfiguration_latency
            resource = placed.resource_of(name)
            load_entries.append(
                LoadEntry(
                    subtask=name,
                    configuration=graph.subtask(name).configuration,
                    resource=resource,
                    start=start,
                    finish=finish,
                )
            )
            load_finish[name] = finish
            controller_time = finish
            pending_loads.discard(name)
            progressed = True

        if not progressed:
            blocked = sorted(set(graph.subtask_names) - set(executions))
            raise InfeasibleScheduleError(
                f"schedule replay for graph {graph.name!r} stalled; blocked "
                f"subtasks: {blocked}"
            )

    return TimedSchedule(
        placed=placed,
        executions=executions,
        loads=tuple(load_entries),
        release_time=release_time,
        controller_start=controller_time if not load_entries else load_entries[0].start,
    )


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def assert_bit_identical(left: TimedSchedule, right: TimedSchedule) -> None:
    """Strict structural equality, including entry insertion order."""
    assert list(left.executions) == list(right.executions)
    assert left.executions == right.executions
    assert left.loads == right.loads
    assert left.release_time == right.release_time
    assert left.controller_start == right.controller_start


def incremental_replay(placed: PlacedSchedule, latency: float, loads,
                       priority_order=None, *, on_demand=False,
                       release_time=0.0, controller_available=None
                       ) -> TimedSchedule:
    """Drive the kernel one public ``extend`` at a time (greedy picks)."""
    state = ReplayState.start(
        placed, latency, loads, on_demand=on_demand,
        release_time=release_time, controller_available=controller_available,
    )
    rank = priority_rank(placed, state.pending_loads, priority_order)
    fallback = len(rank)
    states = [state]
    while not state.is_complete:
        choices = state.choices()
        assert choices, "kernel stalled where the dispatcher would not"
        name, _ = min(choices,
                      key=lambda item: (rank.get(item[0], fallback),
                                        item[1], item[0]))
        state = state.extend(name)
        states.append(state)
    # Earlier snapshots must remain untouched by the extensions.
    for earlier, later in zip(states, states[1:]):
        assert len(later.executions) >= len(earlier.executions)
        assert set(earlier.load_sequence).issubset(set(later.load_sequence))
    return state.finish()


#: Problem instances: (subtask count, edge probability, seed, tiles, latency).
problem_params = st.tuples(
    st.integers(min_value=1, max_value=9),
    st.floats(min_value=0.0, max_value=0.7),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.0, max_value=8.0),
)


def build_placed(params):
    count, probability, seed, tiles, latency = params
    graph = random_dag("replay", count=count, edge_probability=probability,
                       time_model=ExecutionTimeModel(minimum=0.5, maximum=20.0),
                       seed=seed)
    placed = build_initial_schedule(graph, Platform(tile_count=tiles))
    return placed, latency


def shuffled_order(placed, order_seed):
    loads = sorted(placed.drhw_names)
    random.Random(order_seed).shuffle(loads)
    return tuple(loads)


# ---------------------------------------------------------------------- #
# Property tests: bit-identity across the three replay paths
# ---------------------------------------------------------------------- #
class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(params=problem_params, order_seed=st.integers(0, 1000),
           on_demand=st.booleans(),
           release=st.floats(min_value=0.0, max_value=50.0),
           controller_offset=st.floats(min_value=-5.0, max_value=30.0))
    def test_incremental_matches_monolithic_and_reference(
            self, params, order_seed, on_demand, release, controller_offset):
        """Kernel-driven, wrapper and seed-reference replays are identical."""
        placed, latency = build_placed(params)
        order = shuffled_order(placed, order_seed)
        kwargs = dict(
            priority_order=order,
            on_demand=on_demand,
            release_time=release,
            controller_available=release + controller_offset,
        )
        reference = reference_replay_schedule(placed, latency,
                                              placed.drhw_names, **kwargs)
        monolithic = replay_schedule(placed, latency, placed.drhw_names,
                                     **kwargs)
        incremental = incremental_replay(placed, latency, placed.drhw_names,
                                         **kwargs)
        assert_bit_identical(monolithic, reference)
        assert_bit_identical(incremental, reference)

    @settings(max_examples=40, deadline=None)
    @given(params=problem_params, reuse_seed=st.integers(0, 1000))
    def test_partial_load_sets_match_reference(self, params, reuse_seed):
        """Identity also holds when only a subset of loads is needed."""
        placed, latency = build_placed(params)
        drhw = sorted(placed.drhw_names)
        rng = random.Random(reuse_seed)
        loads = [name for name in drhw if rng.random() < 0.6]
        reference = reference_replay_schedule(placed, latency, loads)
        monolithic = replay_schedule(placed, latency, loads)
        incremental = incremental_replay(placed, latency, loads)
        assert_bit_identical(monolithic, reference)
        assert_bit_identical(incremental, reference)

    @settings(max_examples=30, deadline=None)
    @given(params=problem_params)
    def test_no_priority_order_falls_back_identically(self, params):
        """The ideal-start fallback ranking matches the reference."""
        placed, latency = build_placed(params)
        reference = reference_replay_schedule(placed, latency,
                                              placed.drhw_names)
        monolithic = replay_schedule(placed, latency, placed.drhw_names)
        assert_bit_identical(monolithic, reference)


# ---------------------------------------------------------------------- #
# Kernel unit tests
# ---------------------------------------------------------------------- #
class TestReplayState:
    def _state(self, chain4, latency=4.0, **kwargs):
        placed = build_initial_schedule(chain4, Platform(tile_count=8))
        return placed, ReplayState.start(placed, latency, placed.drhw_names,
                                         **kwargs)

    def test_negative_latency_rejected(self, chain4):
        placed = build_initial_schedule(chain4, Platform(tile_count=8))
        with pytest.raises(SchedulingError):
            ReplayState.start(placed, -1.0, placed.drhw_names)

    def test_unknown_load_rejected(self, chain4):
        placed = build_initial_schedule(chain4, Platform(tile_count=8))
        with pytest.raises(Exception):
            ReplayState.start(placed, 4.0, ["ghost"])

    def test_extend_rejects_non_choice(self, chain4):
        # On a single tile the chain shares one queue: only the first
        # subtask's load is at the tile head.
        placed = build_initial_schedule(chain4, Platform(tile_count=1))
        state = ReplayState.start(placed, 4.0, placed.drhw_names)
        choice_names = {name for name, _ in state.choices()}
        assert choice_names == {"s0"}
        with pytest.raises(SchedulingError):
            state.extend("s2")

    def test_extend_does_not_mutate_parent(self, chain4):
        _, state = self._state(chain4)
        pending_before = state.pending_loads
        executed_before = dict(state.executions)
        child = state.extend("s0")
        assert state.pending_loads == pending_before
        assert dict(state.executions) == executed_before
        assert child.pending_loads == pending_before - {"s0"}
        assert child.load_sequence == ("s0",)

    def test_finish_requires_completion(self, chain4):
        _, state = self._state(chain4)
        with pytest.raises(InfeasibleScheduleError):
            state.finish()

    def test_complete_without_loads(self, chain4):
        placed = build_initial_schedule(chain4, Platform(tile_count=8))
        state = ReplayState.start(placed, 4.0, [])
        assert state.is_complete
        timed = state.finish()
        assert timed.load_count == 0
        assert timed.makespan == pytest.approx(placed.makespan)

    def test_makespan_and_floor_grow_monotonically(self, chain4):
        placed = build_initial_schedule(chain4, Platform(tile_count=8))
        weights = subtask_weights(placed.graph)
        state = ReplayState.start(placed, 4.0, placed.drhw_names,
                                  weights=weights)
        floors = [state.critical_floor]
        while not state.is_complete:
            name, _ = state.choices()[0]
            state = state.extend(name)
            floors.append(state.critical_floor)
        assert floors == sorted(floors)
        # The floor is admissible: never above the realized makespan at the end.
        assert floors[-1] <= state.makespan + 1e-9

    def test_signature_collides_for_interchangeable_prefixes(self, diamond):
        """Permuting two already-consumed loads converges to one signature."""
        placed = build_initial_schedule(diamond, Platform(tile_count=4))
        state = ReplayState.start(placed, 1.0, placed.drhw_names)
        first = {name for name, _ in state.choices()}
        assert "src" in first
        after_src = state.extend("src")
        names = {name for name, _ in after_src.choices()}
        assert {"left", "right"}.issubset(names)
        left_right = after_src.extend("left").extend("right")
        right_left = after_src.extend("right").extend("left")
        # Both branch loads consumed in either order: once the realized
        # history that cannot influence later starts is forgotten, the
        # dispatcher states are indistinguishable for the future.
        assert left_right.executions == right_left.executions
        assert left_right.signature() == right_left.signature()

    def test_push_matches_extend(self, chain4):
        """A push mutates in place to exactly the extend() child state."""
        placed = build_initial_schedule(chain4, Platform(tile_count=8))
        state = ReplayState.start(placed, 4.0, placed.drhw_names)
        child = state.extend("s0")
        executed_before = set(state.executions)
        delta = state.push("s0")
        assert state.signature() == child.signature()
        assert state.makespan == child.makespan
        assert state.load_sequence == child.load_sequence
        # The reported future contribution is exactly the latest finish
        # among the executions this push triggered (not the prefix's).
        new_finishes = [entry.finish for name, entry in
                        state.executions.items()
                        if name not in executed_before]
        assert new_finishes, "the chain head load must unblock s0"
        assert delta == max(new_finishes)

    def test_pop_restores_the_pre_push_state(self, chain4):
        placed = build_initial_schedule(chain4, Platform(tile_count=8))
        state = ReplayState.start(placed, 4.0, placed.drhw_names)
        before = (state.signature(), state.makespan, state.pending_loads,
                  dict(state.executions))
        state.push("s0")
        assert state.undo_depth == 1
        assert state.pop() == "s0"
        assert state.undo_depth == 0
        after = (state.signature(), state.makespan, state.pending_loads,
                 dict(state.executions))
        assert before == after

    def test_push_rejects_non_choice(self, chain4):
        placed = build_initial_schedule(chain4, Platform(tile_count=1))
        state = ReplayState.start(placed, 4.0, placed.drhw_names)
        with pytest.raises(SchedulingError):
            state.push("s2")

    def test_pop_without_push_rejected(self, chain4):
        placed = build_initial_schedule(chain4, Platform(tile_count=8))
        state = ReplayState.start(placed, 4.0, placed.drhw_names)
        with pytest.raises(SchedulingError):
            state.pop()

    def test_run_matches_extend_greedy(self, chain4):
        placed = build_initial_schedule(chain4, Platform(tile_count=8))
        order = tuple(sorted(placed.drhw_names))
        rank = priority_rank(placed, placed.drhw_names, order)
        driven = ReplayState.start(placed, 4.0, placed.drhw_names)
        while not driven.is_complete:
            driven = driven.extend_greedy(rank)
        run = ReplayState.start(placed, 4.0, placed.drhw_names).run(rank)
        assert_bit_identical(driven.finish(), run.finish())


# ---------------------------------------------------------------------- #
# Realization knobs: forced issue and the duration column
# ---------------------------------------------------------------------- #
class TestForcedIssue:
    @settings(max_examples=60, deadline=None)
    @given(params=problem_params, order_seed=st.integers(0, 1000),
           on_demand=st.booleans(),
           release=st.floats(min_value=0.0, max_value=50.0),
           controller_offset=st.floats(min_value=-5.0, max_value=30.0))
    def test_committed_order_replays_the_plan(
            self, params, order_seed, on_demand, release, controller_offset):
        """Forcing a replay's own load order with one-latency spans and
        the graph's durations reproduces that replay bit for bit."""
        placed, latency = build_placed(params)
        kwargs = dict(on_demand=on_demand, release_time=release,
                      controller_available=release + controller_offset)
        planned = replay_schedule(
            placed, latency, placed.drhw_names,
            priority_order=shuffled_order(placed, order_seed), **kwargs)
        durations = [placed.graph.execution_time(name)
                     for name in placed.graph.subtask_names]
        forced = ReplayState.start(placed, latency, placed.drhw_names,
                                   durations=durations, **kwargs)
        for load in planned.loads:
            forced.issue(load.subtask, [latency])
        timed = forced.finish()
        assert_bit_identical(timed, planned)
        columns, names = timed.columns, placed.core.names
        assert {names[sid]: columns.starts[sid] for sid in columns.order} \
            == {name: entry.start
                for name, entry in planned.executions.items()}
        assert {names[sid]: columns.finishes[sid] for sid in columns.order} \
            == {name: entry.finish
                for name, entry in planned.executions.items()}
        assert {names[lid]: finish for lid, finish
                in zip(columns.load_ids, columns.load_finishes)} \
            == {load.subtask: load.finish for load in planned.loads}

    def test_spans_hold_the_port_in_draw_order(self, chain4):
        placed = build_initial_schedule(chain4, Platform(tile_count=8))
        state = ReplayState.start(placed, 4.0, ["s0", "s1"])
        state.issue("s0", [1.0, 2.5, 4.5])  # two failed attempts
        state.issue("s1", [4.0])
        timed = state.finish()
        assert [(load.start, load.finish) for load in timed.loads] \
            == [(3.5, 8.0), (8.0, 12.0)]
        assert timed.executions["s0"].start == 8.0

    def test_duration_column_replaces_execution_times(self, chain4):
        placed = build_initial_schedule(chain4, Platform(tile_count=8))
        durations = [1.0] * len(placed.graph.subtask_names)
        state = ReplayState.start(placed, 4.0, [], durations=durations)
        assert state.is_complete
        assert state.makespan == 4.0

    def test_issue_requires_a_tile_queue_head(self, chain4):
        # Horizon-disabled loads are fine, but a load queued behind an
        # unexecuted subtask of its tile can never be issued.
        placed = build_initial_schedule(chain4, Platform(tile_count=1))
        state = ReplayState.start(placed, 4.0, placed.drhw_names)
        with pytest.raises(SchedulingError):
            state.issue("s2", [4.0])
        with pytest.raises(SchedulingError):
            state.issue("ghost", [4.0])


# ---------------------------------------------------------------------- #
# Undo correctness: push/pop interleavings equal fresh replays
# ---------------------------------------------------------------------- #
class TestUndoCorrectness:
    """Any interleaving of ``push``/``pop`` equals a fresh replay.

    The branch-and-bound search leans entirely on this: it walks the whole
    dispatch tree on one state, so a single stale dict entry or missed
    restore after ``pop`` silently corrupts every sibling subtree explored
    afterwards.
    """

    @settings(max_examples=60, deadline=None)
    @given(params=problem_params, walk_seed=st.integers(0, 10_000),
           push_bias=st.floats(min_value=0.3, max_value=0.9))
    def test_interleaved_walk_matches_fresh_replay(self, params, walk_seed,
                                                   push_bias):
        """After a random push/pop walk, the state is bit-equal to a fresh
        ``start`` + pushes of the surviving load sequence."""
        placed, latency = build_placed(params)
        state = ReplayState.start(placed, latency, placed.drhw_names)
        rng = random.Random(walk_seed)
        surviving: List[str] = []
        for _ in range(50):
            choices = state.choices()
            if choices and (not surviving or rng.random() < push_bias):
                name, enable = rng.choice(choices)
                state.push_choice(name, enable)
                surviving.append(name)
            elif surviving:
                popped = state.pop()
                assert popped == surviving.pop()
        assert state.undo_depth == len(surviving)
        assert state.load_sequence == tuple(surviving)

        fresh = ReplayState.start(placed, latency, placed.drhw_names)
        for name in surviving:
            fresh.push(name)
        assert state.signature() == fresh.signature()
        assert state.makespan == fresh.makespan
        assert state.critical_floor == fresh.critical_floor
        assert dict(state.executions) == dict(fresh.executions)
        assert state.pending_loads == fresh.pending_loads

        # Drive both to completion identically: the finished schedules must
        # be bit-identical, entry order included.
        while not state.is_complete:
            name, enable = state.choices()[0]
            state.push_choice(name, enable)
            fresh.push(name)
        assert_bit_identical(state.finish(), fresh.finish())

    @settings(max_examples=30, deadline=None)
    @given(params=problem_params, order_seed=st.integers(0, 1000))
    def test_full_unwind_restores_the_root(self, params, order_seed):
        """Pushing to completion and popping everything is the identity."""
        placed, latency = build_placed(params)
        state = ReplayState.start(placed, latency, placed.drhw_names)
        reference = ReplayState.start(placed, latency, placed.drhw_names)
        before = (state.signature(), state.makespan, state.pending_loads,
                  dict(state.executions), state.controller_time)
        rank = priority_rank(placed, state.pending_loads,
                             shuffled_order(placed, order_seed))
        fallback = len(rank)
        pushed = 0
        while not state.is_complete:
            choices = state.choices()
            if not choices:
                break
            name, enable = min(
                choices,
                key=lambda item: (rank.get(item[0], fallback),
                                  item[1], item[0]),
            )
            state.push_choice(name, enable)
            pushed += 1
        for _ in range(pushed):
            state.pop()
        after = (state.signature(), state.makespan, state.pending_loads,
                 dict(state.executions), state.controller_time)
        assert before == after
        assert state.signature() == reference.signature()


# ---------------------------------------------------------------------- #
# The finished schedule: a view over a copy of the kernel's columns
# ---------------------------------------------------------------------- #
class TestFinishedScheduleView:
    @settings(max_examples=40, deadline=None)
    @given(params=problem_params, walk_seed=st.integers(0, 10_000))
    def test_later_pushes_and_pops_leave_it_unchanged(self, params,
                                                      walk_seed):
        """A schedule ``finish()`` returned keeps its columns and entries
        while the same state is unwound and driven down other branches."""
        placed, latency = build_placed(params)
        state = ReplayState.start(placed, latency, placed.drhw_names)
        rng = random.Random(walk_seed)
        while not state.is_complete:
            state.push_choice(*rng.choice(state.choices()))
        sequence = state.load_sequence
        timed = state.finish()
        columns = [list(column) for column in timed.columns]
        makespan, controller_start = timed.makespan, timed.controller_start
        for _ in range(rng.randint(0, state.undo_depth)):
            state.pop()
        while not state.is_complete:
            state.push_choice(*rng.choice(state.choices()))
        assert [list(column) for column in timed.columns] == columns
        assert (timed.makespan, timed.controller_start) \
            == (makespan, controller_start)
        fresh = ReplayState.start(placed, latency, placed.drhw_names)
        for name in sequence:
            fresh.push(name)
        assert_bit_identical(timed, fresh.finish())
        assert timed.makespan == fresh.finish().makespan

    @settings(max_examples=30, deadline=None)
    @given(params=problem_params, order_seed=st.integers(0, 1000))
    def test_pickle_round_trip(self, params, order_seed):
        """A pickle carries the entries; the clone equals the original,
        columns and makespan included, and stays unhashable."""
        placed, latency = build_placed(params)
        timed = replay_schedule(placed, latency, placed.drhw_names,
                                priority_order=shuffled_order(placed,
                                                              order_seed))
        clone_placed, clone = pickle.loads(pickle.dumps((placed, timed)))
        assert clone.placed is clone_placed
        assert_bit_identical(clone, timed)
        assert clone.makespan == timed.makespan
        assert clone.columns == timed.columns
        assert clone == TimedSchedule(clone_placed, timed.executions,
                                      timed.loads, timed.release_time,
                                      timed.controller_start)
        with pytest.raises(TypeError):
            hash(clone)
