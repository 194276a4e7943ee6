"""Differential fuzz harness for the exact branch-and-bound search.

Three independent engines answer every random instance:

* the **production search** (:class:`BranchAndBoundScheduler`): undo-log
  dispatch-tree walk with lower-bound pruning and the transposition table
  that memoizes best completion subtrees;
* a **PR-2-style reference search** (implemented here against the public
  replay-kernel API): clone-per-``extend`` depth-first walk whose signature
  table only *prunes duplicates* — the engine this PR replaced;
* **brute force**: full enumeration of load priority permutations through
  the monolithic replay — the seed engine's semantics, feasible up to the
  8-load instances this harness draws.

All three must agree on the optimal makespan, and each returned dispatch
order must be *self-consistent*: replaying it as a priority order through
the greedy dispatcher reproduces the claimed schedule bit for bit.  (The
engines may return *different* optimal orders on ties — their exploration
orders legitimately break ties differently — so schedule identity is
asserted per engine against the dispatcher, and optimality across engines
via the makespan.  Within the production engine, warm-vs-cold tie
*identity* is pinned separately in ``test_scheduler_pool.py``.)

Hypothesis runs derandomized (see ``tests/conftest.py``), so the corpus is
stable run to run.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.generators import ExecutionTimeModel, random_dag
from repro.platform.description import Platform
from repro.scheduling.base import PrefetchProblem
from repro.scheduling.evaluator import replay_schedule
from repro.scheduling.list_scheduler import build_initial_schedule
from repro.scheduling.prefetch_bb import BranchAndBoundScheduler
from repro.scheduling.prefetch_list import ListPrefetchScheduler
from repro.scheduling.replay import ReplayState
from repro.scheduling.schedule import TIME_EPSILON

from .test_replay_state import assert_bit_identical

LATENCY = 4.0


# ---------------------------------------------------------------------- #
# Reference: the PR-2 search (dominance prunes duplicates, no memoization)
# ---------------------------------------------------------------------- #
def pr2_reference_search(problem: PrefetchProblem
                         ) -> Tuple[Tuple[str, ...], float]:
    """Clone-based dispatch-tree DFS with a duplicate-pruning table.

    Mirrors the PR-2 engine's semantics through the public kernel API:
    branch over the horizon-enabled choices, carry ``extend_choice``
    snapshots down the tree, and keep per-signature only the best realized
    makespan — pruning revisits, never reusing subtree results.  (No lower
    bound: on <= 8-load instances the tree is small enough, and leaving the
    bound out makes the reference independent of the production bound
    code.)
    """
    placed = problem.placed
    loads = list(problem.loads)
    seed_order = ListPrefetchScheduler().load_order(problem)
    seed_timed = replay_schedule(
        placed, problem.reconfiguration_latency, seed_order,
        priority_order=seed_order, release_time=problem.release_time,
        controller_available=problem.controller_available,
    )
    best_makespan = seed_timed.makespan
    best_order: Tuple[str, ...] = seed_order
    if not loads:
        return best_order, best_makespan
    seen: Dict[Tuple, float] = {}

    stack: List[ReplayState] = [ReplayState.start(
        placed, problem.reconfiguration_latency, loads,
        release_time=problem.release_time,
        controller_available=problem.controller_available,
    )]
    while stack:
        state = stack.pop()
        if not state.pending_loads:
            if state.makespan < best_makespan - TIME_EPSILON:
                best_makespan = state.makespan
                best_order = state.load_sequence
            continue
        signature = state.signature()
        previous = seen.get(signature)
        if previous is not None and state.makespan >= previous - TIME_EPSILON:
            continue
        seen[signature] = state.makespan
        for name, enable in state.choices():
            stack.append(state.extend_choice(name, enable))
    return best_order, best_makespan


def brute_force_optimum(problem: PrefetchProblem) -> float:
    """Minimum makespan over *all* load priority permutations."""
    placed = problem.placed
    loads = list(problem.loads)
    if not loads:
        return replay_schedule(
            placed, problem.reconfiguration_latency, loads,
            release_time=problem.release_time,
            controller_available=problem.controller_available,
        ).makespan
    return min(
        replay_schedule(
            placed, problem.reconfiguration_latency, order,
            priority_order=order, release_time=problem.release_time,
            controller_available=problem.controller_available,
        ).makespan
        for order in permutations(loads)
    )


#: Quick-loop instances: up to 6 loads (6! = 720 permutations), so the
#: brute-force oracle stays millisecond-cheap per example.
instance_params = st.tuples(
    st.integers(min_value=1, max_value=6),       # subtask count
    st.floats(min_value=0.0, max_value=0.6),     # edge probability
    st.integers(min_value=0, max_value=4000),    # graph seed
    st.integers(min_value=1, max_value=8),       # tile count
)

#: Slow-sweep instances: the full 8-load frontier the harness pins
#: (8! = 40320 permutations per example — slow-marked).
wide_instance_params = st.tuples(
    st.integers(min_value=7, max_value=8),
    st.floats(min_value=0.0, max_value=0.6),
    st.integers(min_value=0, max_value=4000),
    st.integers(min_value=1, max_value=8),
)


def build_problem(params) -> PrefetchProblem:
    count, probability, seed, tiles = params
    graph = random_dag(
        "differential", count=count, edge_probability=probability,
        time_model=ExecutionTimeModel(minimum=0.5, maximum=20.0),
        seed=seed,
    )
    placed = build_initial_schedule(graph, Platform(tile_count=tiles))
    return PrefetchProblem(placed, LATENCY)


class TestExactDifferential:
    @settings(max_examples=30, deadline=None)
    @given(params=instance_params)
    def test_three_engines_agree_on_the_optimum(self, params):
        """TT search == PR-2 reference == brute force, every instance."""
        problem = build_problem(params)
        result = BranchAndBoundScheduler().schedule(problem)
        _, reference_makespan = pr2_reference_search(problem)
        brute = brute_force_optimum(problem)
        assert result.makespan == pytest.approx(brute, abs=1e-9)
        assert reference_makespan == pytest.approx(brute, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(params=instance_params)
    def test_returned_schedule_is_the_dispatch_of_its_order(self, params):
        """The claimed schedule is bit-identical to replaying its order."""
        problem = build_problem(params)
        result = BranchAndBoundScheduler().schedule(problem)
        replayed = replay_schedule(
            problem.placed, LATENCY, result.load_order,
            priority_order=result.load_order,
            release_time=problem.release_time,
            controller_available=problem.controller_available,
        )
        assert_bit_identical(result.timed, replayed)

    @settings(max_examples=20, deadline=None)
    @given(params=instance_params,
           release=st.floats(min_value=0.0, max_value=40.0),
           controller_offset=st.floats(min_value=0.0, max_value=25.0))
    def test_agreement_holds_under_release_offsets(self, params, release,
                                                   controller_offset):
        """Absolute release/controller times do not break the agreement."""
        problem = build_problem(params).with_release(
            release, release + controller_offset
        )
        result = BranchAndBoundScheduler().schedule(problem)
        _, reference_makespan = pr2_reference_search(problem)
        brute = brute_force_optimum(problem)
        # PrefetchResult.makespan is release-relative (``timed.span``); the
        # oracles report absolute completion times — compare apples to apples.
        assert result.timed.makespan == pytest.approx(brute, abs=1e-9)
        assert reference_makespan == pytest.approx(brute, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(params=instance_params, limit=st.integers(0, 12))
    def test_lru_capped_table_stays_optimal(self, params, limit):
        """Any LRU cap degrades memoization, never optimality."""
        problem = build_problem(params)
        capped = BranchAndBoundScheduler(table_limit=limit).schedule(problem)
        brute = brute_force_optimum(problem)
        assert capped.makespan == pytest.approx(brute, abs=1e-9)

    @pytest.mark.slow
    @settings(max_examples=12, deadline=None)
    @given(params=wide_instance_params)
    def test_agreement_at_the_eight_load_frontier(self, params):
        """7–8-load instances: the limit of enumerable brute force."""
        problem = build_problem(params)
        result = BranchAndBoundScheduler().schedule(problem)
        _, reference_makespan = pr2_reference_search(problem)
        brute = brute_force_optimum(problem)
        assert result.makespan == pytest.approx(brute, abs=1e-9)
        assert reference_makespan == pytest.approx(brute, abs=1e-9)
        replayed = replay_schedule(
            problem.placed, LATENCY, result.load_order,
            priority_order=result.load_order,
        )
        assert_bit_identical(result.timed, replayed)


#: Fixed pins at the raised :data:`DEFAULT_EXACT_LIMIT` frontier (16–17
#: loads).  Brute force is unenumerable here (17! permutations), so the
#: independent oracle is the PR-2 reference search — exhaustive over the
#: dispatch tree with duplicate pruning only, sharing neither the bound
#: nor the memoization code with the production engine.  Instances are
#: pinned (not hypothesis-drawn) because the clone-based reference
#: explodes on wide many-tile graphs; these seeds were picked to span
#: easy to ~20k-node searches while the reference stays in seconds.
FRONTIER_PINS = [
    (16, 0.1, 3, 5),
    (16, 0.15, 23, 4),
    (17, 0.1, 4, 4),
    (17, 0.25, 21, 5),
    (17, 0.15, 8, 5),
]


@pytest.mark.slow
class TestSeventeenLoadFrontier:
    @pytest.mark.parametrize("params", FRONTIER_PINS,
                             ids=lambda p: f"{p[0]}loads-s{p[2]}@{p[3]}t")
    def test_production_matches_reference_at_the_new_frontier(self, params):
        """16–17-load optimality, differentially pinned."""
        problem = build_problem(params)
        assert problem.load_count == params[0]
        result = BranchAndBoundScheduler().schedule(problem)
        _, reference_makespan = pr2_reference_search(problem)
        assert result.makespan == pytest.approx(reference_makespan, abs=1e-9)
        replayed = replay_schedule(
            problem.placed, LATENCY, result.load_order,
            priority_order=result.load_order,
        )
        assert_bit_identical(result.timed, replayed)

    def test_default_gate_routes_seventeen_loads_to_exact_search(self):
        """OptimalPrefetchScheduler's default now covers the 17-load pins."""
        from repro.scheduling.prefetch_bb import (
            DEFAULT_EXACT_LIMIT,
            OptimalPrefetchScheduler,
        )
        problem = build_problem(FRONTIER_PINS[2])
        assert problem.load_count == 17 <= DEFAULT_EXACT_LIMIT
        routed = OptimalPrefetchScheduler().schedule(problem)
        exact = BranchAndBoundScheduler().schedule(problem)
        assert routed.load_order == exact.load_order
        assert_bit_identical(routed.timed, exact.timed)
