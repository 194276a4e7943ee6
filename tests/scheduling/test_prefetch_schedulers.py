"""Unit tests for the prefetch schedulers (baseline, list, branch & bound)."""

from itertools import permutations

import pytest

from repro.errors import SchedulingError
from repro.graphs.generators import ExecutionTimeModel, random_dag
from repro.graphs.taskgraph import chain_graph
from repro.platform.description import Platform
from repro.scheduling.base import PrefetchProblem, SchedulerStats
from repro.scheduling.evaluator import replay_schedule
from repro.scheduling.list_scheduler import build_initial_schedule
from repro.scheduling.noprefetch import OnDemandScheduler
from repro.scheduling.prefetch_bb import (
    DEFAULT_EXACT_LIMIT,
    BranchAndBoundScheduler,
    OptimalPrefetchScheduler,
)
from repro.scheduling.prefetch_list import ListPrefetchScheduler

LATENCY = 4.0


def _problem(graph, tiles=8, reused=()):
    placed = build_initial_schedule(graph, Platform(tile_count=tiles))
    return PrefetchProblem(placed, LATENCY, reused=frozenset(reused))


class TestPrefetchProblem:
    def test_loads_exclude_reused(self, chain4):
        problem = _problem(chain4, reused=["s0", "s2"])
        assert set(problem.loads) == {"s1", "s3"}
        assert problem.load_count == 2

    def test_unknown_reused_rejected(self, chain4):
        with pytest.raises(SchedulingError):
            _problem(chain4, reused=["ghost"])

    def test_negative_latency_rejected(self, chain4, platform8):
        placed = build_initial_schedule(chain4, platform8)
        with pytest.raises(SchedulingError):
            PrefetchProblem(placed, -1.0)

    def test_with_reused_and_release(self, chain4):
        problem = _problem(chain4)
        updated = problem.with_reused(["s0"]).with_release(10.0, 12.0)
        assert updated.reused == frozenset(["s0"])
        assert updated.release_time == 10.0
        assert updated.controller_available == 12.0


class TestOnDemandScheduler:
    def test_chain_overhead_is_full(self, chain4_problem):
        result = OnDemandScheduler().schedule(chain4_problem)
        assert result.overhead == pytest.approx(16.0)
        assert result.overhead_percent == pytest.approx(19.75, abs=0.1)
        assert result.scheduler_name == "no-prefetch"

    def test_stats_linear(self, chain4_problem):
        result = OnDemandScheduler().schedule(chain4_problem)
        assert result.stats.operations == chain4_problem.load_count


class TestListPrefetchScheduler:
    def test_chain_hides_all_but_first(self, chain4_problem):
        result = ListPrefetchScheduler().schedule(chain4_problem)
        assert result.overhead == pytest.approx(4.0)
        assert result.hidden_load_fraction == pytest.approx(0.75)

    def test_never_worse_than_on_demand_on_benchmarks(self, benchmark_graphs):
        for graph in benchmark_graphs:
            problem = _problem(graph)
            heuristic = ListPrefetchScheduler().schedule(problem)
            baseline = OnDemandScheduler().schedule(problem)
            assert heuristic.makespan <= baseline.makespan + 1e-9

    def test_nlogn_operation_count(self, benchmark_graphs):
        for graph in benchmark_graphs:
            problem = _problem(graph)
            result = ListPrefetchScheduler().schedule(problem)
            count = problem.load_count
            assert result.stats.operations >= count
            assert result.stats.operations <= 4 * count * max(1, count)

    def test_empty_load_set(self, chain4):
        problem = _problem(chain4, reused=chain4.subtask_names)
        result = ListPrefetchScheduler().schedule(problem)
        assert result.overhead == pytest.approx(0.0)
        assert result.load_count == 0


class TestBranchAndBound:
    def test_matches_or_beats_heuristic(self, benchmark_graphs):
        for graph in benchmark_graphs:
            problem = _problem(graph)
            optimal = BranchAndBoundScheduler().schedule(problem)
            heuristic = ListPrefetchScheduler().schedule(problem)
            assert optimal.makespan <= heuristic.makespan + 1e-9

    def test_optimal_on_chain(self, chain4_problem):
        result = BranchAndBoundScheduler().schedule(chain4_problem)
        assert result.overhead == pytest.approx(4.0)

    def test_exact_limit_enforced(self, chain4_problem):
        scheduler = BranchAndBoundScheduler(exact_limit=2)
        with pytest.raises(SchedulingError):
            scheduler.schedule(chain4_problem)

    def test_reports_evaluations(self, chain4_problem):
        result = BranchAndBoundScheduler().schedule(chain4_problem)
        assert result.stats.evaluations >= 1

    def test_empty_problem(self, chain4):
        problem = _problem(chain4, reused=chain4.subtask_names)
        result = BranchAndBoundScheduler().schedule(problem)
        assert result.overhead == pytest.approx(0.0)

    def test_reports_pruning_stats(self, benchmark_graphs):
        """The incremental search surfaces its pruning counters."""
        saw_extension = False
        for graph in benchmark_graphs:
            placed = build_initial_schedule(graph, Platform(tile_count=2))
            result = BranchAndBoundScheduler().schedule(
                PrefetchProblem(placed, LATENCY)
            )
            stats = result.stats
            assert stats.states_extended >= 0
            assert stats.nodes_pruned_bound >= 0
            assert stats.nodes_pruned_dominance >= 0
            saw_extension = saw_extension or stats.states_extended > 0
        assert saw_extension

    def test_best_order_replays_to_same_makespan(self, benchmark_graphs):
        """The returned dispatch order is a valid priority order.

        Replaying the branch-and-bound winner through the greedy
        dispatcher must reproduce exactly the makespan the search claims
        (the dispatch-space/priority-space equivalence invariant).
        """
        for tiles in (1, 2, 3):
            for graph in benchmark_graphs:
                placed = build_initial_schedule(graph,
                                                Platform(tile_count=tiles))
                problem = PrefetchProblem(placed, LATENCY)
                result = BranchAndBoundScheduler().schedule(problem)
                replayed = replay_schedule(
                    placed, LATENCY, result.load_order,
                    priority_order=result.load_order,
                )
                assert replayed.makespan == pytest.approx(result.makespan)

    def test_transposition_table_is_exercised(self):
        """Wide transposition-heavy problems actually reuse subtrees.

        A sparse random DAG over many tiles maximizes interchangeable
        prefixes (permutations of already-consumed loads converge to one
        dispatcher signature), which is exactly the workload shape the
        memoized table is for.
        """
        totals = SchedulerStats()
        for seed in range(4):
            graph = random_dag(
                "tt_corpus", count=10, edge_probability=0.1,
                time_model=ExecutionTimeModel(minimum=0.5, maximum=20.0),
                seed=seed,
            )
            placed = build_initial_schedule(graph, Platform(tile_count=5))
            result = BranchAndBoundScheduler().schedule(
                PrefetchProblem(placed, LATENCY)
            )
            stats = result.stats
            assert stats.tt_evictions == 0  # default cap is never reached
            assert stats.undo_depth <= result.load_count
            totals = totals.merged(stats)
        assert totals.tt_peak_size > 0
        assert totals.tt_hits + totals.nodes_pruned_dominance > 0

    def test_table_limit_zero_degrades_to_pruning_only(self):
        """A zero-capacity table still finds the optimum, memo-free."""
        graph = random_dag(
            "lru_corpus", count=7, edge_probability=0.2,
            time_model=ExecutionTimeModel(minimum=0.5, maximum=20.0),
            seed=3,
        )
        placed = build_initial_schedule(graph, Platform(tile_count=3))
        problem = PrefetchProblem(placed, LATENCY)
        unbounded = BranchAndBoundScheduler().schedule(problem)
        bounded = BranchAndBoundScheduler(table_limit=0).schedule(problem)
        assert bounded.makespan == pytest.approx(unbounded.makespan)
        # Nothing survives in a zero-capacity table: no hit or dominance
        # prune can ever fire, and every stored entry is evicted at once.
        assert bounded.stats.tt_hits == 0
        assert bounded.stats.nodes_pruned_dominance == 0
        assert bounded.stats.tt_peak_size <= 1
        assert bounded.stats.tt_evictions > 0

    def test_small_table_limit_evicts_but_stays_optimal(self):
        """LRU eviction degrades speed, never the result."""
        for seed in range(4):
            graph = random_dag(
                "lru_corpus", count=8, edge_probability=0.15,
                time_model=ExecutionTimeModel(minimum=0.5, maximum=20.0),
                seed=seed,
            )
            placed = build_initial_schedule(graph, Platform(tile_count=4))
            problem = PrefetchProblem(placed, LATENCY)
            unbounded = BranchAndBoundScheduler().schedule(problem)
            bounded = BranchAndBoundScheduler(table_limit=8).schedule(problem)
            assert bounded.makespan == pytest.approx(unbounded.makespan)
            assert bounded.stats.tt_peak_size <= 9
            if unbounded.stats.tt_peak_size > 8:
                assert bounded.stats.tt_evictions > 0

    def test_negative_table_limit_rejected(self):
        with pytest.raises(SchedulingError):
            BranchAndBoundScheduler(table_limit=-1)

    def test_optimal_versus_brute_force(self):
        """B&B equals the minimum over *all* load priority permutations.

        This pins the incremental stateful search (with its realized-state
        bounds and prefix-dominance table) to the seed engine's exhaustive
        semantics on a corpus of random problems small enough to enumerate.
        """
        for seed in range(8):
            for tiles in (1, 2, 3):
                graph = random_dag(
                    "bb_corpus", count=6, edge_probability=0.35,
                    time_model=ExecutionTimeModel(minimum=0.5, maximum=20.0),
                    seed=seed,
                )
                placed = build_initial_schedule(graph,
                                                Platform(tile_count=tiles))
                problem = PrefetchProblem(placed, LATENCY)
                loads = list(problem.loads)
                brute = min(
                    replay_schedule(placed, LATENCY, order,
                                    priority_order=order).makespan
                    for order in permutations(loads)
                )
                result = BranchAndBoundScheduler().schedule(problem)
                assert result.makespan == pytest.approx(brute)


class TestOptimalPrefetchScheduler:
    def test_small_problems_use_exact_search(self, chain4_problem):
        result = OptimalPrefetchScheduler(exact_limit=9).schedule(chain4_problem)
        assert result.scheduler_name == "optimal-prefetch"
        assert result.overhead == pytest.approx(4.0)

    def test_default_exact_limit_covers_seventeen_loads(self):
        """The flattened kernel affords exact search to 17 loads."""
        assert DEFAULT_EXACT_LIMIT >= 17
        graph = chain_graph("seventeen", [6.0] * 17)
        placed = build_initial_schedule(graph, Platform(tile_count=17))
        result = OptimalPrefetchScheduler().schedule(
            PrefetchProblem(placed, LATENCY)
        )
        # Exact search ran (not the heuristic fallback): only the
        # branch-and-bound engine extends replay states or prunes nodes —
        # at the very least its root node does one of the two.  The list
        # fallback keeps every search counter at zero.
        stats = result.stats
        assert stats.states_extended + stats.nodes_pruned_bound > 0
        assert result.load_count == 17

    def test_large_problems_fall_back_to_heuristic(self):
        graph = chain_graph("long", [6.0] * 15)
        problem = _problem(graph)
        scheduler = OptimalPrefetchScheduler(exact_limit=5)
        result = scheduler.schedule(problem)
        heuristic = ListPrefetchScheduler().schedule(problem)
        assert result.makespan == pytest.approx(heuristic.makespan)

    def test_negative_exact_limit_rejected(self):
        with pytest.raises(SchedulingError):
            OptimalPrefetchScheduler(exact_limit=-1)


class TestSchedulerStats:
    def test_merge(self):
        merged = SchedulerStats(operations=3, evaluations=1).merged(
            SchedulerStats(operations=4, evaluations=2)
        )
        assert merged.operations == 7
        assert merged.evaluations == 3

    def test_merge_includes_pruning_counters(self):
        merged = SchedulerStats(states_extended=5, nodes_pruned_bound=2,
                                nodes_pruned_dominance=1).merged(
            SchedulerStats(states_extended=7, nodes_pruned_bound=3,
                           nodes_pruned_dominance=4)
        )
        assert merged.states_extended == 12
        assert merged.nodes_pruned_bound == 5
        assert merged.nodes_pruned_dominance == 5

    def test_merge_transposition_counters(self):
        """Hits and evictions add up; peaks are high-water marks."""
        merged = SchedulerStats(tt_hits=3, tt_evictions=1, tt_peak_size=40,
                                undo_depth=7).merged(
            SchedulerStats(tt_hits=2, tt_evictions=5, tt_peak_size=25,
                           undo_depth=9)
        )
        assert merged.tt_hits == 5
        assert merged.tt_evictions == 6
        assert merged.tt_peak_size == 40
        assert merged.undo_depth == 9
