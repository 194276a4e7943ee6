"""Unit tests for the critical-subtask selection (design-time phase)."""

import pytest

from repro.core.critical import (
    CriticalSubtaskSelector,
    PICK_STRATEGIES,
    select_critical_subtasks,
)
from repro.errors import SchedulingError
from repro.graphs.analysis import subtask_weights
from repro.graphs.taskgraph import chain_graph
from repro.platform.description import Platform
from repro.scheduling.base import PrefetchProblem
from repro.scheduling.list_scheduler import build_initial_schedule
from repro.scheduling.prefetch_list import ListPrefetchScheduler

LATENCY = 4.0


def _placed(graph, tiles=8):
    return build_initial_schedule(graph, Platform(tile_count=tiles))


class TestDefiningProperty:
    def test_cs_property_on_benchmarks(self, benchmark_graphs):
        """Reusing exactly the CS subset yields zero overhead (the definition)."""
        for graph in benchmark_graphs:
            placed = _placed(graph)
            result = select_critical_subtasks(placed, LATENCY)
            assert result.schedule.overhead == pytest.approx(0.0, abs=1e-6)
            assert set(result.schedule.problem.reused) == set(result.critical)

    def test_cs_subset_only_contains_drhw_subtasks(self, mixed_graph):
        placed = _placed(mixed_graph)
        result = select_critical_subtasks(placed, LATENCY)
        assert set(result.critical) <= set(placed.drhw_names)

    def test_chain_has_single_critical_subtask(self, chain4):
        placed = _placed(chain4)
        result = select_critical_subtasks(placed, LATENCY)
        assert result.critical == ("s0",)
        assert result.critical_fraction == pytest.approx(0.25)

    def test_zero_latency_means_no_critical_subtasks(self, benchmark_graphs):
        for graph in benchmark_graphs:
            placed = _placed(graph)
            result = select_critical_subtasks(placed, 0.0)
            assert result.critical == ()

    def test_huge_latency_makes_everything_critical(self, diamond):
        placed = _placed(diamond)
        result = select_critical_subtasks(placed, 1000.0)
        assert set(result.critical) == set(diamond.subtask_names)

    def test_greedy_minimality_on_chain(self, chain4):
        """Removing the selected CS member reintroduces a penalty."""
        placed = _placed(chain4)
        result = select_critical_subtasks(placed, LATENCY)
        problem = PrefetchProblem(placed, LATENCY, reused=frozenset())
        from repro.scheduling.prefetch_bb import OptimalPrefetchScheduler
        without = OptimalPrefetchScheduler().schedule(problem)
        assert without.overhead > 0


class TestSelectionLoop:
    def test_steps_recorded(self, chain4):
        placed = _placed(chain4)
        result = select_critical_subtasks(placed, LATENCY)
        assert result.iterations == len(result.steps)
        # Final step has zero overhead and no selection.
        assert result.steps[-1].selected is None
        assert result.steps[-1].overhead == pytest.approx(0.0, abs=1e-6)
        # Every earlier step selected the heaviest delay generator.
        weights = subtask_weights(chain4)
        for step in result.steps[:-1]:
            assert step.selected is not None
            if step.delay_generators:
                heaviest = max(step.delay_generators, key=weights.get)
                assert weights[step.selected] >= weights[heaviest] - 1e-9

    def test_overhead_decreases_monotonically(self, benchmark_graphs):
        for graph in benchmark_graphs:
            placed = _placed(graph)
            result = select_critical_subtasks(placed, LATENCY)
            overheads = [step.overhead for step in result.steps]
            assert all(later <= earlier + 1e-9
                       for earlier, later in zip(overheads, overheads[1:]))

    def test_load_order_is_weight_sorted(self, benchmark_graphs):
        for graph in benchmark_graphs:
            placed = _placed(graph)
            result = select_critical_subtasks(placed, LATENCY)
            weights = result.weights
            order_weights = [weights[name] for name in result.load_order]
            assert order_weights == sorted(order_weights, reverse=True)
            assert set(result.load_order) == set(result.critical)

    def test_non_critical_loads_is_complement(self, benchmark_graphs):
        for graph in benchmark_graphs:
            placed = _placed(graph)
            result = select_critical_subtasks(placed, LATENCY)
            expected = set(placed.drhw_names) - set(result.critical)
            assert set(result.non_critical_loads) == expected

    def test_heuristic_engine_also_terminates(self, benchmark_graphs):
        selector = CriticalSubtaskSelector(
            scheduler=ListPrefetchScheduler()
        )
        for graph in benchmark_graphs:
            placed = _placed(graph)
            result = selector.select(placed, LATENCY)
            assert result.schedule.overhead == pytest.approx(0.0, abs=1e-6)

    def test_tile_sharing_increases_critical_count(self, chain4):
        spread = select_critical_subtasks(_placed(chain4, tiles=8), LATENCY)
        packed = select_critical_subtasks(_placed(chain4, tiles=1), LATENCY)
        assert len(packed.critical) >= len(spread.critical)


class TestPickStrategies:
    def test_all_strategies_satisfy_cs_property(self, diamond):
        placed = _placed(diamond)
        for strategy in PICK_STRATEGIES:
            selector = CriticalSubtaskSelector(pick=strategy)
            result = selector.select(placed, LATENCY)
            assert result.schedule.overhead == pytest.approx(0.0, abs=1e-6)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SchedulingError):
            CriticalSubtaskSelector(pick="bogus")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(SchedulingError):
            CriticalSubtaskSelector(penalty_tolerance=-1.0)

    def test_max_weight_never_larger_than_alternatives(self, benchmark_graphs):
        """The paper's max-weight pick produces CS subsets no larger than the
        ablation strategies on the benchmark set (in aggregate)."""
        totals = {}
        for strategy in PICK_STRATEGIES:
            selector = CriticalSubtaskSelector(pick=strategy)
            totals[strategy] = sum(
                len(selector.select(_placed(graph), LATENCY).critical)
                for graph in benchmark_graphs
            )
        assert totals["max-weight"] <= min(totals.values()) + 1
