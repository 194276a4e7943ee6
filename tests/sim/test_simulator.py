"""Integration tests for the system simulator."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.description import Platform
from repro.sim.approaches import (
    HybridApproach,
    NoPrefetchApproach,
    RunTimeApproach,
    RunTimeInterTaskApproach,
)
from repro.sim.simulator import (
    SimulationConfig,
    SystemSimulator,
    simulate,
)
from repro.workloads.multimedia import MultimediaWorkload
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

ITERATIONS = 40


@pytest.fixture(scope="module")
def workload():
    return MultimediaWorkload()


@pytest.fixture
def sim8(workload, multimedia_design8):
    """simulate() on the 8-tile platform with the shared exploration."""
    def run(approach, iterations=ITERATIONS, seed=3):
        return simulate(workload, 8, approach, iterations=iterations,
                        seed=seed, design_result=multimedia_design8)
    return run


@pytest.fixture
def sim16(workload, multimedia_design16):
    """simulate() on the 16-tile platform with the shared exploration."""
    def run(approach, iterations=ITERATIONS, seed=3):
        return simulate(workload, 16, approach, iterations=iterations,
                        seed=seed, design_result=multimedia_design16)
    return run


class TestSimulationConfig:
    def test_invalid_iterations(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(iterations=0)

    def test_invalid_point_selection(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(point_selection="best")

    def test_deadline_required(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(point_selection="deadline")

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
    def test_non_finite_deadline_rejected(self, deadline):
        with pytest.raises(ConfigurationError, match="must be finite"):
            SimulationConfig(point_selection="deadline", deadline=deadline)


class TestBasicRuns:
    def test_no_prefetch_run(self, sim8):
        result = sim8(NoPrefetchApproach())
        metrics = result.metrics
        assert metrics.iterations == ITERATIONS
        assert metrics.task_executions > ITERATIONS
        assert 10.0 < metrics.overhead_percent < 40.0
        assert metrics.total_actual_time >= metrics.total_ideal_time

    def test_hybrid_beats_no_prefetch(self, sim8):
        baseline = sim8(NoPrefetchApproach())
        hybrid = sim8(HybridApproach())
        assert hybrid.overhead_percent < baseline.overhead_percent
        assert hybrid.metrics.hidden_fraction(
            baseline.metrics.total_overhead) > 0.8

    def test_deterministic_given_seed(self, sim8):
        first = sim8(RunTimeApproach(), seed=11)
        second = sim8(RunTimeApproach(), seed=11)
        assert first.overhead_percent == pytest.approx(second.overhead_percent)
        assert first.metrics.total_loads == second.metrics.total_loads

    def test_shared_exploration_matches_fresh_exploration(self, workload,
                                                          sim8):
        """A precomputed design_result changes nothing about the metrics."""
        shared = sim8(RunTimeApproach(), iterations=10, seed=11)
        fresh = simulate(workload, 8, RunTimeApproach(),
                         iterations=10, seed=11)
        assert fresh.metrics == shared.metrics

    def test_different_seeds_differ(self, sim8):
        first = sim8(NoPrefetchApproach(), seed=1)
        second = sim8(NoPrefetchApproach(), seed=2)
        assert first.metrics.total_ideal_time != \
            pytest.approx(second.metrics.total_ideal_time)

    def test_trace_collection(self, workload, multimedia_design8):
        platform = Platform(tile_count=8,
                            reconfiguration_latency=workload.reconfiguration_latency)
        config = SimulationConfig(iterations=5, seed=1, collect_trace=True)
        simulator = SystemSimulator(workload, platform, NoPrefetchApproach(),
                                    config,
                                    design_result=multimedia_design8)
        result = simulator.run()
        assert result.trace is not None
        assert len(result.trace) == result.metrics.task_executions
        assert "task" in result.trace.format_table()

    def test_iteration_records_structure(self, sim8):
        result = sim8(NoPrefetchApproach(), iterations=10, seed=5)
        assert len(result.iterations) == 10
        for iteration in result.iterations:
            assert iteration.tasks
            assert iteration.overhead >= 0.0


class TestReuseDynamics:
    def test_more_tiles_more_reuse(self, sim8, sim16):
        small = sim8(RunTimeApproach())
        large = sim16(RunTimeApproach())
        assert large.metrics.reuse_rate > small.metrics.reuse_rate
        assert large.overhead_percent <= small.overhead_percent + 0.5

    def test_state_wipe_kills_reuse(self, workload, multimedia_design16):
        platform = Platform(tile_count=16,
                            reconfiguration_latency=workload.reconfiguration_latency)
        persistent = SystemSimulator(
            workload, platform, RunTimeApproach(),
            SimulationConfig(iterations=ITERATIONS, seed=3),
            design_result=multimedia_design16,
        ).run()
        wiped = SystemSimulator(
            workload, platform, RunTimeApproach(),
            SimulationConfig(iterations=ITERATIONS, seed=3,
                             keep_state_between_iterations=False),
            design_result=multimedia_design16,
        ).run()
        assert wiped.metrics.reuse_rate < persistent.metrics.reuse_rate

    def test_intertask_reduces_overhead(self, sim8):
        plain = sim8(RunTimeApproach())
        intertask = sim8(RunTimeInterTaskApproach())
        assert intertask.overhead_percent < plain.overhead_percent


class TestPointSelection:
    def test_deadline_mode_runs(self):
        spec = SyntheticSpec(task_count=2, subtasks_per_task=4,
                             scenarios_per_task=1, seed=3)
        workload = SyntheticWorkload(spec)
        platform = Platform(tile_count=6,
                            reconfiguration_latency=workload.reconfiguration_latency)
        config = SimulationConfig(iterations=5, seed=1,
                                  point_selection="deadline", deadline=500.0)
        result = SystemSimulator(workload, platform, RunTimeApproach(),
                                 config).run()
        assert result.metrics.task_executions > 0
