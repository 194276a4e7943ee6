"""Tests for the stochastic perturbation layer (repro.sim.noise)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.platform.description import Platform
from repro.sim import (
    APPROACHES,
    NoiseModel,
    PerturbationConfig,
    SimulationConfig,
    SystemSimulator,
    make_approach,
    simulate,
)
from repro.tcm.design_time import TcmDesignTimeScheduler
from repro.workloads.multimedia import MultimediaWorkload
from repro.workloads.pocketgl import PocketGLWorkload
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload

NOISY = PerturbationConfig(latency_sigma=0.3, latency_jitter=1.0,
                           execution_sigma=0.2, load_failure_rate=0.25)


def small_workload() -> SyntheticWorkload:
    return SyntheticWorkload(spec=SyntheticSpec(task_count=3,
                                                subtasks_per_task=6,
                                                seed=11))


def run(approach_name: str, perturbation, *, workload=None, tiles: int = 6,
        iterations: int = 15, seed: int = 2005, fault_rate: float = 0.0,
        collect_trace: bool = False, platform=None, design=None):
    workload = workload or small_workload()
    platform = platform or Platform(
        tile_count=tiles,
        reconfiguration_latency=workload.reconfiguration_latency,
    )
    config = SimulationConfig(iterations=iterations, seed=seed,
                              configuration_fault_rate=fault_rate,
                              collect_trace=collect_trace,
                              perturbation=perturbation)
    simulator = SystemSimulator(workload, platform,
                                make_approach(approach_name), config=config,
                                design_result=design)
    return simulator.run()


#: The workloads the zero-noise properties are checked on.
WORKLOADS = {
    "synthetic": small_workload,
    "multimedia": MultimediaWorkload,
    "pocketgl": PocketGLWorkload,
}


@pytest.fixture(scope="module")
def explored():
    """Keyword arguments of :func:`run` for each workload at 6 tiles."""
    runs = {}
    for name, factory in WORKLOADS.items():
        workload = factory()
        platform = Platform(
            tile_count=6,
            reconfiguration_latency=workload.reconfiguration_latency,
        )
        design = TcmDesignTimeScheduler(platform).explore(workload.task_set)
        runs[name] = dict(workload=workload, platform=platform,
                          design=design)
    return runs


class TestPerturbationConfig:
    def test_defaults_are_null(self):
        config = PerturbationConfig()
        assert config.is_null
        assert config.label == "noise[off]"

    def test_any_intensity_is_not_null(self):
        assert not PerturbationConfig(latency_sigma=0.1).is_null
        assert not PerturbationConfig(latency_jitter=0.1).is_null
        assert not PerturbationConfig(execution_sigma=0.1).is_null
        assert not PerturbationConfig(load_failure_rate=0.1).is_null

    def test_seed_offsets_do_not_affect_nullness(self):
        assert PerturbationConfig(latency_seed=7, fault_seed=3).is_null

    @pytest.mark.parametrize("kwargs", [
        dict(latency_sigma=-0.1),
        dict(latency_jitter=-1.0),
        dict(execution_sigma=-0.5),
        dict(load_failure_rate=-0.1),
        dict(load_failure_rate=1.5),
        dict(max_retries=-1),
        dict(failure_detection_fraction=0.0),
        dict(failure_detection_fraction=1.5),
        # NaN slips through every ``x < 0`` check; an infinite retry
        # budget never gives up on a failing load.
        dict(latency_sigma=float("nan")),
        dict(latency_jitter=float("inf")),
        dict(execution_sigma=float("nan")),
        dict(max_retries=float("inf")),
        # Streams are seeded from the seed's text, so 1 and 1.0 would draw
        # different noise from configs that compare equal.
        dict(max_retries=1.5),
        dict(max_retries=2.0),
        dict(latency_seed=1.0),
        dict(execution_seed=2.0),
        dict(fault_seed="3"),
        dict(max_retries=True),
        dict(fault_seed=False),
        dict(latency_sigma=True),
        dict(load_failure_rate=False),
        dict(latency_jitter="0.5"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            PerturbationConfig(**kwargs)

    def test_payload_round_trip(self):
        config = PerturbationConfig(latency_sigma=0.2, load_failure_rate=0.3,
                                    max_retries=5, fault_seed=9)
        assert PerturbationConfig.from_payload(config.payload()) == config

    def test_label_names_active_sources(self):
        label = PerturbationConfig(latency_sigma=0.25,
                                   load_failure_rate=0.1).label
        assert "lat=0.25" in label and "fail=0.1" in label
        assert "exec" not in label


class TestNoiseModelStreams:
    def test_streams_are_independent(self):
        """Changing one stream's seed never shifts the other streams."""
        base = PerturbationConfig(latency_sigma=0.3, latency_jitter=0.5,
                                  execution_sigma=0.2, load_failure_rate=0.5)
        jittered = PerturbationConfig(latency_sigma=0.3, latency_jitter=0.5,
                                      execution_sigma=0.2,
                                      load_failure_rate=0.5, latency_seed=99)
        one = NoiseModel(base, seed=2005)
        two = NoiseModel(jittered, seed=2005)
        # Latency draws differ (that stream was reseeded)...
        assert [one.realized_latency(4.0) for _ in range(32)] \
            != [two.realized_latency(4.0) for _ in range(32)]
        # ...but the fault and execution sequences are untouched.
        assert [one.draw_load_failure() for _ in range(64)] \
            == [two.draw_load_failure() for _ in range(64)]
        assert [one.realized_duration(3.0) for _ in range(32)] \
            == [two.realized_duration(3.0) for _ in range(32)]

    def test_fault_seed_only_moves_fault_stream(self):
        base = PerturbationConfig(latency_sigma=0.3, load_failure_rate=0.5)
        refaulted = PerturbationConfig(latency_sigma=0.3,
                                       load_failure_rate=0.5, fault_seed=1)
        one = NoiseModel(base, seed=2005)
        two = NoiseModel(refaulted, seed=2005)
        assert [one.realized_latency(4.0) for _ in range(32)] \
            == [two.realized_latency(4.0) for _ in range(32)]
        assert [one.draw_load_failure() for _ in range(128)] \
            != [two.draw_load_failure() for _ in range(128)]

    def test_latency_noise_is_mean_one(self):
        model = NoiseModel(PerturbationConfig(latency_sigma=0.3), seed=7)
        draws = [model.realized_latency(1.0) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(1.0, rel=0.05)
        assert min(draws) > 0.0

    def test_execution_noise_is_mean_one(self):
        model = NoiseModel(PerturbationConfig(execution_sigma=0.25), seed=7)
        draws = [model.realized_duration(2.0) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(2.0, rel=0.05)

    def test_null_model_is_identity(self):
        model = NoiseModel(PerturbationConfig(), seed=7)
        assert model.realized_latency(4.0) == 4.0
        assert model.realized_duration(2.5) == 2.5
        assert model.draw_load_failure() is False


class TestZeroNoiseBitIdentity:
    @pytest.mark.parametrize("name", sorted(APPROACHES))
    def test_null_config_matches_no_config(self, explored, name):
        """A null config realizes every plan exactly as planned.

        ``None`` skips the realization, a null config runs it, so the
        realized records must equal the planned ones bit for bit.
        """
        for workload, kwargs in explored.items():
            plain = run(name, None, fault_rate=0.05, collect_trace=True,
                        **kwargs)
            nulled = run(name, PerturbationConfig(), fault_rate=0.05,
                         collect_trace=True, **kwargs)
            assert plain.metrics == nulled.metrics, workload
            assert plain.iterations == nulled.iterations, workload

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("name", sorted(APPROACHES))
    def test_epsilon_noise_converges_to_plan(self, explored, name,
                                             workload):
        """The noisy path is continuous at zero noise, for every approach."""
        epsilon = PerturbationConfig(latency_sigma=1e-12,
                                     execution_sigma=1e-12)
        plain = run(name, None, fault_rate=0.05, **explored[workload])
        noisy = run(name, epsilon, fault_rate=0.05, **explored[workload])
        assert noisy.metrics.overhead_percent == pytest.approx(
            plain.metrics.overhead_percent, rel=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(fault_rate=st.floats(min_value=0.0, max_value=0.3),
           tiles=st.integers(min_value=2, max_value=8))
    def test_epsilon_noise_converges_for_any_faults_and_tiles(
            self, fault_rate, tiles):
        """Continuity at zero noise over fault rates and tile counts."""
        epsilon = PerturbationConfig(latency_sigma=1e-12,
                                     execution_sigma=1e-12)
        workload = small_workload()
        platform = Platform(
            tile_count=tiles,
            reconfiguration_latency=workload.reconfiguration_latency,
        )
        design = TcmDesignTimeScheduler(platform).explore(workload.task_set)
        for name in sorted(APPROACHES):
            kwargs = dict(fault_rate=fault_rate, workload=workload,
                          platform=platform, design=design)
            plain = run(name, None, **kwargs)
            noisy = run(name, epsilon, **kwargs)
            assert noisy.metrics.overhead_percent == pytest.approx(
                plain.metrics.overhead_percent, rel=1e-9), name

    def test_zero_noise_records_have_zero_stochastic_counters(self):
        result = run("hybrid", None)
        metrics = result.metrics
        assert metrics.total_loads_failed == 0
        assert metrics.total_loads_retried == 0
        assert metrics.total_prefetches_abandoned == 0
        assert metrics.total_fault_reloads == 0
        assert metrics.total_faults_injected == 0


class TestSimulatorUnderNoise:
    @pytest.mark.parametrize("name", sorted(APPROACHES))
    def test_same_seed_same_result(self, name):
        """Same (seed, PerturbationConfig) => bit-identical results."""
        first = run(name, NOISY, collect_trace=False)
        second = run(name, NOISY, collect_trace=False)
        assert first.metrics == second.metrics
        assert first.iterations == second.iterations

    def test_different_seed_different_result(self):
        assert run("hybrid", NOISY, seed=1).metrics \
            != run("hybrid", NOISY, seed=2).metrics

    def test_latency_seed_leaves_fault_sequence_unchanged(self):
        """Independent streams at the simulator level.

        With the no-prefetch approach every fault draw belongs to an
        in-task load of a noise-independent plan, so reshuffling the
        latency stream must reproduce the exact failure/retry sequence.
        """
        base = PerturbationConfig(latency_sigma=0.3, latency_jitter=1.0,
                                  load_failure_rate=0.3)
        reshuffled = PerturbationConfig(latency_sigma=0.3, latency_jitter=1.0,
                                        load_failure_rate=0.3,
                                        latency_seed=42)
        one = run("no-prefetch", base, collect_trace=True)
        two = run("no-prefetch", reshuffled, collect_trace=True)
        assert one.metrics.total_loads_failed > 0
        assert one.metrics.total_loads_failed \
            == two.metrics.total_loads_failed
        assert [r.loads_failed for r in one.trace.records] \
            == [r.loads_failed for r in two.trace.records]
        # The timings themselves did change.
        assert one.metrics.total_actual_time \
            != two.metrics.total_actual_time

    def test_failure_counters_are_populated(self):
        result = run("run-time+inter-task",
                     PerturbationConfig(load_failure_rate=0.4),
                     iterations=20, collect_trace=True)
        metrics = result.metrics
        assert metrics.total_loads_failed > 0
        assert metrics.total_loads_retried > 0
        records = result.trace.records
        assert sum(r.loads_failed for r in records) \
            == metrics.total_loads_failed
        assert sum(r.prefetches_abandoned for r in records) \
            == metrics.total_prefetches_abandoned

    def test_abandoned_prefetches_occur_under_heavy_failures(self):
        result = run("run-time+inter-task",
                     PerturbationConfig(load_failure_rate=0.6, max_retries=1),
                     iterations=20)
        assert result.metrics.total_prefetches_abandoned > 0

    @pytest.mark.parametrize("name", sorted(APPROACHES))
    def test_noise_costs_overhead(self, name):
        quiet = run(name, None, iterations=20)
        noisy = run(name, NOISY, iterations=20)
        assert noisy.metrics.total_overhead > quiet.metrics.total_overhead

    def test_fault_reloads_are_attributed(self):
        result = run("no-prefetch", None, fault_rate=0.3, iterations=20)
        metrics = result.metrics
        assert metrics.total_faults_injected > 0
        assert 0 < metrics.total_fault_reloads \
            <= metrics.total_faults_injected
        assert 0.0 < metrics.fault_reload_fraction <= 1.0

    def test_trace_collected_under_noise(self):
        result = run("hybrid", NOISY, collect_trace=True, iterations=5)
        assert result.trace is not None
        assert len(result.trace.records) == len(
            [t for it in result.iterations for t in it.tasks]
        )

    def test_multimedia_workload_under_noise(self):
        """The paper workload survives the stochastic layer end to end."""
        result = simulate(
            MultimediaWorkload(), 8, make_approach("hybrid"),
            config=SimulationConfig(iterations=10, seed=2005,
                                    perturbation=NOISY),
        )
        assert result.metrics.task_executions > 0
        assert result.metrics.total_overhead >= 0.0


class TestTerminationUnderAdversarialFaults:
    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(sorted(APPROACHES)),
        failure_rate=st.floats(min_value=0.5, max_value=1.0),
        max_retries=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    def test_every_approach_terminates(self, name, failure_rate,
                                       max_retries, seed):
        """No deadlock / livelock even when nearly every load fails."""
        adversarial = PerturbationConfig(
            latency_sigma=0.5, latency_jitter=2.0, execution_sigma=0.4,
            load_failure_rate=failure_rate, max_retries=max_retries,
        )
        result = run(name, adversarial, iterations=3, seed=seed,
                     fault_rate=0.2)
        assert result.metrics.task_executions > 0
        finishes = [task.finish_time for it in result.iterations
                    for task in it.tasks]
        assert all(f < float("inf") for f in finishes)
        assert finishes == sorted(finishes)
