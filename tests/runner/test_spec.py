"""Tests for the declarative sweep specifications and their cache keys."""

import pytest

from repro.errors import ConfigurationError
from repro.runner import ApproachSpec, SweepPoint, SweepSpec, WorkloadSpec
from repro.runner.spec import workload_spec_for
from repro.sim import PerturbationConfig
from repro.workloads.multimedia import MultimediaWorkload
from repro.workloads.pocketgl import PocketGLWorkload
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload


def make_point(**overrides) -> SweepPoint:
    """A baseline point; keyword overrides patch individual fields."""
    fields = dict(
        workload=WorkloadSpec.of("multimedia"),
        approach=ApproachSpec.of("hybrid"),
        tile_count=8,
        seed=2005,
        iterations=100,
    )
    fields.update(overrides)
    return SweepPoint(**fields)


class TestWorkloadSpec:
    def test_accepts_name(self):
        spec = WorkloadSpec.of("multimedia")
        assert spec.name == "multimedia"
        assert spec.build().name == "multimedia"

    def test_options_reach_the_constructor(self):
        spec = WorkloadSpec.of("multimedia", reconfiguration_latency=2.0)
        assert spec.build().reconfiguration_latency == 2.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.of("quake")

    def test_non_scalar_option_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.of("multimedia", reconfiguration_latency=[4.0])

    def test_option_order_does_not_matter(self):
        first = WorkloadSpec.of("synthetic", task_count=2, seed=5)
        second = WorkloadSpec.of("synthetic", seed=5, task_count=2)
        assert first == second

    def test_label(self):
        assert WorkloadSpec.of("multimedia").label == "multimedia"
        assert "reconfiguration_latency=2.0" in \
            WorkloadSpec.of("multimedia", reconfiguration_latency=2.0).label


class TestWorkloadSpecFor:
    def test_multimedia_round_trip(self):
        workload = MultimediaWorkload(reconfiguration_latency=2.5)
        spec = workload_spec_for(workload)
        rebuilt = spec.build()
        assert rebuilt.reconfiguration_latency == 2.5
        assert rebuilt.min_tasks_per_iteration == \
            workload.min_tasks_per_iteration

    def test_pocketgl_round_trip(self):
        workload = PocketGLWorkload(inter_task_scenarios=10)
        rebuilt = workload_spec_for(workload).build()
        assert rebuilt.inter_task_scenarios == workload.inter_task_scenarios

    def test_synthetic_round_trip(self):
        workload = SyntheticWorkload(spec=SyntheticSpec(task_count=2,
                                                        subtasks_per_task=5))
        rebuilt = workload_spec_for(workload).build()
        assert rebuilt.spec == workload.spec

    def test_subclass_is_not_representable(self):
        class Custom(MultimediaWorkload):
            pass

        assert workload_spec_for(Custom()) is None


class TestApproachSpec:
    def test_accepts_name(self):
        spec = ApproachSpec.of("run-time")
        assert spec.build().name == "run-time"

    def test_options_reach_the_constructor(self):
        spec = ApproachSpec.of("hybrid", use_intertask=False)
        assert spec.build().uses_intertask is False

    def test_replacement_builds_policy(self):
        spec = ApproachSpec.of("hybrid", replacement="fifo")
        assert spec.build_replacement().name == "fifo"
        assert ApproachSpec.of("hybrid").build_replacement() is None

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ApproachSpec.of("oracle")

    @pytest.mark.parametrize("name, options", [
        ("no-prefetch", dict(priority="weight")),
        ("run-time", dict(priority="weight")),
        ("adaptive", dict(priority="weight")),
        ("hybrid", dict(static_intertask=True)),
    ])
    def test_options_the_constructor_lacks_are_rejected(self, name,
                                                        options):
        with pytest.raises(ConfigurationError, match="bad options"):
            ApproachSpec.of(name, **options)

    def test_labels_distinguish_variants(self):
        labels = {
            ApproachSpec.of("hybrid").label,
            ApproachSpec.of("hybrid", use_intertask=False).label,
            ApproachSpec.of("hybrid", replacement="fifo").label,
        }
        assert len(labels) == 3


class TestSweepSpec:
    def test_names_are_normalized_to_specs(self):
        spec = SweepSpec(workloads=("multimedia",),
                         approaches=("hybrid", "run-time"),
                         tile_counts=(8,))
        assert all(isinstance(w, WorkloadSpec) for w in spec.workloads)
        assert all(isinstance(a, ApproachSpec) for a in spec.approaches)

    def test_duplicate_axis_entries_are_deduplicated(self):
        """Repeated seeds/tile counts no longer inflate the executed grid.

        A duplicated entry used to double ``point_count`` and run the same
        point twice (the engine deduplicated execution, but every report
        listed the point twice); axes are now deduplicated preserving
        first-seen order.
        """
        spec = SweepSpec(
            workloads=("multimedia", "multimedia"),
            approaches=("hybrid", "run-time", "hybrid"),
            tile_counts=(8, 4, 8, 4),
            seeds=(3, 1, 3, 2, 1),
        )
        assert spec.tile_counts == (8, 4)
        assert spec.seeds == (3, 1, 2)
        assert [w.name for w in spec.workloads] == ["multimedia"]
        assert [a.name for a in spec.approaches] == ["hybrid", "run-time"]
        points = spec.expand()
        assert len(points) == spec.point_count == 1 * 2 * 2 * 3
        assert len(set(points)) == len(points)

    def test_expansion_is_the_full_cross_product(self):
        spec = SweepSpec(workloads=("multimedia", "pocketgl"),
                         approaches=("hybrid", "run-time", "no-prefetch"),
                         tile_counts=(8, 10), seeds=(1, 2), iterations=50)
        points = spec.expand()
        assert len(points) == spec.point_count == 2 * 3 * 2 * 2
        assert len(set(points)) == len(points)

    def test_expansion_order_is_deterministic(self):
        spec = SweepSpec(workloads=("multimedia",),
                         approaches=("hybrid", "run-time"),
                         tile_counts=(8, 10), seeds=(1, 2))
        assert spec.expand() == spec.expand()
        first = spec.expand()[0]
        assert (first.approach.name, first.tile_count, first.seed) == \
            ("hybrid", 8, 1)

    def test_config_fields_propagate(self):
        spec = SweepSpec(workloads=("multimedia",), approaches=("hybrid",),
                         tile_counts=(8,), iterations=70,
                         configuration_fault_rate=0.25)
        config = spec.expand()[0].config()
        assert config.iterations == 70
        assert config.configuration_fault_rate == 0.25

    @pytest.mark.parametrize("kwargs", [
        dict(workloads=(), approaches=("hybrid",), tile_counts=(8,)),
        dict(workloads=("multimedia",), approaches=(), tile_counts=(8,)),
        dict(workloads=("multimedia",), approaches=("hybrid",),
             tile_counts=()),
        dict(workloads=("multimedia",), approaches=("hybrid",),
             tile_counts=(8,), seeds=()),
        dict(workloads=("multimedia",), approaches=("hybrid",),
             tile_counts=(0,)),
        dict(workloads=("multimedia",), approaches=("hybrid",),
             tile_counts=(8,), iterations=0),
        dict(workloads=("multimedia",), approaches=("hybrid",),
             tile_counts=(8,), configuration_fault_rate=2.0),
    ])
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SweepSpec(**kwargs)


class TestPerturbationAxis:
    NOISE = PerturbationConfig(latency_sigma=0.2, load_failure_rate=0.1)

    def test_null_config_normalizes_to_none_on_points(self):
        point = make_point(perturbation=PerturbationConfig())
        assert point.perturbation is None
        assert point == make_point()

    def test_point_config_carries_the_perturbation(self):
        point = make_point(perturbation=self.NOISE)
        assert point.config().perturbation == self.NOISE

    def test_noise_changes_the_cache_key(self):
        assert make_point(perturbation=self.NOISE).cache_key() \
            != make_point().cache_key()
        assert "noise[" in make_point(perturbation=self.NOISE).label

    def test_noise_free_payload_is_unchanged(self):
        """Old cache entries stay valid: no ``perturbation`` key when off."""
        assert "perturbation" not in make_point().payload()
        assert "perturbation" in make_point(perturbation=self.NOISE).payload()

    def test_spec_null_entries_fold_and_deduplicate(self):
        spec = SweepSpec(
            workloads=("multimedia",), approaches=("hybrid",),
            tile_counts=(8,),
            perturbations=(None, PerturbationConfig(), self.NOISE, self.NOISE),
        )
        assert spec.perturbations == (None, self.NOISE)
        assert spec.point_count == 2
        assert [p.perturbation for p in spec.expand()] == [None, self.NOISE]

    def test_expansion_varies_perturbation_before_seed(self):
        spec = SweepSpec(
            workloads=("multimedia",), approaches=("hybrid",),
            tile_counts=(8,), seeds=(1, 2),
            perturbations=(None, self.NOISE),
        )
        points = spec.expand()
        assert [(p.perturbation, p.seed) for p in points] == [
            (None, 1), (None, 2), (self.NOISE, 1), (self.NOISE, 2),
        ]

    @pytest.mark.parametrize("perturbations", [
        (), ("noisy",), (0.3,),
    ])
    def test_invalid_perturbation_axis_rejected(self, perturbations):
        with pytest.raises(ConfigurationError):
            SweepSpec(workloads=("multimedia",), approaches=("hybrid",),
                      tile_counts=(8,), perturbations=perturbations)


class TestCacheKey:
    def test_key_is_stable(self):
        assert make_point().cache_key() == make_point().cache_key()

    @pytest.mark.parametrize("overrides", [
        dict(workload=WorkloadSpec.of("pocketgl")),
        dict(workload=WorkloadSpec.of("multimedia",
                                      reconfiguration_latency=2.0)),
        dict(approach=ApproachSpec.of("run-time")),
        dict(approach=ApproachSpec.of("hybrid", use_intertask=False)),
        dict(approach=ApproachSpec.of("hybrid", replacement="fifo")),
        dict(tile_count=9),
        dict(seed=2006),
        dict(iterations=101),
        dict(configuration_fault_rate=0.1),
        dict(keep_state_between_iterations=False),
        dict(point_selection="deadline", deadline=100.0),
    ])
    def test_key_changes_with_every_ingredient(self, overrides):
        assert make_point(**overrides).cache_key() != make_point().cache_key()

    def test_group_key_ignores_approach_and_seed(self):
        base = make_point()
        assert make_point(approach=ApproachSpec.of("run-time"),
                          seed=1).group_key == base.group_key
        assert make_point(tile_count=9).group_key != base.group_key
