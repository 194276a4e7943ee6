"""Tests for the unified workload registry.

The registry is the single source of truth behind ``WorkloadSpec.build()``
and the service's task-graph lookup; these tests pin the public contract:
decorator registration, option-schema validation, the spec round-trip
(register -> ``WorkloadSpec.of`` -> ``build`` -> ``workload_spec_for`` ->
same spec).
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.graphs.taskgraph import chain_graph
from repro.runner.spec import WorkloadSpec, workload_spec_for
from repro.workloads import registry
from repro.workloads.base import Workload
from repro.workloads.multimedia import MultimediaWorkload
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.traces import TraceWorkload


@pytest.fixture()
def scratch_workload():
    """Register a throwaway workload family; always unregister after."""
    name = "scratch-registry-test"

    @registry.register_workload(
        name,
        options_schema={"reconfiguration_latency": float,
                        "min_tasks_per_iteration": int},
        instance_class=None,
    )
    def build(**options):
        return MultimediaWorkload(**options)

    try:
        yield name
    finally:
        registry.unregister_workload(name)


class TestRegistration:
    def test_builtin_families_are_registered(self):
        for name in ("multimedia", "pocketgl", "synthetic", "trace"):
            assert registry.has_workload(name)
            assert name in registry.workload_names()

    def test_duplicate_name_is_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register_workload("multimedia")(MultimediaWorkload)

    def test_scratch_register_build_unregister(self, scratch_workload):
        workload = registry.build_workload(scratch_workload,
                                           reconfiguration_latency=2.0)
        assert isinstance(workload, MultimediaWorkload)
        assert workload.reconfiguration_latency == 2.0

    def test_unregister_removes_lookup(self):
        registry.register_workload("ghost-family")(lambda: None)
        registry.unregister_workload("ghost-family")
        assert not registry.has_workload("ghost-family")
        with pytest.raises(ConfigurationError, match="unknown workload"):
            registry.build_workload("ghost-family")

    def test_unknown_workload_lists_available(self):
        with pytest.raises(ConfigurationError) as excinfo:
            registry.build_workload("nope")
        assert "unknown workload 'nope'" in str(excinfo.value)
        assert "multimedia" in str(excinfo.value)


class TestOptionValidation:
    def test_unknown_option_names_allowed_set(self):
        with pytest.raises(ConfigurationError, match="has no option"):
            registry.validate_options("multimedia", {"bogus": 1})

    def test_int_satisfies_float_schema(self):
        registry.validate_options("multimedia",
                                  {"reconfiguration_latency": 4})

    def test_bool_never_satisfies_numeric_schema(self):
        with pytest.raises(ConfigurationError):
            registry.validate_options("multimedia",
                                      {"reconfiguration_latency": True})

    def test_type_mismatch_is_rejected(self):
        with pytest.raises(ConfigurationError):
            registry.validate_options("synthetic", {"task_count": "five"})

    def test_optional_field_accepts_none(self):
        registry.validate_options("synthetic",
                                  {"tasks_per_iteration": None})


class TestSpecRoundTrip:
    """register -> WorkloadSpec.of -> build -> workload_spec_for -> same."""

    @pytest.mark.parametrize("spec", [
        WorkloadSpec.of("multimedia"),
        WorkloadSpec.of("multimedia", reconfiguration_latency=2.5,
                        min_tasks_per_iteration=3),
        WorkloadSpec.of("pocketgl", reconfiguration_latency=3.0,
                        inter_task_scenarios=4),
        WorkloadSpec.of("synthetic", task_count=3, subtasks_per_task=4,
                        scenarios_per_task=2, granularity=2.5,
                        reconfiguration_latency=4.0,
                        tasks_per_iteration=2, seed=7),
        WorkloadSpec.of("trace", graph_id=5, trace_seed=1, subtasks=5,
                        scenarios=2, granularity=3.0,
                        reconfiguration_latency=4.0),
    ])
    def test_round_trip(self, spec):
        workload = spec.build()
        resolved = workload_spec_for(workload)
        assert resolved is not None
        assert resolved.name == spec.name
        # The resolved spec carries every constructor option explicitly,
        # so rebuilding it yields the same workload family and options.
        rebuilt = resolved.build()
        assert type(rebuilt) is type(workload)
        assert workload_spec_for(rebuilt) == resolved

    @given(graph_id=st.integers(min_value=0, max_value=500),
           subtasks=st.integers(min_value=1, max_value=12),
           trace_seed=st.integers(min_value=0, max_value=50))
    def test_trace_round_trip_property(self, graph_id, subtasks,
                                       trace_seed):
        spec = WorkloadSpec.of("trace", graph_id=graph_id,
                               trace_seed=trace_seed, subtasks=subtasks,
                               scenarios=2, granularity=3.0,
                               reconfiguration_latency=4.0)
        resolved = workload_spec_for(spec.build())
        assert resolved == spec

    def test_subclass_instances_resolve_to_none(self):
        class Sub(TraceWorkload):
            pass

        assert workload_spec_for(Sub(graph_id=0)) is None

    def test_unregistered_instance_resolves_to_none(self):
        class Alien(Workload):
            def draw_instances(self, rng):  # pragma: no cover
                return []

        assert registry.spec_for_instance(Alien.__new__(Alien)) is None

    def test_synthetic_spec_survives_exactly(self):
        spec = WorkloadSpec.of("synthetic", task_count=2,
                               subtasks_per_task=3, scenarios_per_task=2,
                               granularity=3.0,
                               reconfiguration_latency=4.0,
                               tasks_per_iteration=None, seed=11)
        workload = spec.build()
        assert isinstance(workload, SyntheticWorkload)
        assert workload_spec_for(workload) == spec


class TestTaskGraphs:
    def test_demo_graphs_are_registered(self):
        expected = {"pattern_recognition", "jpeg_decoder", "parallel_jpeg",
                    "mpeg_encoder_b", "mpeg_encoder_p", "mpeg_encoder_i"}
        assert expected <= set(registry.task_graph_names())

    def test_build_task_graph(self):
        graph = registry.build_task_graph("jpeg_decoder")
        assert len(graph) > 0

    def test_unknown_task_graph(self):
        with pytest.raises(ConfigurationError, match="unknown task"):
            registry.build_task_graph("ghost")

    def test_scratch_task_graph_register_unregister(self):
        registry.register_task_graph("scratch-graph")(
            lambda: chain_graph("scratch", [10.0, 12.0]))
        try:
            assert registry.has_task_graph("scratch-graph")
            assert len(registry.build_task_graph("scratch-graph")) == 2
        finally:
            registry.unregister_task_graph("scratch-graph")
        assert not registry.has_task_graph("scratch-graph")
