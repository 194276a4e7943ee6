"""The simulator's per-task path reads the replay kernel's columns.

Entry objects (:class:`~repro.scheduling.schedule.ExecutionEntry` and
``LoadEntry``) are the name-level view of a timed schedule, built only
when something reads it.  Planning, applying and realizing a task reads
the columns by subtask id instead, so the only entries a task execution
builds are the hybrid's initialization loads.  Design-time work (the
approaches' ``prepare``) runs before the first iteration and is not
counted.
"""

import pytest

from repro.platform.description import Platform
from repro.scheduling.schedule import ExecutionEntry, LoadEntry
from repro.sim import (
    APPROACHES,
    PerturbationConfig,
    SimulationConfig,
    SystemSimulator,
    make_approach,
)
from repro.workloads.multimedia import MultimediaWorkload

NOISY = PerturbationConfig(latency_sigma=0.3, latency_jitter=1.0,
                           execution_sigma=0.2, load_failure_rate=0.25)


@pytest.fixture
def entries_built(monkeypatch):
    """Count entry constructions while ``_run_iteration`` runs."""
    built = {ExecutionEntry: 0, LoadEntry: 0}
    inside = [False]
    for cls in built:
        def counting(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            if inside[0]:
                built[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    run_iteration = SystemSimulator._run_iteration

    def counted(self, *args, **kwargs):
        inside[0] = True
        try:
            return run_iteration(self, *args, **kwargs)
        finally:
            inside[0] = False
    monkeypatch.setattr(SystemSimulator, "_run_iteration", counted)
    return built


@pytest.mark.parametrize("perturbation", [None, NOISY],
                         ids=["noise-free", "noisy"])
@pytest.mark.parametrize("approach", sorted(APPROACHES))
def test_per_task_path_builds_no_entry_objects(entries_built, approach,
                                               perturbation,
                                               multimedia_design8):
    workload = MultimediaWorkload()
    platform = Platform(
        tile_count=8, reconfiguration_latency=workload.reconfiguration_latency)
    config = SimulationConfig(iterations=20, seed=2005,
                              perturbation=perturbation)
    result = SystemSimulator(workload, platform, make_approach(approach),
                             config=config,
                             design_result=multimedia_design8).run()
    initialization = sum(task.initialization_loads
                         for iteration in result.iterations
                         for task in iteration.tasks)
    assert entries_built[ExecutionEntry] == 0
    assert entries_built[LoadEntry] == initialization
    if approach == "hybrid":
        assert initialization > 0  # the hybrid's count is not vacuous
