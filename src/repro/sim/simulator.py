"""System simulator.

The simulator reproduces the experimental setup of Section 7: a sequence of
iterations, each executing a randomly drawn mix of tasks (with randomly
identified scenarios) back to back on the tile pool, with configurations
persisting on the tiles between tasks and iterations so that the reuse
module has something to work with.  One run is parameterized by a workload,
a platform (tile count, reconfiguration latency) and one of the five
scheduling approaches; its output is a :class:`SimulationMetrics` record
whose ``overhead_percent`` is the quantity plotted in Figures 6 and 7.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError
from ..platform.description import Platform
from ..reuse.replacement import ReplacementPolicy
from ..reuse.reuse import ReuseModule
from ..tcm.design_time import TcmDesignTimeResult, TcmDesignTimeScheduler
from ..tcm.run_time import RunTimeSelection, ScheduledTask, TcmRunTimeScheduler
from ..workloads.base import Workload
from .approaches import SchedulingApproach, TaskContext, TaskOutcome
from .metrics import (
    IterationRecord,
    SimulationMetrics,
    TaskExecutionRecord,
    aggregate_metrics,
)
from .noise import NoiseModel, PerturbationConfig, apply_realization, realize_task
from .state import SystemState
from .trace import SimulationTrace


@dataclass(frozen=True)
class SimulationConfig:
    """Tuning knobs of one simulation run.

    Parameters
    ----------
    iterations:
        Number of simulated iterations (the paper uses 1000).
    seed:
        Seed of the random task mix / scenario identification.
    point_selection:
        ``"fastest"`` (default) makes the run-time scheduler pick the
        fastest Pareto point of every task — the configuration used for the
        overhead sweeps of Figures 6 and 7; ``"deadline"`` enables the
        energy-minimizing selection under ``deadline``.
    deadline:
        Iteration deadline used when ``point_selection == "deadline"``.
    keep_state_between_iterations:
        When true (default) tile contents persist across iterations, which
        is what makes reuse possible; setting it to false models a platform
        that is wiped between iterations (useful for ablations).
    configuration_fault_rate:
        Probability that a resident configuration is lost (invalidated)
        between two iterations — a simple fault-injection model for single
        event upsets or scrubbing of the configuration memory.  Faulted
        configurations must be reloaded before reuse is possible again.
    collect_trace:
        When true, a :class:`~repro.sim.trace.SimulationTrace` with
        per-task records is attached to the result.
    perturbation:
        Optional :class:`~repro.sim.noise.PerturbationConfig` enabling the
        stochastic run-time layer: approaches plan against design-time
        estimates while the simulator realizes the plans under noise
        (latency noise, execution misestimation, mid-flight load
        failures).  ``None`` skips the realization; a null config runs it
        and, realizing on the planning kernel, returns every plan
        unchanged (bit-identical results).
    """

    iterations: int = 1000
    seed: int = 2005
    point_selection: str = "fastest"
    deadline: Optional[float] = None
    keep_state_between_iterations: bool = True
    configuration_fault_rate: float = 0.0
    collect_trace: bool = False
    perturbation: Optional[PerturbationConfig] = None

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if self.point_selection not in ("fastest", "deadline"):
            raise ConfigurationError(
                "point_selection must be 'fastest' or 'deadline', got "
                f"{self.point_selection!r}"
            )
        if self.point_selection == "deadline" and self.deadline is None:
            raise ConfigurationError(
                "a deadline is required when point_selection='deadline'"
            )
        if self.deadline is not None and not math.isfinite(self.deadline):
            raise ConfigurationError(
                f"deadline must be finite, got {self.deadline!r}"
            )
        if not 0.0 <= self.configuration_fault_rate <= 1.0:
            raise ConfigurationError(
                "configuration_fault_rate must lie in [0, 1], got "
                f"{self.configuration_fault_rate!r}"
            )
        if (self.perturbation is not None
                and not isinstance(self.perturbation, PerturbationConfig)):
            raise ConfigurationError(
                "perturbation must be a PerturbationConfig or None, got "
                f"{type(self.perturbation).__name__}"
            )


@dataclass(frozen=True)
class SimulationResult:
    """Everything produced by one simulation run."""

    metrics: SimulationMetrics
    iterations: Tuple[IterationRecord, ...]
    trace: Optional[SimulationTrace] = None

    @property
    def overhead_percent(self) -> float:
        """Reconfiguration overhead of the run (Figure 6/7 metric)."""
        return self.metrics.overhead_percent


class SystemSimulator:
    """Simulates a workload on a tile pool under one scheduling approach."""

    def __init__(self, workload: Workload, platform: Platform,
                 approach: SchedulingApproach,
                 config: Optional[SimulationConfig] = None,
                 replacement: Optional[ReplacementPolicy] = None,
                 design_result: Optional[TcmDesignTimeResult] = None) -> None:
        self.workload = workload
        self.platform = platform
        self.approach = approach
        self.config = config or SimulationConfig()
        self.reuse_module = ReuseModule(replacement=replacement)
        self._design_result: Optional[TcmDesignTimeResult] = None
        self._tcm_runtime: Optional[TcmRunTimeScheduler] = None
        # A precomputed exploration (e.g. shared by the sweep engine across
        # every approach at the same platform).  The exploration itself is
        # deterministic, so sharing one result is observably identical to
        # rebuilding it per run — the approach's prepare() still runs here.
        self._shared_design = design_result

    # ------------------------------------------------------------------ #
    @property
    def design_result(self) -> TcmDesignTimeResult:
        """The TCM design-time exploration result (built lazily)."""
        if self._design_result is None:
            if self._shared_design is not None:
                result = self._shared_design
            else:
                result = TcmDesignTimeScheduler(self.platform).explore(
                    self.workload.task_set)
            self._design_result = result
            self._tcm_runtime = TcmRunTimeScheduler(result)
            self.approach.prepare(result,
                                  self.workload.reconfiguration_latency)
        return self._design_result

    def run(self) -> SimulationResult:
        """Run the configured number of iterations and aggregate metrics."""
        design_result = self.design_result
        assert self._tcm_runtime is not None
        rng = random.Random(self.config.seed)
        fault_rng = random.Random(self.config.seed ^ 0x5EED)
        state = SystemState(platform=self.platform)
        trace = SimulationTrace() if self.config.collect_trace else None
        iteration_records: List[IterationRecord] = []
        perturbation = self.config.perturbation
        self._noise = (NoiseModel(perturbation, self.config.seed)
                       if perturbation is not None else None)
        # Configurations lost to fault injection, pending re-load
        # attribution (the fault_reloads counter).
        self._faulted: Set[str] = set()

        # The TCM run-time scheduler produces a continuous stream of
        # scheduled tasks, so the last task of one iteration already knows
        # the first task of the next one; a one-iteration lookahead models
        # that stream while still drawing the mixes lazily.
        upcoming = self._select_points(self.workload.draw_instances(rng))
        for iteration in range(self.config.iterations):
            if not self.config.keep_state_between_iterations:
                preserved_time = state.time
                preserved_controller = state.controller_free
                state.reset()
                state.time = preserved_time
                state.controller_free = preserved_controller
            faults = 0
            if self.config.configuration_fault_rate > 0.0:
                faults = self._inject_faults(state, fault_rng)
            scheduled = upcoming
            if iteration + 1 < self.config.iterations:
                upcoming = self._select_points(self.workload.draw_instances(rng))
            else:
                upcoming = []
            follow_up = (upcoming[0]
                         if upcoming and self.workload.sequence_lookahead
                         else None)
            records = self._run_iteration(scheduled, state, trace, follow_up)
            iteration_records.append(
                IterationRecord(index=iteration, tasks=tuple(records),
                                faults_injected=faults)
            )

        metrics = aggregate_metrics(
            approach=self.approach.name,
            workload=self.workload.name,
            tile_count=self.platform.tile_count,
            iterations=iteration_records,
        )
        return SimulationResult(metrics=metrics,
                                iterations=tuple(iteration_records),
                                trace=trace)

    # ------------------------------------------------------------------ #
    def _inject_faults(self, state: SystemState,
                       fault_rng: random.Random) -> int:
        """Invalidate resident configurations with the configured probability.

        Returns the number of configurations lost; each is remembered so a
        later load of the same configuration is counted as a
        fault-attributable reload.
        """
        count = 0
        for tile in state.tiles:
            if (tile.configuration is not None
                    and fault_rng.random() < self.config.configuration_fault_rate):
                self._faulted.add(tile.configuration)
                tile.invalidate()
                count += 1
        return count

    def _select_points(self, instances) -> List[ScheduledTask]:
        """Apply the configured Pareto-point selection policy."""
        assert self._tcm_runtime is not None
        if self.config.point_selection == "deadline":
            selection: RunTimeSelection = self._tcm_runtime.select(
                instances, deadline=self.config.deadline
            )
            return list(selection.scheduled)
        scheduled = []
        for instance in instances:
            curve = self.design_result.curve(instance.task_name,
                                             instance.scenario_name)
            scheduled.append(ScheduledTask(instance=instance,
                                           point=curve.fastest()))
        return scheduled

    def _run_iteration(self, scheduled: Sequence[ScheduledTask],
                       state: SystemState,
                       trace: Optional[SimulationTrace],
                       follow_up: Optional[ScheduledTask] = None
                       ) -> List[TaskExecutionRecord]:
        records: List[TaskExecutionRecord] = []
        for index, item in enumerate(scheduled):
            is_last = index + 1 >= len(scheduled)
            next_item = follow_up if is_last else scheduled[index + 1]
            ctx = TaskContext(
                scheduled=item,
                release_time=state.time,
                state=state,
                reuse_module=self.reuse_module,
                reconfiguration_latency=self.workload.reconfiguration_latency,
                next_scheduled=next_item,
                next_crosses_iteration=is_last and next_item is not None,
            )
            controller_before = state.controller_free
            outcome = self.approach.execute_task(ctx)
            record = outcome.record
            finish = outcome.finish_time
            if self._noise is not None:
                realized = realize_task(
                    outcome.plan, self._noise,
                    self.workload.reconfiguration_latency,
                    ctx.release_time, controller_before,
                )
                apply_realization(state, outcome.plan, realized)
                finish = realized.makespan
                span = finish - ctx.release_time
                # Built directly: dataclasses.replace walks every field.
                record = TaskExecutionRecord(
                    task_name=record.task_name,
                    scenario_name=record.scenario_name,
                    point_key=record.point_key,
                    release_time=record.release_time, finish_time=finish,
                    ideal_makespan=record.ideal_makespan,
                    overhead=max(0.0, span - record.ideal_makespan),
                    loads_performed=record.loads_performed,
                    loads_reused=record.loads_reused,
                    loads_cancelled=record.loads_cancelled,
                    initialization_loads=record.initialization_loads,
                    intertask_prefetches=record.intertask_prefetches,
                    scheduler_operations=record.scheduler_operations,
                    reuse_operations=record.reuse_operations,
                    energy=record.energy,
                    loads_failed=realized.loads_failed,
                    loads_retried=realized.loads_retried,
                    prefetches_abandoned=len(realized.abandoned))
            if self._faulted:
                # Attribute loads that re-fetch a configuration lost to
                # fault injection; each faulted configuration is charged
                # at most once.
                refetched = {entry.configuration
                             for entry in outcome.plan.loads
                             } & self._faulted
                if refetched:
                    self._faulted -= refetched
                    record = replace(record,
                                     fault_reloads=len(refetched))
            state.advance_time(finish)
            if self._noise is None:
                state.controller_free = max(state.controller_free,
                                            outcome.controller_free)
            # (Under noise apply_realization already set controller_free
            # from the realized port timeline.)
            self.approach.observe(record)
            records.append(record)
            if trace is not None:
                trace.add(record)
        return records


def simulate(workload: Workload, tile_count: int,
             approach: SchedulingApproach,
             iterations: int = 1000, seed: int = 2005,
             platform: Optional[Platform] = None,
             config: Optional[SimulationConfig] = None,
             design_result: Optional[TcmDesignTimeResult] = None
             ) -> SimulationResult:
    """Convenience wrapper: build the platform and run one simulation."""
    if platform is None:
        platform = Platform(
            tile_count=tile_count,
            reconfiguration_latency=workload.reconfiguration_latency,
        )
    if config is None:
        config = SimulationConfig(iterations=iterations, seed=seed)
    simulator = SystemSimulator(workload=workload, platform=platform,
                                approach=approach, config=config,
                                design_result=design_result)
    return simulator.run()

