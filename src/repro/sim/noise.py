"""Stochastic perturbation layer: noise models, fault injection, realization.

The paper's run-time phase replays plans under perfect knowledge: the
design-time estimates of reconfiguration latency and subtask execution
times are exactly what happens.  This module makes reality disagree with
the model.  Approaches keep *planning* against the design-time estimates;
the simulator then *realizes* each plan under a seed-deterministic
:class:`NoiseModel` and commits the realized times (and the realized fate
of every prefetch) to the shared :class:`~repro.sim.state.SystemState`.

Noise model
-----------
:class:`PerturbationConfig` composes three independent perturbation
sources, each drawn from its own ``random.Random`` stream so that changing
one stream's seed (or intensity) never shifts the draws of the others:

``latency`` stream — reconfiguration-latency noise
    Every load attempt takes ``base * lognormal(sigma=latency_sigma)``
    (mean-one: ``mu = -sigma^2/2``) plus an additive one-sided jitter drawn
    uniformly from ``[0, latency_jitter]`` milliseconds.  Models bitstream
    transport contention on the reconfiguration port.

``execution`` stream — execution-time misestimation
    Every subtask's realized duration is its design-time estimate scaled
    by a mean-one lognormal with ``sigma = execution_sigma``.  The plan
    (reuse decisions, load order, tile binding) is still computed from the
    estimates — exactly the stale-plan situation the adaptive approach has
    to survive.

``fault`` stream — mid-flight load failures
    Each load attempt fails with probability ``load_failure_rate``.  A
    failed attempt occupies the port for ``failure_detection_fraction`` of
    its drawn duration (the time until the CRC/timeout notices), then:

    * **in-task loads** retry immediately; after ``max_retries`` failures
      the next attempt succeeds deterministically (the controller falls
      back to a verified golden transfer), which guarantees termination
      under adversarial failure rates;
    * **inter-task prefetches** retry while the current task is still
      running, but are *abandoned* once retries are exhausted or the task
      finishes first.  An abandoned prefetch leaves its tile invalidated
      (the aborted write leaves no usable configuration) and the next task
      falls back to loading on demand.

This generalizes the between-iteration ``configuration_fault_rate`` of
:class:`~repro.sim.simulator.SimulationConfig` (which still exists and now
feeds the fault-attribution counters) into failures *during* loads.

Realization runs on the replay kernel
(:class:`~repro.scheduling.replay.ReplayState`), the timing engine that
planned the task: :func:`realize_task` replays the plan's committed load
order with the drawn durations, so a null model returns the plan exactly
and the noisy results converge to the noise-free ones as the noise goes to
zero.  A ``perturbation`` of ``None`` skips this layer entirely; sweep
points fold null configs into ``None``, so noise-free sweeps never pay for
a realization.

Adaptive controller knobs
-------------------------
:class:`~repro.sim.approaches.AdaptivePrefetchApproach` (registered as
``"adaptive"``) consumes the realized per-task records through the
``observe()`` feedback hook and drives its inter-task prefetch depth with
a PI controller in the ``PIPrefetcher`` idiom:

``kp``
    Proportional gain on the latest error sample.
``ki``
    Integral gain on the sum of the lookback window (a bounded deque, so
    the integral term cannot wind up without limit).
``headroom``
    Minimum prefetch depth: the controller never throttles below this many
    upcoming configurations, so a burst of waste cannot turn prefetching
    off entirely.
``max_depth``
    Upper clamp on the prefetch depth.
``lookback``
    Number of recent task records in the error window.
``target_overhead``
    Stall setpoint as a fraction of the ideal makespan; realized overhead
    above it pushes the depth up, overhead below it (or prefetch waste —
    abandoned prefetches and retried loads, weighted by ``waste_weight``)
    pushes it down.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..core.intertask import PlannedPrefetch
from ..errors import ConfigurationError, SchedulingError
from ..scheduling.replay import ReplayState
from ..scheduling.schedule import (
    LoadEntry,
    PlacedSchedule,
    ResourceId,
    TimedSchedule,
)


#: Fields of :class:`PerturbationConfig` that must be integers.
_INTEGER_FIELDS = frozenset({"max_retries", "latency_seed", "execution_seed",
                             "fault_seed"})


@dataclass(frozen=True)
class PerturbationConfig:
    """Seed-deterministic description of one stochastic scenario.

    All-default instances are *null*: they describe the noise-free world,
    so realizing a plan under one returns the plan (results bit-identical
    to ``perturbation=None``, which skips realization), and sweep points
    fold them into ``None`` (same cache keys).  ``max_retries`` and the
    seed offsets are integers — the streams are seeded from their text, so
    ``1`` and ``1.0`` would draw different noise; every other knob is a
    number.  See the module docstring for the meaning of each knob.
    """

    latency_sigma: float = 0.0
    latency_jitter: float = 0.0
    execution_sigma: float = 0.0
    load_failure_rate: float = 0.0
    max_retries: int = 3
    failure_detection_fraction: float = 0.5
    #: Per-stream seed offsets.  Changing one offset reshuffles only that
    #: stream's draws — the independence the RNG-stream tests pin.
    latency_seed: int = 0
    execution_seed: int = 0
    fault_seed: int = 0

    def __post_init__(self) -> None:
        for name, value in self.payload().items():
            kind = int if name in _INTEGER_FIELDS else (int, float)
            # bool is an int subclass, and NaN passes every range check
            # below.
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not math.isfinite(value)):
                raise ConfigurationError(
                    f"{name} must be a finite "
                    f"{'integer' if kind is int else 'number'}, "
                    f"got {value!r}")
        if self.latency_sigma < 0.0:
            raise ConfigurationError("latency_sigma must be >= 0")
        if self.latency_jitter < 0.0:
            raise ConfigurationError("latency_jitter must be >= 0")
        if self.execution_sigma < 0.0:
            raise ConfigurationError("execution_sigma must be >= 0")
        if not 0.0 <= self.load_failure_rate <= 1.0:
            raise ConfigurationError(
                "load_failure_rate must lie in [0, 1], got "
                f"{self.load_failure_rate!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if not 0.0 < self.failure_detection_fraction <= 1.0:
            raise ConfigurationError(
                "failure_detection_fraction must lie in (0, 1]"
            )

    @property
    def is_null(self) -> bool:
        """True when this config perturbs nothing (seed-identical world)."""
        return (self.latency_sigma == 0.0
                and self.latency_jitter == 0.0
                and self.execution_sigma == 0.0
                and self.load_failure_rate == 0.0)

    @property
    def label(self) -> str:
        """Compact identifier used in sweep-point labels and tables."""
        if self.is_null:
            return "noise[off]"
        parts = []
        if self.latency_sigma:
            parts.append(f"lat={self.latency_sigma:g}")
        if self.latency_jitter:
            parts.append(f"jit={self.latency_jitter:g}")
        if self.execution_sigma:
            parts.append(f"exec={self.execution_sigma:g}")
        if self.load_failure_rate:
            parts.append(f"fail={self.load_failure_rate:g}")
        return f"noise[{','.join(parts)}]"

    def payload(self) -> Dict[str, object]:
        """Canonical JSON-serializable form (sweep cache keys)."""
        return {
            "latency_sigma": self.latency_sigma,
            "latency_jitter": self.latency_jitter,
            "execution_sigma": self.execution_sigma,
            "load_failure_rate": self.load_failure_rate,
            "max_retries": self.max_retries,
            "failure_detection_fraction": self.failure_detection_fraction,
            "latency_seed": self.latency_seed,
            "execution_seed": self.execution_seed,
            "fault_seed": self.fault_seed,
        }

    @classmethod
    def from_payload(cls, data: Mapping[str, object]) -> "PerturbationConfig":
        """Inverse of :meth:`payload`."""
        return cls(**dict(data))


class NoiseModel:
    """Three independent, seed-deterministic perturbation streams."""

    def __init__(self, config: PerturbationConfig, seed: int) -> None:
        self.config = config
        # Seeding each stream from a distinct string keeps them independent:
        # advancing or re-seeding one stream never shifts the others.
        self._latency = random.Random(f"{seed}:latency:{config.latency_seed}")
        self._execution = random.Random(
            f"{seed}:execution:{config.execution_seed}"
        )
        self._fault = random.Random(f"{seed}:fault:{config.fault_seed}")

    # ------------------------------------------------------------------ #
    def realized_latency(self, base: float) -> float:
        """One load attempt's realized duration."""
        value = base
        sigma = self.config.latency_sigma
        if sigma > 0.0:
            value *= self._latency.lognormvariate(-0.5 * sigma * sigma, sigma)
        if self.config.latency_jitter > 0.0:
            value += self._latency.uniform(0.0, self.config.latency_jitter)
        return value

    def realized_duration(self, base: float) -> float:
        """One subtask's realized execution time."""
        sigma = self.config.execution_sigma
        if sigma <= 0.0 or base <= 0.0:
            return base
        return base * self._execution.lognormvariate(-0.5 * sigma * sigma,
                                                     sigma)

    def draw_load_failure(self) -> bool:
        """Whether the next load attempt fails mid-flight."""
        rate = self.config.load_failure_rate
        if rate <= 0.0:
            return False
        return self._fault.random() < rate


# ---------------------------------------------------------------------- #
# Planned execution, as handed over by the approaches
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TaskPlan:
    """The perturbation layer's view of one planned task execution.

    Every approach attaches one of these to its
    :class:`~repro.sim.approaches.TaskOutcome`; :func:`realize_task`
    re-times exactly this plan under noise (planning is untouched — the
    whole point is that plans are made from estimates).  ``timed`` is the
    planned replay, read by subtask id; its loads are the committed port
    order.  ``initialization`` holds the hybrid's initialization loads,
    loaded back to back before the design schedule is released;
    ``on_demand`` marks the no-prefetch baseline, whose loads wait until
    their subtask is otherwise ready.
    """

    placed: PlacedSchedule
    tile_binding: Mapping[ResourceId, int]
    reused: frozenset
    timed: TimedSchedule
    initialization: Tuple[LoadEntry, ...] = ()
    intertask_loads: Tuple[PlannedPrefetch, ...] = ()
    on_demand: bool = False

    @property
    def loads(self) -> Tuple[LoadEntry, ...]:
        """Every in-task load in port order, the initialization first."""
        return self.initialization + self.timed.loads


@dataclass(frozen=True)
class RealizedLoad:
    """Realized fate of one inter-task prefetch load."""

    subtask: str
    configuration: str
    tile: int
    start: float
    finish: float
    failed_attempts: int = 0
    abandoned: bool = False


@dataclass(frozen=True)
class RealizedTask:
    """Realized timing of one task plan under a :class:`NoiseModel`.

    ``timed`` is the realized replay of the design schedule, read by id;
    ``load_finishes`` maps every in-task load's subtask id (the
    initialization's too) to its realized completion.
    """

    makespan: float
    controller_free: float
    timed: TimedSchedule
    load_finishes: Mapping[int, float]
    intertask: Tuple[RealizedLoad, ...]
    abandoned: Tuple[RealizedLoad, ...]
    loads_failed: int
    loads_retried: int


def _attempt_spans(model: NoiseModel, latency: float) -> List[float]:
    """Port spans of one in-task load's attempts, in draw order.

    A failed attempt holds the port until the failure is detected, then
    the load is re-issued immediately; attempts beyond ``max_retries``
    succeed deterministically (the golden-transfer fallback) — the
    termination guarantee.  The last span is the successful attempt.
    """
    config = model.config
    spans: List[float] = []
    while True:
        duration = model.realized_latency(latency)
        if len(spans) < config.max_retries and model.draw_load_failure():
            spans.append(duration * config.failure_detection_fraction)
        else:
            spans.append(duration)
            return spans


def realize_task(plan: TaskPlan, model: NoiseModel, latency: float,
                 release_time: float, controller_available: float
                 ) -> RealizedTask:
    """Re-time a planned task execution under the noise model.

    The plan's structure is kept verbatim — which subtasks load, where
    they are placed, the committed port order of the loads, the hybrid's
    initialization phase, on-demand loading — but every duration is
    redrawn and every load attempt may fail.  The re-timing is a replay
    of the committed order on :class:`~repro.scheduling.replay.ReplayState`
    with the drawn durations, so a null model returns the plan.  Draw
    order is deterministic: execution durations are drawn per subtask in
    name order, into a column indexed by subtask id; latency and fault
    draws follow the committed port order.
    """
    config = model.config
    core = plan.placed.core
    planned = plan.timed.columns
    # Without execution noise the kernel keeps the graph's estimates (a
    # planned finish - start can differ from them in the last bit).
    durations = None
    if config.execution_sigma > 0.0:
        starts, finishes = planned.starts, planned.finishes
        durations = [0.0] * core.total
        for sid in core.sorted_ids:
            durations[sid] = model.realized_duration(finishes[sid]
                                                     - starts[sid])

    loads_failed = 0
    load_finish: Dict[int, float] = {}
    # The initialization phase loads back to back from the port's release;
    # the design schedule is released once it completes.
    port_free = max(release_time, controller_available)
    index = core.index
    for entry in plan.initialization:
        spans = _attempt_spans(model, latency)
        loads_failed += len(spans) - 1
        for span in spans:
            port_free += span
        load_finish[index[entry.subtask]] = port_free
    names = core.names
    design = [names[lid] for lid in planned.load_ids]
    state = ReplayState.start(
        plan.placed, latency, design,
        on_demand=plan.on_demand,
        release_time=port_free if plan.initialization else release_time,
        controller_available=port_free,
        durations=durations,
    )
    for name in design:
        spans = _attempt_spans(model, latency)
        loads_failed += len(spans) - 1
        state.issue(name, spans)
    if not state.is_complete:
        raise SchedulingError(
            f"the planned loads of graph {plan.placed.graph.name!r} leave "
            "subtasks waiting for a load that is never issued"
        )
    timed = state.finish()
    realized = timed.columns
    load_finish.update(zip(realized.load_ids, realized.load_finishes))
    # Every failed in-task attempt was retried.
    loads_retried = loads_failed
    port_free = state.controller_time
    makespan = timed.makespan

    # Realized release of every physical tile the task used (inter-task
    # prefetches must wait for the tile's last subtask to finish).
    tile_release: Dict[int, float] = {}
    tile_last = core.tile_last
    for logical, physical in plan.tile_binding.items():
        last = tile_last.get(logical)
        if last is not None:
            tile_release[physical] = realized.finishes[last]

    intertask: List[RealizedLoad] = []
    abandoned: List[RealizedLoad] = []
    for planned in plan.intertask_loads:
        available = tile_release.get(planned.tile, release_time)
        start = max(port_free, available)
        first_start = start
        attempt = 0
        finish = start
        aborted = False
        while True:
            if start >= makespan:
                # The idle tail is gone: the next task is about to take
                # over the port, so the prefetch is abandoned.
                aborted = True
                finish = min(start, makespan)
                break
            if attempt > 0:
                loads_retried += 1
            duration = model.realized_latency(latency)
            if attempt < config.max_retries and model.draw_load_failure():
                start += duration * config.failure_detection_fraction
                loads_failed += 1
                attempt += 1
                continue
            if attempt >= config.max_retries and model.draw_load_failure():
                # Retries exhausted mid-flight: give up instead of
                # escalating — a prefetch is optional work.
                loads_failed += 1
                aborted = True
                finish = min(start + duration
                             * config.failure_detection_fraction, makespan)
                break
            finish = start + duration
            if finish > makespan:
                # The load would overrun into the next task; it is
                # cancelled at task end and the port reclaimed.
                aborted = True
                finish = makespan
            break
        realized = RealizedLoad(
            subtask=planned.subtask,
            configuration=planned.configuration,
            tile=planned.tile,
            start=first_start,
            finish=finish,
            failed_attempts=attempt,
            abandoned=aborted,
        )
        port_free = max(port_free, finish)
        if aborted:
            abandoned.append(realized)
        else:
            intertask.append(realized)

    return RealizedTask(
        makespan=makespan,
        controller_free=max(port_free, controller_available),
        timed=timed,
        load_finishes=load_finish,
        intertask=tuple(intertask),
        abandoned=tuple(abandoned),
        loads_failed=loads_failed,
        loads_retried=loads_retried,
    )


def apply_realization(state, plan: TaskPlan, realized: RealizedTask) -> None:
    """Overwrite the planned state mutations with the realized timing.

    The approach already applied the *planned* execution to ``state``
    (tile contents and counters are timing-independent, so they are
    already correct); this fixes the clock-bearing fields — tile busy /
    loaded / last-used times, the port availability — and settles the fate
    of every inter-task prefetch: surviving loads get their realized
    completion times, abandoned ones invalidate their tile (the aborted
    write leaves no usable configuration behind).
    """
    core = plan.placed.core
    tile_last, names = core.tile_last, core.names
    columns = realized.timed.columns
    starts, finishes = columns.starts, columns.finishes
    for logical, physical in plan.tile_binding.items():
        last = tile_last.get(logical)
        if last is None:
            continue
        tile = state.tiles[physical]
        start = starts[last]
        tile.busy_until = finishes[last]
        tile.last_used_at = start
        if names[last] not in plan.reused:
            tile.loaded_at = realized.load_finishes.get(last, start)
    for load in realized.intertask:
        tile = state.tiles[load.tile]
        tile.loaded_at = load.finish
        tile.last_used_at = load.finish
    for load in realized.abandoned:
        state.tiles[load.tile].invalidate()
    state.controller_free = realized.controller_free
