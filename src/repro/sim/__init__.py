"""System simulation: approaches, shared state, metrics and traces."""

from .approaches import (
    APPROACHES,
    AdaptivePrefetchApproach,
    DesignTimePrefetchApproach,
    HybridApproach,
    NoPrefetchApproach,
    RunTimeApproach,
    RunTimeInterTaskApproach,
    SchedulingApproach,
    TaskContext,
    TaskOutcome,
    TaskSchedule,
    make_approach,
)
from .metrics import (
    IterationRecord,
    SimulationMetrics,
    TaskExecutionRecord,
    aggregate_metrics,
)
from .noise import (
    NoiseModel,
    PerturbationConfig,
    RealizedTask,
    TaskPlan,
    apply_realization,
    realize_task,
)
from .simulator import (
    SimulationConfig,
    SimulationResult,
    SystemSimulator,
    simulate,
)
from .state import SystemState
from .trace import SimulationTrace, render_gantt

__all__ = [
    "APPROACHES",
    "AdaptivePrefetchApproach",
    "DesignTimePrefetchApproach",
    "HybridApproach",
    "IterationRecord",
    "NoPrefetchApproach",
    "NoiseModel",
    "PerturbationConfig",
    "RealizedTask",
    "RunTimeApproach",
    "RunTimeInterTaskApproach",
    "SchedulingApproach",
    "SimulationConfig",
    "SimulationMetrics",
    "SimulationResult",
    "SimulationTrace",
    "SystemSimulator",
    "SystemState",
    "TaskContext",
    "TaskExecutionRecord",
    "TaskOutcome",
    "TaskPlan",
    "TaskSchedule",
    "aggregate_metrics",
    "apply_realization",
    "make_approach",
    "realize_task",
    "render_gantt",
    "simulate",
]
