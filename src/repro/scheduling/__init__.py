"""Schedulers: initial placement, schedule replay and prefetch scheduling."""

from .base import (
    PrefetchProblem,
    PrefetchResult,
    PrefetchScheduler,
    SchedulerStats,
)
from .evaluator import needed_loads, replay_schedule
from .list_scheduler import ListScheduler, build_initial_schedule
from .noprefetch import OnDemandScheduler
from .pool import SchedulerPool, process_scheduler_pool
from .prefetch_bb import (
    BranchAndBoundScheduler,
    DEFAULT_EXACT_LIMIT,
    OptimalPrefetchScheduler,
)
from .prefetch_list import ListPrefetchScheduler
from .replay import ReplayState, priority_rank
from .ttstore import TTSTORE_FORMAT_VERSION, TableContext, TranspositionStore
from .schedule import (
    ExecutionEntry,
    LoadEntry,
    PlacedSchedule,
    PlacedSubtask,
    ResourceId,
    ResourceKind,
    StartConstraint,
    TIME_EPSILON,
    TimedSchedule,
    isp_resource,
    tile_resource,
)

__all__ = [
    "BranchAndBoundScheduler",
    "DEFAULT_EXACT_LIMIT",
    "ExecutionEntry",
    "ListPrefetchScheduler",
    "ListScheduler",
    "LoadEntry",
    "OnDemandScheduler",
    "OptimalPrefetchScheduler",
    "PlacedSchedule",
    "PlacedSubtask",
    "PrefetchProblem",
    "PrefetchResult",
    "PrefetchScheduler",
    "ReplayState",
    "ResourceId",
    "ResourceKind",
    "SchedulerPool",
    "SchedulerStats",
    "StartConstraint",
    "TIME_EPSILON",
    "TTSTORE_FORMAT_VERSION",
    "TableContext",
    "TimedSchedule",
    "TranspositionStore",
    "build_initial_schedule",
    "isp_resource",
    "needed_loads",
    "priority_rank",
    "process_scheduler_pool",
    "replay_schedule",
    "tile_resource",
]
