"""Parallel sweep engine with cached design-time exploration.

The paper's headline results are sweeps — approach x tile count x workload
(Figures 6/7, Table 1) — and every one of them is embarrassingly parallel:
each point is an independent, seeded, deterministic simulation.  This
subsystem turns that observation into infrastructure:

* :class:`~repro.runner.spec.SweepSpec` /
  :class:`~repro.runner.spec.SweepPoint` — a declarative, picklable,
  content-hashable description of a sweep grid (workloads x approaches x
  tile counts x seeds x simulation-config overrides).
* :class:`~repro.runner.engine.SweepEngine` — executes the points on a
  :class:`concurrent.futures.ProcessPoolExecutor` (deterministic
  in-process fallback for ``max_workers=1``), sharing one TCM design-time
  exploration per (workload, platform) group instead of re-exploring per
  approach, and memoizing completed points through
  :class:`~repro.runner.cache.ResultCache`.
* :func:`~repro.runner.engine.parallel_map` — the ordered parallel-map
  primitive the non-simulation drivers (Table 1, hide-rate, scalability)
  fan out with.

The artifact driver :func:`repro.experiments.artifacts.run_artifact`
(one :class:`SweepSpec` per declared figure or study), the per-graph
studies (through :func:`parallel_map`), the ``--jobs``/``--cache-dir`` CLI
flags and the benchmark harness run through this engine; seed ensembles
(many ``seeds`` in one spec) and larger grids are one :class:`SweepSpec`
away.
"""

from .cache import (
    CACHE_FORMAT_VERSION,
    EXPLORATION_FORMAT_VERSION,
    ExplorationCache,
    GcReport,
    ResultCache,
    metrics_from_dict,
    metrics_to_dict,
)
from .claims import (
    DEFAULT_CLAIM_TTL,
    ClaimDirectory,
    ClaimHeartbeat,
    default_worker_id,
)
from .engine import (
    GroupClaim,
    SweepEngine,
    SweepOutcome,
    SweepResult,
    default_jobs,
    explore_platform,
    parallel_map,
    run_group,
)
from .ensemble import (
    EnsembleCell,
    EnsembleResult,
    SeedEnsemble,
    aggregate,
    t_quantile_95,
)
from .spec import (
    ApproachSpec,
    SweepPoint,
    SweepSpec,
    WorkloadSpec,
)
from .tracestream import (
    TraceStreamConfig,
    TraceStreamResult,
    TraceStreamStats,
    run_trace_stream,
    run_trace_stream_via_service,
    trace_points,
    trace_sweep_spec,
)

__all__ = [
    "ApproachSpec",
    "CACHE_FORMAT_VERSION",
    "ClaimDirectory",
    "ClaimHeartbeat",
    "DEFAULT_CLAIM_TTL",
    "EXPLORATION_FORMAT_VERSION",
    "EnsembleCell",
    "EnsembleResult",
    "ExplorationCache",
    "GcReport",
    "GroupClaim",
    "ResultCache",
    "SeedEnsemble",
    "SweepEngine",
    "SweepOutcome",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "TraceStreamConfig",
    "TraceStreamResult",
    "TraceStreamStats",
    "WorkloadSpec",
    "aggregate",
    "default_jobs",
    "default_worker_id",
    "explore_platform",
    "metrics_from_dict",
    "metrics_to_dict",
    "parallel_map",
    "run_group",
    "run_trace_stream",
    "run_trace_stream_via_service",
    "t_quantile_95",
    "trace_points",
    "trace_sweep_spec",
]
