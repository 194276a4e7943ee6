"""repro — hybrid prefetch scheduling for dynamically reconfigurable hardware.

Reproduction of J. Resano, D. Mozos and F. Catthoor, "A Hybrid Prefetch
Scheduling Heuristic to Minimize at Run-Time the Reconfiguration Overhead of
Dynamically Reconfigurable Hardware", DATE 2005.

The top-level package re-exports the most frequently used classes; the
subpackages contain the full API:

* :mod:`repro.graphs`     — subtask graphs, analyses, generators
* :mod:`repro.platform`   — platform description, tiles, energy model
* :mod:`repro.scheduling` — initial schedules and prefetch schedulers
* :mod:`repro.reuse`      — reuse identification and replacement policies
* :mod:`repro.core`       — the hybrid design-time/run-time heuristic
* :mod:`repro.tcm`        — the TCM-style scheduling environment
* :mod:`repro.sim`        — the system simulator and scheduling approaches
* :mod:`repro.workloads`  — the paper's benchmarks and synthetic workloads
* :mod:`repro.experiments`— every table and figure: the sweep-backed
  artifacts are declared once in :mod:`repro.experiments.artifacts` and
  run by one driver; the per-graph studies keep a module each
* :mod:`repro.runner`     — the parallel sweep engine: declarative
  workload x approach x tile x seed grids (:class:`repro.runner.SweepSpec`),
  process-pool execution with one shared TCM design-time exploration per
  (workload, platform), and a content-addressed result cache.  The
  artifact driver, the per-graph studies and the ``--jobs``/``--cache-dir``
  CLI flags run through it; parallel, sequential and cache-replayed runs
  are bit-identical.
"""

from .core.critical import CriticalSubtaskResult, select_critical_subtasks
from .core.hybrid import HybridExecution, HybridPrefetchHeuristic
from .core.store import DesignTimeEntry, DesignTimeStore
from .graphs.subtask import ResourceClass, Subtask
from .graphs.taskgraph import TaskGraph
from .platform.description import Platform, virtex2_platform
from .scheduling.base import PrefetchProblem, PrefetchResult
from .scheduling.list_scheduler import build_initial_schedule
from .scheduling.noprefetch import OnDemandScheduler
from .scheduling.prefetch_bb import OptimalPrefetchScheduler
from .scheduling.prefetch_list import ListPrefetchScheduler

__version__ = "1.0.0"

__all__ = [
    "CriticalSubtaskResult",
    "DesignTimeEntry",
    "DesignTimeStore",
    "HybridExecution",
    "HybridPrefetchHeuristic",
    "ListPrefetchScheduler",
    "OnDemandScheduler",
    "OptimalPrefetchScheduler",
    "Platform",
    "PrefetchProblem",
    "PrefetchResult",
    "ResourceClass",
    "Subtask",
    "TaskGraph",
    "build_initial_schedule",
    "select_critical_subtasks",
    "virtex2_platform",
    "__version__",
]
