"""Sweep-backed paper artifacts: each declared once, all run by one driver.

Every figure-like result of the evaluation is a sweep: a few approaches
simulated on one workload along one axis.  Each is an :class:`Artifact`
declaration (approaches with their row labels, axis, parameter defaults,
columns, title and note); :func:`run_artifact` runs any of them as one
:class:`~repro.runner.engine.SweepEngine` grid, and the
:class:`ArtifactResult` renders the declared table.  As with a chart of
prefetch_modeler (``Chart('Latency', io_latency)``), the artifact is data
and the renderer is shared.  The artifacts and the paper's numbers:

* :data:`FIGURE6` (Section 7): the four multimedia benchmarks in random
  mixes, 4 ms reconfiguration latency, 1000 iterations (300 by default
  here), 8..16 tiles.  No prefetch 23 %, an optimal design-time prefetch
  without reuse 7 %, the run-time heuristic of ref. [7] about 3 % at 8
  tiles, run-time plus inter-task and the hybrid heuristic at most 1.3 %
  (at least 95 % of the overhead hidden).
* :data:`FIGURE7` (Section 7): the Pocket GL 3D renderer, whose subtasks
  (5.7 ms on average) are as long as the 4 ms latency, on 5..10 tiles.
  Initial overhead 71 %, design-time 25 %, hybrid 5 % on five tiles and
  below 2 % on eight (at least 93 % hidden); 62 % of the subtasks are
  critical.  Its task sequence is one of 20 inter-task scenarios known at
  design time, so the design-time prefetch may cross task boundaries.
* :data:`LATENCY_SWEEP` (Section 4): coarse-grain arrays reconfigure much
  faster than FPGAs; from 0.5 to 8 ms, overhead and the critical-subtask
  fraction grow with the latency.
* :data:`ENERGY` (Section 6): cancelling the scheduled loads of reusable
  non-critical subtasks avoids "an unnecessary waste of energy"; loads,
  cancellations and energy per iteration at 12 tiles.
* :data:`ROBUSTNESS`: overhead under run-time noise (see
  :mod:`repro.experiments.robustness`), mean and 95 % Student-t interval
  over seeds; intensity 0 is the noise-free simulator.
* :data:`INTERTASK_ABLATION` and :data:`REPLACEMENT_ABLATION`: the hybrid
  with and without the Section 6 inter-task optimization, and under each
  registered replacement policy (LRU is the default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.hybrid import HybridPrefetchHeuristic
from ..errors import ConfigurationError
from ..platform.description import Platform
from ..reuse.replacement import REPLACEMENT_POLICIES
from ..runner import ApproachSpec, SweepEngine, SweepSpec, WorkloadSpec
from ..runner.ensemble import EnsembleCell, aggregate
from ..sim.metrics import SimulationMetrics
from ..tcm.design_time import TcmDesignTimeResult, TcmDesignTimeScheduler
from ..workloads.pocketgl import POCKETGL_REFERENCE
from .common import Series, format_table, series_from_mapping
from .robustness import (
    DEFAULT_APPROACHES,
    DEFAULT_NOISE_LEVELS,
    DEFAULT_SEEDS,
    noise_profile,
)

#: A table column: its header and the reader of a row's cell.  A row is an
#: (approach label, x) pair; rows of the ``tiles`` and ``latency`` axes
#: span every approach and carry no label.
Reader = Callable[["ArtifactResult", Optional[str], object], object]
Column = Tuple[str, Reader]


@dataclass(frozen=True)
class Artifact:
    """A sweep-backed paper artifact, declared as data.

    ``axis`` is what varies along the rows: ``"tiles"`` (one row per tile
    count), ``"latency"`` (one row per reconfiguration latency, a workload
    option, at ``tile_count``), ``"noise"`` (one row per approach and
    :func:`~repro.experiments.robustness.noise_profile` level at
    ``tile_count``) or ``"approach"`` (one row per approach at
    ``tile_count``).  ``title`` and ``note`` are :meth:`str.format`
    templates over ``workload``, ``tiles``, ``iterations`` and
    ``critical_fraction``.  ``critical_at`` measures the critical-subtask
    fraction outside the sweep, at the ``"last"`` or at ``"each"`` x.
    """

    title: str
    approaches: Tuple[Tuple[str, ApproachSpec], ...]
    columns: Tuple[Column, ...]
    axis: str = "tiles"
    workload: str = "multimedia"
    xs: Tuple = ()
    tile_count: int = 8
    iterations: int = 300
    seeds: Tuple[int, ...] = (2005,)
    note: str = ""
    critical_at: str = ""


@dataclass(frozen=True)
class ArtifactResult:
    """Every point's metrics of one artifact run, under (label, x)."""

    artifact: Artifact
    workload: str
    xs: Tuple
    approaches: Tuple[str, ...]
    tile_count: int
    iterations: int
    points: Dict[Tuple[str, object], List[SimulationMetrics]]
    critical_fraction: Dict[object, float]

    def value(self, label: str, x, metric: str = "overhead_percent"):
        """One metric of a one-seed artifact at (label, x)."""
        (metrics,) = self.points[(label, x)]
        return getattr(metrics, metric)

    def cell(self, label: str, x,
             metric: str = "overhead_percent") -> EnsembleCell:
        """Mean ± 95 % interval of one metric over the seeds at (label, x)."""
        return aggregate([float(getattr(metrics, metric))
                          for metrics in self.points[(label, x)]])

    def curve(self, label: str) -> Series:
        """One approach's (seed-mean) overhead along the axis, x-sorted."""
        return series_from_mapping(
            label, {x: self.cell(label, x).mean for x in self.xs})

    def hidden_fraction(self, label: str, x) -> float:
        """Share of the no-prefetch overhead ``label`` hides at ``x``."""
        (metrics,) = self.points[(label, x)]
        return metrics.hidden_fraction(
            self.value("no-prefetch", x, "total_overhead"))

    def format_table(self) -> str:
        """Render the declared columns, title and note."""
        artifact = self.artifact
        if artifact.axis in ("noise", "approach"):
            keys = [(label, x) for label in self.approaches for x in self.xs]
        else:
            keys = [(None, x) for x in self.xs]
        fields = dict(workload=self.workload, tiles=self.tile_count,
                      iterations=self.iterations,
                      critical_fraction=self.critical_fraction.get(
                          self.xs[-1]))
        table = format_table(
            [header for header, _ in artifact.columns],
            [[read(self, label, x) for _, read in artifact.columns]
             for label, x in keys],
            title=artifact.title.format(**fields),
        )
        if not artifact.note:
            return table
        return f"{table}\n{artifact.note.format(**fields)}"


def run_artifact(artifact: Artifact, engine: Optional[SweepEngine] = None,
                 *, xs: Optional[Sequence] = None,
                 tile_count: Optional[int] = None,
                 iterations: Optional[int] = None,
                 seeds: Optional[Sequence[int]] = None,
                 workload: Optional[str] = None,
                 approaches: Optional[Sequence[str]] = None
                 ) -> ArtifactResult:
    """Run ``artifact`` as one grid on ``engine`` (default: in-process).

    Each keyword overrides the declaration's default; ``approaches`` takes
    registry names, each its own row label.  The engine's ``max_workers``
    and cache leave every metric bit-identical.
    """
    tile_count = artifact.tile_count if tile_count is None else tile_count
    iterations = artifact.iterations if iterations is None else iterations
    workload = artifact.workload if workload is None else workload
    pairs = artifact.approaches if approaches is None else tuple(
        (approach.label, approach)
        for approach in map(ApproachSpec.of, approaches))
    pairs = tuple(dict.fromkeys(pairs))
    xs = artifact.xs if xs is None else xs
    if artifact.axis == "approach":
        xs = (tile_count,)
    elif artifact.axis == "noise":
        xs = map(float, xs)
    xs = tuple(dict.fromkeys(xs))
    if not xs:
        raise ConfigurationError(
            f"an artifact needs at least one {artifact.axis} value")

    # Where each x puts its points: (workload spec, tile count, noise).
    places = {}
    for x in xs:
        if artifact.axis == "latency":
            places[x] = (WorkloadSpec.of(workload, reconfiguration_latency=x),
                         tile_count, None)
        elif artifact.axis == "noise":
            places[x] = (WorkloadSpec.of(workload), tile_count,
                         noise_profile(x))
        else:
            places[x] = (WorkloadSpec.of(workload), x, None)
    workloads, tile_counts, perturbations = zip(*places.values())
    sweep = SweepSpec(workloads=workloads,
                      approaches=tuple(approach for _, approach in pairs),
                      tile_counts=tile_counts,
                      seeds=tuple(artifact.seeds if seeds is None else seeds),
                      iterations=iterations, perturbations=perturbations)
    x_at = {place: x for x, place in places.items()}
    label_of = {approach: label for label, approach in pairs}
    points: Dict[Tuple[str, object], List[SimulationMetrics]] = {}
    for outcome in (engine or SweepEngine()).run(sweep):
        point = outcome.point
        x = x_at[(point.workload, point.tile_count, point.perturbation)]
        points.setdefault((label_of[point.approach], x), []).append(
            outcome.metrics)

    measured = {"": (), "last": xs[-1:], "each": xs}[artifact.critical_at]
    fractions = {x: critical_fraction(*places[x][:2]) for x in measured}
    return ArtifactResult(
        artifact=artifact, workload=WorkloadSpec.of(workload).label, xs=xs,
        approaches=tuple(label for label, _ in pairs),
        tile_count=tile_count, iterations=iterations, points=points,
        critical_fraction=fractions,
    )


def critical_fraction(workload: Union[str, WorkloadSpec], tile_count: int,
                      design_result: Optional[TcmDesignTimeResult] = None,
                      **options) -> float:
    """Fraction of critical subtasks in the schedules the simulator runs.

    Only the fastest Pareto point of every scenario, spread over the full
    tile pool, counts.  ``options`` are the workload's registry options.
    A caller that already holds the exploration at ``tile_count`` passes
    it as ``design_result`` to skip exploring again.
    """
    built = WorkloadSpec.of(workload, **options).build()
    if design_result is None:
        platform = Platform(
            tile_count=tile_count,
            reconfiguration_latency=built.reconfiguration_latency,
        )
        design_result = TcmDesignTimeScheduler(platform).explore(
            built.task_set)
    schedules = []
    for (task_name, scenario_name), curve in sorted(
            design_result.curves.items()):
        fastest = curve.fastest()
        schedules.append((task_name, scenario_name, fastest.key,
                          fastest.placed))
    hybrid = HybridPrefetchHeuristic(built.reconfiguration_latency)
    return hybrid.build_store(schedules).critical_fraction()


# --------------------------------------------------------------------- #
# Column readers
# --------------------------------------------------------------------- #
def _x(result: ArtifactResult, label: Optional[str], x) -> object:
    return x


def _label(result: ArtifactResult, label: Optional[str], x) -> object:
    return label


def _metric(name: str = "overhead_percent", approach: Optional[str] = None,
            per_iteration: bool = False) -> Reader:
    """One metric of the row's approach (or of ``approach``) at x."""
    def read(result: ArtifactResult, label: Optional[str], x) -> object:
        value = result.value(approach or label, x, name)
        if per_iteration:
            value /= result.value(approach or label, x, "iterations")
        return value
    return read


def _mean(name: str, digits: int) -> Reader:
    """The seed mean of one metric, with ``digits`` decimals."""
    return lambda result, label, x: \
        f"{result.cell(label, x, name).mean:.{digits}f}"


def _plain(*names: str) -> Tuple[Tuple[str, ApproachSpec], ...]:
    """Unmodified approaches, each labelled by its registry name."""
    return tuple((name, ApproachSpec(name)) for name in names)


# --------------------------------------------------------------------- #
# The declarations
# --------------------------------------------------------------------- #
_FIGURE_COLUMNS: Tuple[Column, ...] = (("tiles", _x),) + tuple(
    (name, _metric(approach=name))
    for name in ("run-time", "run-time+inter-task", "hybrid",
                 "no-prefetch", "design-time"))

FIGURE6 = Artifact(
    title="Figure 6 — reconfiguration overhead (%) vs number of DRHW "
          "tiles (multimedia mix)",
    approaches=_plain("no-prefetch", "design-time", "run-time",
                      "run-time+inter-task", "hybrid"),
    columns=_FIGURE_COLUMNS,
    xs=tuple(range(8, 17)),
    note="paper: no-prefetch 23%, design-time 7%, run-time ~3% @8 tiles, "
         "hybrid and run-time+inter-task <= 1.3% (>= 95% hidden)",
)

FIGURE7 = Artifact(
    title="Figure 7 — reconfiguration overhead (%) vs number of DRHW "
          "tiles (Pocket GL 3D rendering)",
    approaches=(("no-prefetch", ApproachSpec("no-prefetch")),
                ("design-time",
                 ApproachSpec.of("design-time", static_intertask=True)),
                ) + _plain("run-time", "run-time+inter-task", "hybrid"),
    columns=_FIGURE_COLUMNS,
    workload="pocketgl",
    xs=tuple(range(5, 11)),
    note="measured critical-subtask fraction: {critical_fraction:.2f} "
         f"(paper: {POCKETGL_REFERENCE['critical_fraction']:.2f}); paper "
         "overheads: initial 71%, design-time 25%, hybrid 5% @5 tiles and "
         "<2% @8 tiles",
    critical_at="last",
)

LATENCY_SWEEP = Artifact(
    title="Overhead vs reconfiguration latency (multimedia mix, {tiles} "
          "tiles, {iterations} iterations)",
    approaches=_plain("no-prefetch", "run-time", "hybrid"),
    columns=(("latency (ms)", _x),
             ("no-prefetch (%)", _metric(approach="no-prefetch")),
             ("run-time (%)", _metric(approach="run-time")),
             ("hybrid (%)", _metric(approach="hybrid")),
             ("critical fraction",
              lambda result, label, x: result.critical_fraction[x])),
    axis="latency",
    xs=(0.5, 1.0, 2.0, 4.0, 8.0),
    iterations=150,
    note="smaller latencies (coarse-grain arrays) shrink both the overhead "
         "and the critical-subtask fraction; larger latencies make active "
         "prefetch scheduling indispensable",
    critical_at="each",
)

ENERGY = Artifact(
    title="Energy impact of reuse and load cancellation ({tiles} tiles, "
          "{iterations} iterations)",
    approaches=_plain("no-prefetch", "design-time", "run-time", "hybrid"),
    columns=(("approach", _label),
             ("loads/iteration", _metric("total_loads", per_iteration=True)),
             ("cancelled/iteration",
              _metric("total_cancelled", per_iteration=True)),
             ("reuse rate", _metric("reuse_rate")),
             ("energy/iteration",
              _metric("total_energy", per_iteration=True)),
             ("overhead (%)", _metric())),
    axis="approach",
    tile_count=12,
    iterations=200,
    note="reusing configurations and cancelling their scheduled loads "
         "reduces both the reconfiguration energy and the overhead; the "
         "design-time baseline cannot reuse by construction",
)

ROBUSTNESS = Artifact(
    title="Robustness — overhead vs noise intensity ({workload}, {tiles} "
          "tiles, {iterations} iterations)",
    approaches=_plain(*DEFAULT_APPROACHES),
    columns=(("approach", _label),
             ("noise", lambda result, label, x: f"{x:.2f}"),
             ("overhead (%)", _mean("overhead_percent", 3)),
             ("95% CI", lambda result, label, x:
              f"±{result.cell(label, x).ci_half_width:.3f}"),
             ("failed loads", _mean("total_loads_failed", 1)),
             ("abandoned", _mean("total_prefetches_abandoned", 1)),
             ("fault reloads", _mean("total_fault_reloads", 1)),
             ("seeds", lambda result, label, x: result.cell(label, x).count)),
    axis="noise",
    xs=DEFAULT_NOISE_LEVELS,
    iterations=60,
    seeds=DEFAULT_SEEDS,
    note="intensity 0 is the noise-free simulator; failed/abandoned/"
         "fault-reload columns decompose the extra work the noise injected "
         "(per-run means)",
)

INTERTASK_ABLATION = Artifact(
    title="Ablation — inter-task optimization ({tiles} tiles, "
          "{iterations} iterations)",
    approaches=(
        ("hybrid with inter-task prefetch",
         ApproachSpec.of("hybrid", use_intertask=True)),
        ("hybrid without inter-task prefetch",
         ApproachSpec.of("hybrid", use_intertask=False)),
    ),
    columns=(("configuration", _label), ("overhead (%)", _metric())),
    axis="approach",
    iterations=200,
)

REPLACEMENT_ABLATION = Artifact(
    title="Ablation — replacement policy ({tiles} tiles, {iterations} "
          "iterations)",
    approaches=tuple((name, ApproachSpec.of("hybrid", replacement=name))
                     for name in sorted(REPLACEMENT_POLICIES)),
    columns=(("policy", _label), ("overhead (%)", _metric()),
             ("reuse rate", _metric("reuse_rate"))),
    axis="approach",
    iterations=200,
)
