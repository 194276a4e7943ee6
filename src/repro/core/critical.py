"""Critical-subtask selection (design-time phase of the hybrid heuristic).

The Critical Subtask (CS) subset of a scheduled task graph is defined in
Section 5 of the paper as the minimal subset of DRHW subtasks with the
property that *if every CS member is reused and every other DRHW subtask is
loaded, the prefetch scheduler hides the latency of all those loads* — i.e.
the reconfiguration overhead becomes zero.

The selection procedure reproduces the pseudo-code of Figure 4::

    CS := {}
    while compute_penalty(CS) != 0:
        S  := subtasks that generate delays
        S1 := MAX_weight(S)
        add S1 to CS

``compute_penalty(CS)`` runs the prefetch scheduler assuming the CS members
are reused and everything else must be loaded; "subtasks that generate
delays" are the subtasks whose own configuration load was the binding
constraint of their (delayed) start time; the weight of a subtask is the
longest path from the start of its execution to the end of the graph (an
As-Late-As-Possible view), so critical-path subtasks are selected first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..graphs.analysis import subtask_weights, weight_ordered_subtasks
from ..scheduling.base import PrefetchProblem, PrefetchResult, PrefetchScheduler
from ..scheduling.prefetch_bb import OptimalPrefetchScheduler
from ..scheduling.schedule import PlacedSchedule, TIME_EPSILON

#: Overheads below this value (in ms) are treated as zero by the selection.
DEFAULT_PENALTY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class CriticalSelectionStep:
    """One iteration of the critical-subtask selection loop."""

    critical_so_far: Tuple[str, ...]
    overhead: float
    overhead_percent: float
    delay_generators: Tuple[str, ...]
    selected: Optional[str]


@dataclass(frozen=True)
class CriticalSubtaskResult:
    """Outcome of the design-time critical-subtask selection.

    Attributes
    ----------
    critical:
        The CS subset, in selection order.
    load_order:
        The CS subset ordered by decreasing weight — the order in which the
        run-time initialization phase loads the critical subtasks.
    weights:
        Weight of every subtask of the graph (used by the run-time phase and
        by weight-aware replacement).
    schedule:
        The final design-time prefetch schedule: CS members reused, all
        other DRHW subtasks loaded, zero reconfiguration overhead.
    steps:
        Per-iteration history of the selection loop (for reporting and
        tests).
    """

    placed: PlacedSchedule
    critical: Tuple[str, ...]
    load_order: Tuple[str, ...]
    weights: Dict[str, float]
    schedule: PrefetchResult
    steps: Tuple[CriticalSelectionStep, ...]

    @property
    def critical_set(self) -> frozenset:
        """The CS subset as a frozen set."""
        return frozenset(self.critical)

    @property
    def critical_fraction(self) -> float:
        """Share of the task's DRHW subtasks that are critical."""
        drhw = len(self.placed.drhw_names)
        if drhw == 0:
            return 0.0
        return len(self.critical) / drhw

    @property
    def iterations(self) -> int:
        """Number of penalty evaluations performed by the selection loop."""
        return len(self.steps)

    @cached_property
    def non_critical_loads(self) -> Tuple[str, ...]:
        """DRHW subtasks that the design-time schedule loads (non-CS), in
        the order the design-time prefetch schedule issues them: a
        design-time fact, read off the schedule's columns once."""
        timed = self.schedule.timed
        names = timed.placed.core.names
        return tuple(names[lid] for lid in timed.columns.load_ids)


#: Strategies for picking the next critical subtask among delay generators.
#: ``"max-weight"`` is the paper's choice; the others exist for ablations.
PICK_STRATEGIES = ("max-weight", "min-weight", "earliest")


class CriticalSubtaskSelector:
    """Runs the Figure-4 selection loop with a pluggable prefetch scheduler."""

    def __init__(self, scheduler: Optional[PrefetchScheduler] = None,
                 penalty_tolerance: float = DEFAULT_PENALTY_TOLERANCE,
                 pick: str = "max-weight") -> None:
        self.scheduler = scheduler or OptimalPrefetchScheduler()
        if penalty_tolerance < 0:
            raise SchedulingError("penalty tolerance must be non-negative")
        if pick not in PICK_STRATEGIES:
            raise SchedulingError(
                f"unknown pick strategy {pick!r}; expected one of "
                f"{PICK_STRATEGIES}"
            )
        self.penalty_tolerance = penalty_tolerance
        self.pick = pick

    def select(self, placed: PlacedSchedule,
               reconfiguration_latency: float) -> CriticalSubtaskResult:
        """Identify the critical subtasks of ``placed``.

        The loop terminates because each iteration adds one DRHW subtask to
        the CS subset, and once every DRHW subtask is critical there is no
        load left to delay anything.
        """
        graph = placed.graph
        weights = subtask_weights(graph)
        critical: List[str] = []
        steps: List[CriticalSelectionStep] = []
        drhw_names = set(placed.drhw_names)

        while True:
            problem = PrefetchProblem(
                placed=placed,
                reconfiguration_latency=reconfiguration_latency,
                reused=frozenset(critical),
            )
            result = self.scheduler.schedule(problem)
            overhead = result.overhead
            if overhead <= self.penalty_tolerance:
                steps.append(CriticalSelectionStep(
                    critical_so_far=tuple(critical),
                    overhead=overhead,
                    overhead_percent=result.overhead_percent,
                    delay_generators=(),
                    selected=None,
                ))
                load_order = tuple(weight_ordered_subtasks(graph, critical))
                return CriticalSubtaskResult(
                    placed=placed,
                    critical=tuple(critical),
                    load_order=load_order,
                    weights=weights,
                    schedule=result,
                    steps=tuple(steps),
                )

            selected = self._pick_delay_generator(result, critical, drhw_names,
                                                  weights, graph)
            steps.append(CriticalSelectionStep(
                critical_so_far=tuple(critical),
                overhead=overhead,
                overhead_percent=result.overhead_percent,
                delay_generators=tuple(result.delay_generating_subtasks()),
                selected=selected,
            ))
            critical.append(selected)

    # ------------------------------------------------------------------ #
    def _pick_delay_generator(self, result: PrefetchResult,
                              critical: Sequence[str],
                              drhw_names: set,
                              weights: Dict[str, float],
                              graph) -> str:
        """Choose the heaviest subtask whose load generated a delay."""
        already = set(critical)
        candidates = [name for name in result.delay_generating_subtasks()
                      if name not in already and name in drhw_names]
        if not candidates:
            # Defensive fallback: a positive overhead must be traceable to a
            # loaded subtask; if the binding-constraint bookkeeping did not
            # flag one (e.g. due to exact ties), fall back to any delayed
            # loaded subtask, then to any remaining loaded subtask.
            loaded = {entry.subtask for entry in result.timed.loads}
            delayed = [name for name in result.timed.delayed_subtasks()
                       if name in loaded and name not in already]
            candidates = delayed or [name for name in loaded
                                     if name not in already]
        if not candidates:
            raise SchedulingError(
                "critical-subtask selection cannot make progress: positive "
                "overhead remains but every DRHW subtask is already critical"
            )
        order_index = graph.core.index
        if self.pick == "min-weight":
            return min(candidates,
                       key=lambda n: (weights[n], order_index[n]))
        if self.pick == "earliest":
            placed = result.problem.placed
            return min(candidates,
                       key=lambda n: (placed.ideal_start(n), order_index[n]))
        return max(candidates,
                   key=lambda n: (weights[n], -order_index[n]))


def select_critical_subtasks(placed: PlacedSchedule,
                             reconfiguration_latency: float,
                             scheduler: Optional[PrefetchScheduler] = None
                             ) -> CriticalSubtaskResult:
    """Convenience wrapper around :class:`CriticalSubtaskSelector`."""
    selector = CriticalSubtaskSelector(scheduler=scheduler)
    return selector.select(placed, reconfiguration_latency)
