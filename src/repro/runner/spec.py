"""Declarative sweep specifications.

A sweep is the cross product **workloads x approaches x tile counts x
perturbations x seeds** under one set of
:class:`~repro.sim.simulator.SimulationConfig` overrides — the shape of every headline experiment of the paper (Figures
6/7, Table 1's aggregates, the ablations).  :class:`SweepSpec` describes
that grid declaratively; :meth:`SweepSpec.expand` turns it into a
deterministic, ordered list of :class:`SweepPoint` objects that the
:class:`~repro.runner.engine.SweepEngine` can execute in any order (and on
any number of worker processes) without changing the results.

Workloads and approaches are referenced *by name* plus a frozen mapping of
scalar options, not by live objects: a point must be picklable, hashable
and stable so it can cross a process boundary and serve as a cache key.
Workload names resolve through the unified registry of
:mod:`repro.workloads.registry` (worker processes re-resolve them after
importing the package afresh); approaches resolve through
:data:`repro.sim.approaches.APPROACHES` and replacement policies through
:data:`repro.reuse.replacement.REPLACEMENT_POLICIES`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..jsonio import dumps_canonical
from ..reuse.replacement import ReplacementPolicy, make_replacement_policy
from ..sim.noise import PerturbationConfig
from ..sim.simulator import SimulationConfig
from ..workloads import registry as workload_registry
from ..workloads.base import Workload

#: Frozen, order-independent representation of scalar keyword options.
Options = Tuple[Tuple[str, object], ...]

#: Bump when the meaning of a point (and therefore of a cache key) changes.
SPEC_FORMAT_VERSION = 1

#: Constructor signatures, memoized: services build a spec per request.
_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _freeze_options(options: Mapping[str, object]) -> Options:
    """Normalize keyword options into a sorted tuple of scalar pairs."""
    frozen: List[Tuple[str, object]] = []
    for key in sorted(options):
        value = options[key]
        if not isinstance(value, (str, int, float, bool, type(None))):
            raise ConfigurationError(
                f"sweep option {key!r} must be a scalar "
                f"(str/int/float/bool/None), got {type(value).__name__}"
            )
        frozen.append((key, value))
    return tuple(frozen)


def _label(name: str, options: Options, extra: str = "") -> str:
    """Human-readable identifier of a name + options combination."""
    parts = [f"{key}={value}" for key, value in options]
    if extra:
        parts.append(extra)
    if not parts:
        return name
    return f"{name}[{','.join(parts)}]"


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload referenced by registry name plus constructor options."""

    name: str
    options: Options = ()

    @classmethod
    def of(cls, workload: Union[str, "WorkloadSpec"],
           **options) -> "WorkloadSpec":
        """Coerce a name (plus options) or an existing spec into a spec."""
        if isinstance(workload, WorkloadSpec):
            if options:
                raise ConfigurationError(
                    "cannot combine an existing WorkloadSpec with extra "
                    "options"
                )
            return workload
        return cls(name=workload, options=_freeze_options(options))

    def __post_init__(self) -> None:
        if not workload_registry.has_workload(self.name):
            raise ConfigurationError(
                f"unknown workload {self.name!r}; available: "
                f"{workload_registry.workload_names()}"
            )
        # Families registered with an options schema fail fast here —
        # before a bad option name or type can become a cache key or
        # reach a worker process.
        workload_registry.validate_options(self.name, dict(self.options))

    @property
    def label(self) -> str:
        """Identifier used in result tables and progress reports."""
        return _label(self.name, self.options)

    def build(self) -> Workload:
        """Instantiate the workload (in whatever process this runs in)."""
        return workload_registry.build_workload(self.name,
                                                **dict(self.options))


def workload_spec_for(workload: Workload) -> Optional[WorkloadSpec]:
    """Reconstruct the spec of a live workload instance, if representable.

    The registry round-trip: an exact instance of a registered family's
    class reports its constructor options through
    :meth:`~repro.workloads.base.Workload.spec_options`, and those become
    the spec (and therefore the cache key).  Subclasses — which may
    override behaviour the options cannot name — and unregistered classes
    return ``None``.
    """
    resolved = workload_registry.spec_for_instance(workload)
    if resolved is None:
        return None
    name, options = resolved
    return WorkloadSpec.of(name, **options)


@dataclass(frozen=True)
class ApproachSpec:
    """A scheduling approach referenced by registry name plus options.

    ``replacement`` optionally names the replacement policy the simulator's
    reuse module should use (the replacement-policy ablation sweeps it);
    ``None`` keeps the simulator default.
    """

    name: str
    options: Options = ()
    replacement: Optional[str] = None

    @classmethod
    def of(cls, approach: Union[str, "ApproachSpec"],
           replacement: Optional[str] = None, **options) -> "ApproachSpec":
        """Coerce a name (plus options) or an existing spec into a spec."""
        if isinstance(approach, ApproachSpec):
            if options or replacement is not None:
                raise ConfigurationError(
                    "cannot combine an existing ApproachSpec with extra "
                    "options"
                )
            return approach
        return cls(name=approach, options=_freeze_options(options),
                   replacement=replacement)

    def __post_init__(self) -> None:
        from ..sim.approaches import APPROACHES  # deferred: avoids cycle
        if self.name not in APPROACHES:
            raise ConfigurationError(
                f"unknown scheduling approach {self.name!r}; available: "
                f"{sorted(APPROACHES)}"
            )
        # Options the constructor does not take fail here, before the
        # spec can become a cache key or reach a worker process.
        try:
            _signature(APPROACHES[self.name]).bind(**dict(self.options))
        except TypeError as exc:
            raise ConfigurationError(
                f"bad options for approach {self.name!r}: {exc}"
            ) from None

    @property
    def label(self) -> str:
        """Identifier used in result tables; plain name when unmodified."""
        extra = f"replacement={self.replacement}" if self.replacement else ""
        return _label(self.name, self.options, extra)

    def build(self):
        """Instantiate a fresh approach object."""
        from ..sim.approaches import APPROACHES  # deferred: avoids cycle
        return APPROACHES[self.name](**dict(self.options))

    def build_replacement(self) -> Optional[ReplacementPolicy]:
        """Instantiate the requested replacement policy (or ``None``)."""
        if self.replacement is None:
            return None
        return make_replacement_policy(self.replacement)


@dataclass(frozen=True)
class SweepPoint:
    """One fully specified simulation run of a sweep.

    A point carries everything a worker process needs to reproduce the run
    bit-for-bit: the workload and approach specs, the platform size and the
    :class:`SimulationConfig` fields.  Its :meth:`cache_key` is a stable
    content hash over exactly those ingredients, so any change to any of
    them yields a different key.
    """

    workload: WorkloadSpec
    approach: ApproachSpec
    tile_count: int
    seed: int
    iterations: int
    point_selection: str = "fastest"
    deadline: Optional[float] = None
    keep_state_between_iterations: bool = True
    configuration_fault_rate: float = 0.0
    perturbation: Optional[PerturbationConfig] = None

    def __post_init__(self) -> None:
        # A null perturbation realizes every plan unchanged, so it is
        # normalized to None here — the two spellings share one cache key
        # and the point skips a realization that cannot change anything.
        if self.perturbation is not None and self.perturbation.is_null:
            object.__setattr__(self, "perturbation", None)

    def config(self) -> SimulationConfig:
        """The simulation configuration of this point."""
        return SimulationConfig(
            iterations=self.iterations,
            seed=self.seed,
            point_selection=self.point_selection,
            deadline=self.deadline,
            keep_state_between_iterations=self.keep_state_between_iterations,
            configuration_fault_rate=self.configuration_fault_rate,
            perturbation=self.perturbation,
        )

    @property
    def group_key(self) -> Tuple[WorkloadSpec, int]:
        """Points sharing this key share one design-time exploration.

        The TCM exploration depends only on the workload's task set and the
        platform, so every approach/seed/config combination at the same
        (workload, tile count) reuses a single
        :class:`~repro.tcm.design_time.TcmDesignTimeResult`.
        """
        return (self.workload, self.tile_count)

    def payload(self) -> Dict[str, object]:
        """Canonical JSON-serializable description of the point."""
        payload: Dict[str, object] = {
            "format": SPEC_FORMAT_VERSION,
            "workload": {"name": self.workload.name,
                         "options": [list(pair)
                                     for pair in self.workload.options]},
            "approach": {"name": self.approach.name,
                         "options": [list(pair)
                                     for pair in self.approach.options],
                         "replacement": self.approach.replacement},
            "tile_count": self.tile_count,
            "seed": self.seed,
            "iterations": self.iterations,
            "point_selection": self.point_selection,
            "deadline": self.deadline,
            "keep_state_between_iterations":
                self.keep_state_between_iterations,
            "configuration_fault_rate": self.configuration_fault_rate,
        }
        # Only a non-null perturbation enters the payload: noise-free points
        # keep their pre-stochastic-layer cache keys (and cached results).
        if self.perturbation is not None:
            payload["perturbation"] = self.perturbation.payload()
        return payload

    def cache_key(self) -> str:
        """Stable content hash identifying this point's result."""
        canonical = dumps_canonical(self.payload())
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short description used in logs and error messages."""
        base = (f"{self.workload.label}/{self.approach.label}"
                f"@{self.tile_count}t seed={self.seed}")
        if self.perturbation is not None:
            base += f" {self.perturbation.label}"
        return base


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a whole sweep grid.

    ``workloads`` and ``approaches`` accept plain registry names, which are
    normalized to :class:`WorkloadSpec`/:class:`ApproachSpec`;
    ``tile_counts``, ``perturbations`` and ``seeds`` are swept as full
    cross products (``perturbations`` defaults to the single noise-free
    run; null configs normalize to ``None``).  Every axis is deduplicated
    order-preservingly, so a repeated entry never inflates ``point_count``
    or the executed grid.  The remaining fields are shared
    :class:`SimulationConfig` overrides.
    """

    workloads: Tuple[WorkloadSpec, ...]
    approaches: Tuple[ApproachSpec, ...]
    tile_counts: Tuple[int, ...]
    seeds: Tuple[int, ...] = (2005,)
    iterations: int = 300
    point_selection: str = "fastest"
    deadline: Optional[float] = None
    keep_state_between_iterations: bool = True
    configuration_fault_rate: float = 0.0
    perturbations: Tuple[Optional[PerturbationConfig], ...] = (None,)

    def __post_init__(self) -> None:
        # Duplicate grid entries (a repeated seed, a tile count listed
        # twice, `range(...)` glued to an explicit list) used to inflate
        # `point_count` and the executed grid silently; a sweep axis is a
        # set swept in first-seen order, so deduplicate order-preservingly.
        object.__setattr__(self, "workloads", tuple(dict.fromkeys(
            WorkloadSpec.of(workload) for workload in self.workloads
        )))
        object.__setattr__(self, "approaches", tuple(dict.fromkeys(
            ApproachSpec.of(approach) for approach in self.approaches
        )))
        object.__setattr__(self, "tile_counts",
                           tuple(dict.fromkeys(self.tile_counts)))
        object.__setattr__(self, "seeds", tuple(dict.fromkeys(self.seeds)))
        for perturbation in self.perturbations:
            if (perturbation is not None
                    and not isinstance(perturbation, PerturbationConfig)):
                raise ConfigurationError(
                    "perturbations entries must be PerturbationConfig or "
                    f"None, got {type(perturbation).__name__}"
                )
        # Null configs are the noise-free run; fold them into None before
        # deduplicating so the axis never runs the same point twice.
        object.__setattr__(self, "perturbations", tuple(dict.fromkeys(
            None if p is not None and p.is_null else p
            for p in self.perturbations
        )))
        if not self.perturbations:
            raise ConfigurationError(
                "a sweep needs at least one perturbations entry "
                "(use (None,) for the noise-free run)"
            )
        if not self.workloads:
            raise ConfigurationError("a sweep needs at least one workload")
        if not self.approaches:
            raise ConfigurationError("a sweep needs at least one approach")
        if not self.tile_counts:
            raise ConfigurationError("a sweep needs at least one tile count")
        if not self.seeds:
            raise ConfigurationError("a sweep needs at least one seed")
        for tiles in self.tile_counts:
            if not isinstance(tiles, int) or tiles < 1:
                raise ConfigurationError(
                    f"tile counts must be positive integers, got {tiles!r}"
                )
        # Validate the config fields eagerly (fail before any work starts).
        SimulationConfig(
            iterations=self.iterations,
            seed=self.seeds[0],
            point_selection=self.point_selection,
            deadline=self.deadline,
            keep_state_between_iterations=self.keep_state_between_iterations,
            configuration_fault_rate=self.configuration_fault_rate,
        )

    @property
    def point_count(self) -> int:
        """Number of points the spec expands into."""
        return (len(self.workloads) * len(self.approaches)
                * len(self.tile_counts) * len(self.perturbations)
                * len(self.seeds))

    def expand(self) -> List[SweepPoint]:
        """Expand the grid into points, in deterministic order.

        The order (workload, approach, tile count, perturbation, seed —
        slowest to fastest varying) is part of the contract: results are
        reported in expansion order no matter how execution was scheduled.
        """
        points: List[SweepPoint] = []
        for workload in self.workloads:
            for approach in self.approaches:
                for tile_count in self.tile_counts:
                    for perturbation in self.perturbations:
                        for seed in self.seeds:
                            points.append(SweepPoint(
                                workload=workload,
                                approach=approach,
                                tile_count=tile_count,
                                seed=seed,
                                iterations=self.iterations,
                                point_selection=self.point_selection,
                                deadline=self.deadline,
                                keep_state_between_iterations=
                                    self.keep_state_between_iterations,
                                configuration_fault_rate=
                                    self.configuration_fault_rate,
                                perturbation=perturbation,
                            ))
        return points
