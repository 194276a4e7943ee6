"""Platform descriptions.

A :class:`Platform` bundles everything the schedulers and the system
simulator need to know about the hardware: how many DRHW tiles exist, how
long one partial reconfiguration takes, how many ISPs are available and
a simple energy model.

The reference platform of the paper is an ICN-enabled Virtex-II FPGA whose
tiles take 4 ms to reconfigure; coarse-grain arrays with much smaller
reconfiguration latencies are also discussed, so the latency is a free
parameter here.  Inter-tile communication is free, as in the paper's
evaluation: the platform has no network latency model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List

from ..errors import PlatformError
from .tile import TileState

#: Reconfiguration latency (ms) of one tile of the paper's Virtex-II platform.
DEFAULT_RECONFIGURATION_LATENCY_MS = 4.0


@dataclass(frozen=True)
class EnergyModel:
    """Linear energy model used for the TCM Pareto curves.

    Energy of one task execution =
    ``load_energy * loads + execution_energy_per_ms * busy_time +
    idle_energy_per_ms * idle_tile_time``.

    The absolute values are arbitrary units; only relative comparisons (more
    loads cost more energy, reuse saves energy) matter for the reproduction.
    """

    load_energy: float = 10.0
    execution_energy_per_ms: float = 1.0
    idle_energy_per_ms: float = 0.05

    def __post_init__(self) -> None:
        if min(self.load_energy, self.execution_energy_per_ms,
               self.idle_energy_per_ms) < 0:
            raise PlatformError("energy model parameters must be non-negative")

    def task_energy(self, loads: int, busy_time: float,
                    idle_tile_time: float = 0.0) -> float:
        """Energy of one task execution under this model."""
        if loads < 0 or busy_time < 0 or idle_tile_time < 0:
            raise PlatformError("energy accounting inputs must be non-negative")
        return (self.load_energy * loads
                + self.execution_energy_per_ms * busy_time
                + self.idle_energy_per_ms * idle_tile_time)


@dataclass(frozen=True)
class Platform:
    """Static description of the reconfigurable platform.

    Parameters
    ----------
    tile_count:
        Number of identical DRHW tiles.
    reconfiguration_latency:
        Time (ms) to load one configuration onto one tile.
    isp_count:
        Number of embedded instruction-set processors (subtasks mapped to
        ISPs never require reconfiguration).
    energy:
        Energy model used by the TCM Pareto bookkeeping.
    name:
        Optional human-readable platform name.
    """

    tile_count: int
    reconfiguration_latency: float = DEFAULT_RECONFIGURATION_LATENCY_MS
    isp_count: int = 1
    energy: EnergyModel = field(default_factory=EnergyModel)
    name: str = "icn-fpga"

    def __post_init__(self) -> None:
        for name in ("tile_count", "reconfiguration_latency", "isp_count"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise PlatformError(f"{name} must be finite, got {value!r}")
        if self.tile_count <= 0:
            raise PlatformError(
                f"platform needs at least one DRHW tile, got {self.tile_count}"
            )
        if self.reconfiguration_latency < 0:
            raise PlatformError(
                "reconfiguration latency must be non-negative, got "
                f"{self.reconfiguration_latency}"
            )
        if self.isp_count < 0:
            raise PlatformError(
                f"isp_count must be non-negative, got {self.isp_count}"
            )

    def with_tiles(self, tile_count: int) -> "Platform":
        """Return a copy of this platform with a different tile count."""
        return replace(self, tile_count=tile_count)

    def with_latency(self, reconfiguration_latency: float) -> "Platform":
        """Return a copy with a different reconfiguration latency."""
        return replace(self, reconfiguration_latency=reconfiguration_latency)

    def new_tile_states(self) -> List[TileState]:
        """Create blank run-time state for every tile."""
        return [TileState(index=i) for i in range(self.tile_count)]


def virtex2_platform(tile_count: int = 8, isp_count: int = 1) -> Platform:
    """The paper's reference platform: Virtex-II tiles, 4 ms loads."""
    return Platform(tile_count=tile_count,
                    reconfiguration_latency=DEFAULT_RECONFIGURATION_LATENCY_MS,
                    isp_count=isp_count, name="virtex2-icn")


def coarse_grain_platform(tile_count: int = 8, isp_count: int = 1,
                          reconfiguration_latency: float = 0.5) -> Platform:
    """A coarse-grain reconfigurable array: much smaller load latency."""
    return Platform(tile_count=tile_count,
                    reconfiguration_latency=reconfiguration_latency,
                    isp_count=isp_count, name="coarse-grain-array")
