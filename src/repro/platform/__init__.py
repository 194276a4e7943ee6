"""Models of the reconfigurable platform (tiles, ICN, energy).

The single reconfiguration port has no model of its own: the replay
kernel, :mod:`repro.scheduling.replay`, times every load on it.
"""

from .description import (
    DEFAULT_RECONFIGURATION_LATENCY_MS,
    EnergyModel,
    Platform,
    coarse_grain_platform,
    virtex2_platform,
)
from .icn import IcnModel, IcnTopology, mesh_icn, zero_latency_icn
from .tile import TileState

__all__ = [
    "DEFAULT_RECONFIGURATION_LATENCY_MS",
    "EnergyModel",
    "IcnModel",
    "IcnTopology",
    "Platform",
    "TileState",
    "coarse_grain_platform",
    "mesh_icn",
    "virtex2_platform",
    "zero_latency_icn",
]
