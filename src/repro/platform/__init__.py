"""Models of the reconfigurable platform (tiles and energy).

The single reconfiguration port has no model of its own: the replay
kernel, :mod:`repro.scheduling.replay`, times every load on it.
Inter-tile communication is free, as in the paper's evaluation.
"""

from .description import (
    DEFAULT_RECONFIGURATION_LATENCY_MS,
    EnergyModel,
    Platform,
    coarse_grain_platform,
    virtex2_platform,
)
from .tile import TileState

__all__ = [
    "DEFAULT_RECONFIGURATION_LATENCY_MS",
    "EnergyModel",
    "Platform",
    "TileState",
    "coarse_grain_platform",
    "virtex2_platform",
]
