"""Mutable platform state shared by consecutive task executions.

The system simulator executes a long sequence of task instances on the same
physical tile pool; configurations left on the tiles by one task are what
the next task's reuse module can exploit.  :class:`SystemState` owns that
shared state: the tile contents, the availability of the single
reconfiguration port and the current simulation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from ..errors import PlatformError
from ..platform.description import Platform
from ..platform.tile import TileState
from ..scheduling.schedule import PlacedSchedule, ResourceId, TimedSchedule


@dataclass
class SystemState:
    """Run-time state of the platform between task executions."""

    platform: Platform
    tiles: List[TileState] = field(default_factory=list)
    controller_free: float = 0.0
    time: float = 0.0

    def __post_init__(self) -> None:
        if not self.tiles:
            self.tiles = self.platform.new_tile_states()
        if len(self.tiles) != self.platform.tile_count:
            raise PlatformError(
                f"state has {len(self.tiles)} tiles but platform declares "
                f"{self.platform.tile_count}"
            )

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Blank every tile and rewind the clock (new simulation run)."""
        self.tiles = self.platform.new_tile_states()
        self.controller_free = 0.0
        self.time = 0.0

    @property
    def resident_configurations(self) -> Dict[str, int]:
        """Configuration -> tile index for every non-blank tile."""
        return {tile.configuration: tile.index
                for tile in self.tiles if tile.configuration is not None}

    def advance_time(self, time: float) -> None:
        """Move the clock forward (never backwards)."""
        self.time = max(self.time, time)

    def record_load(self, tile_index: int, configuration: str,
                    completion_time: float) -> None:
        """Record a configuration load onto one tile."""
        self.tiles[tile_index].load(configuration, completion_time)
        self.controller_free = max(self.controller_free, completion_time)

    # ------------------------------------------------------------------ #
    def apply_task_execution(self, placed: PlacedSchedule,
                             tile_binding: Mapping[ResourceId, int],
                             reused: Iterable[str],
                             timed: TimedSchedule,
                             load_finish_times: Mapping[str, float]) -> None:
        """Update tile contents after one task execution.

        Every logical tile of ``placed`` was bound to a physical tile; each
        subtask executed on it either reused the resident configuration (if
        it was the first subtask on the tile and the configuration matched)
        or loaded its own configuration, overwriting whatever was there.

        Parameters
        ----------
        placed:
            The task's placed schedule.
        tile_binding:
            Mapping from logical tiles to physical tile indices.
        reused:
            Subtasks that reused a resident configuration.
        timed:
            The task's timed schedule; its execution starts and finishes
            (absolute times) are read by subtask id.
        load_finish_times:
            Completion time of every load actually performed, by name
            (missing entries fall back to the subtask's execution start).
        """
        reused_set = set(reused)
        tile_runs = placed.core.tile_runs
        columns = timed.columns
        starts, finishes = columns.starts, columns.finishes
        for logical, physical in tile_binding.items():
            run = tile_runs.get(logical)
            if run is None:  # not a tile this schedule uses
                continue
            tile = self.tiles[physical]
            for sid, name, configuration in run:
                start = starts[sid]
                if not (name in reused_set and tile.holds(configuration)):
                    tile.load(configuration,
                              load_finish_times.get(name, start))
                tile.record_execution(start, finishes[sid])
