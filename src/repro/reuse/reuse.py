"""Configuration reuse identification.

The reuse module (ref. [6, 7]) runs at the beginning of the run-time
scheduling flow for every task: it looks at which configurations are
currently resident on the physical tiles and decides which subtasks of the
upcoming task can be executed without reloading their configuration.

In this reproduction the initial schedule assigns subtasks to *logical*
tiles (the tile indices chosen by the list scheduler); the reuse module then
binds logical tiles to *physical* tiles so that as many first-on-tile
subtasks as possible find their configuration already resident, and asks the
replacement policy to pick victims for the remaining logical tiles.  A
configuration left over from a previous task execution can only be reused by
the first subtask scheduled on that physical tile: any later subtask on the
same tile overwrites whatever was loaded before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import PlatformError
from ..platform.tile import TileState
from ..scheduling.schedule import PlacedSchedule, ResourceId
from .replacement import LruReplacement, ReplacementPolicy


@dataclass(frozen=True)
class ReuseDecision:
    """Outcome of the reuse analysis for one task execution.

    Attributes
    ----------
    tile_binding:
        Mapping from the logical tiles of the placed schedule to physical
        tile indices.
    reused:
        Subtasks whose configuration is already resident on the physical
        tile they were bound to (no load needed).
    operations:
        Number of elementary comparisons performed by the analysis — the
        run-time cost that is shared by every scheduling approach.
    drhw_tiles:
        ``(name, logical tile)`` of every DRHW subtask, the placed
        schedule's static fact :attr:`subtask_tiles` is built from.
    """

    tile_binding: Dict[ResourceId, int]
    reused: FrozenSet[str]
    operations: int = 0
    drhw_tiles: Tuple[Tuple[str, ResourceId], ...] = field(default=(),
                                                           repr=False)

    @cached_property
    def subtask_tiles(self) -> Dict[str, int]:
        """Physical tile that will host every DRHW subtask of the task
        (built on first read)."""
        binding = self.tile_binding
        return {name: binding[logical] for name, logical in self.drhw_tiles}

    @property
    def reuse_count(self) -> int:
        """Number of subtasks that avoid a configuration load."""
        return len(self.reused)

    def reuse_fraction(self, placed: PlacedSchedule) -> float:
        """Fraction of the task's DRHW subtasks that are reused."""
        drhw = len(placed.drhw_names)
        if drhw == 0:
            return 1.0
        return len(self.reused) / drhw


class ReuseModule:
    """Binds logical tiles to physical tiles to maximize configuration reuse."""

    def __init__(self, replacement: Optional[ReplacementPolicy] = None) -> None:
        self.replacement = replacement or LruReplacement()

    def analyze(self, placed: PlacedSchedule, tiles: Sequence[TileState],
                now: float = 0.0,
                upcoming_configurations: Iterable[str] = ()) -> ReuseDecision:
        """Decide the tile binding and the reusable subtasks for one task.

        Parameters
        ----------
        placed:
            Initial schedule of the task about to run.
        tiles:
            Current physical tile states.
        now:
            Current simulation time (forwarded to the replacement policy).
        upcoming_configurations:
            Configurations that will be needed by subsequent tasks; the
            replacement policy avoids evicting them when possible.

        Logical tiles are matched in decreasing subtask weight of their
        first subtask (ties by tile index).  That order, each tile's first
        subtask and configuration, and every DRHW subtask's logical tile
        are static facts of ``placed``, read off its core
        (:attr:`~repro.scheduling.schedule.PlacedSchedule.core`); the
        analysis itself only matches them against the tile contents.
        """
        core = placed.core
        if len(core.reuse_tiles) > len(tiles):
            raise PlatformError(
                f"placed schedule uses {len(core.reuse_tiles)} tiles but "
                f"only {len(tiles)} physical tiles exist"
            )
        operations = 0
        resident: Dict[str, List[int]] = {}
        for tile in tiles:
            if tile.configuration is not None and not tile.locked:
                resident.setdefault(tile.configuration, []).append(tile.index)

        # Greedy matching: logical tiles whose first subtask is heaviest get
        # the first chance to grab a physical tile that already holds their
        # configuration.
        binding: Dict[ResourceId, int] = {}
        reused: List[str] = []
        protected: set = set()
        assigned_physical: set = set()
        unmatched: List[ResourceId] = []
        for logical, first, configuration in core.reuse_tiles:
            operations += 1
            candidates = [index for index in resident.get(configuration, [])
                          if index not in assigned_physical]
            if candidates:
                chosen = candidates[0]
                binding[logical] = chosen
                assigned_physical.add(chosen)
                reused.append(first)
                protected.add(configuration)
            else:
                unmatched.append(logical)

        # Remaining logical tiles receive victims chosen by the replacement
        # policy; configurations just matched for reuse are protected.
        if unmatched:
            available = [tile for tile in tiles
                         if tile.index not in assigned_physical]
            victims = self.replacement.select_victims(
                available, len(unmatched), now=now, protected=protected,
                upcoming=upcoming_configurations,
            )
            operations += len(available)
            for logical, victim in zip(unmatched, victims):
                binding[logical] = victim
                assigned_physical.add(victim)

        return ReuseDecision(tile_binding=binding, reused=frozenset(reused),
                             operations=operations,
                             drhw_tiles=core.drhw_tiles)


def resident_configurations(tiles: Sequence[TileState]) -> Dict[str, Tuple[int, ...]]:
    """Map every resident configuration to the tiles currently holding it."""
    result: Dict[str, List[int]] = {}
    for tile in tiles:
        if tile.configuration is not None:
            result.setdefault(tile.configuration, []).append(tile.index)
    return {configuration: tuple(indices)
            for configuration, indices in result.items()}
