"""Configuration replacement policies.

When a subtask must be loaded, the replacement module decides *which tile*
receives the new configuration.  The goal (ref. [6]) is to maximize the
percentage of configurations that can be reused in later task executions,
so the policies below avoid evicting configurations that are likely to be
needed again.

Every policy ranks candidate victim tiles; blank tiles are always preferred
over occupied ones, and tiles holding a *protected* configuration (one that
is still needed by the task being scheduled, or that belongs to the critical
subtasks of an upcoming task) are never selected while unprotected
candidates remain.
"""

from __future__ import annotations

import abc
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import PlatformError
from ..platform.tile import TileState


class ReplacementPolicy(abc.ABC):
    """Strategy that picks which tiles to overwrite with new configurations."""

    #: Human-readable policy name (used in reports and ablation tables).
    name: str = "replacement"

    @abc.abstractmethod
    def victim_rank(self, tile: TileState, now: float) -> Tuple:
        """Sort key among evictable tiles: the smallest key is evicted first."""

    def select_victims(self, tiles: Sequence[TileState], count: int,
                       now: float = 0.0,
                       protected: Iterable[str] = (),
                       upcoming: Iterable[str] = ()) -> List[int]:
        """Choose ``count`` tiles to receive new configurations.

        Parameters
        ----------
        tiles:
            Current state of every physical tile.
        count:
            Number of tiles needed.
        now:
            Current simulation time (used by recency-based policies).
        protected:
            Configurations that must not be evicted (they will be reused by
            the task currently being scheduled).
        upcoming:
            Configurations known to be needed soon (e.g. critical subtasks
            of the next task).  They are only evicted when no other
            candidate remains.

        Returns
        -------
        list of int
            Indices of the selected tiles, best victim first.  Tiles holding
            protected or upcoming configurations are only chosen when no
            other candidate remains (protection is *soft*: when the pool is
            too small to honour it, scheduling still proceeds).

        Raises
        ------
        PlatformError
            If fewer than ``count`` tiles are available at all (every tile
            locked).
        """
        if count < 0:
            raise PlatformError("victim count must be non-negative")
        protected_set = set(protected)
        upcoming_set = set(upcoming)
        candidates = [tile for tile in tiles if not tile.locked]
        if len(candidates) < count:
            raise PlatformError(
                f"cannot select {count} victim tiles: only {len(candidates)} "
                "tiles are evictable"
            )

        def avoidance_rank(tile: TileState) -> int:
            if tile.configuration is None:
                return 0
            if tile.configuration in protected_set:
                return 3
            if tile.configuration in upcoming_set:
                return 2
            return 1

        def sort_key(tile: TileState) -> Tuple:
            blank_rank = 0 if tile.is_blank else 1
            return (blank_rank, avoidance_rank(tile),
                    self.victim_rank(tile, now), tile.index)

        ordered = sorted(candidates, key=sort_key)
        return [tile.index for tile in ordered[:count]]


class LruReplacement(ReplacementPolicy):
    """Evict the least-recently-used configuration first."""

    name = "lru"

    def victim_rank(self, tile: TileState, now: float) -> Tuple:
        return (tile.last_used_at,)


class LfuReplacement(ReplacementPolicy):
    """Evict the least-frequently-used configuration first."""

    name = "lfu"

    def victim_rank(self, tile: TileState, now: float) -> Tuple:
        return (tile.use_count, tile.last_used_at)


class FifoReplacement(ReplacementPolicy):
    """Evict the configuration that has been resident the longest."""

    name = "fifo"

    def victim_rank(self, tile: TileState, now: float) -> Tuple:
        return (tile.loaded_at,)


class RandomlikeReplacement(ReplacementPolicy):
    """Deterministic pseudo-random victim selection (ablation baseline).

    The rank is a CRC-32 of the tile index and the resident configuration,
    so the policy behaves like a random choice while staying reproducible.
    The built-in ``hash`` of a string is salted per interpreter, so it would
    pick different victims in every process (and in every cached point).
    """

    name = "randomlike"

    def victim_rank(self, tile: TileState, now: float) -> Tuple:
        token = f"{tile.index}:{tile.configuration}"
        return (zlib.crc32(token.encode("utf-8")) & 0xFFFF,)


class WeightAwareReplacement(ReplacementPolicy):
    """Evict the configuration with the smallest known criticality weight.

    Configurations that correspond to heavy (critical) subtasks are kept
    resident as long as possible because reusing them saves the loads that
    are the hardest to hide.  Unknown configurations are treated as weight
    zero (evicted first among occupied tiles).
    """

    name = "weight-aware"

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self.weights: Dict[str, float] = dict(weights or {})

    def update_weights(self, weights: Dict[str, float]) -> None:
        """Merge new configuration weights (larger = more valuable)."""
        self.weights.update(weights)

    def victim_rank(self, tile: TileState, now: float) -> Tuple:
        weight = self.weights.get(tile.configuration or "", 0.0)
        return (weight, tile.last_used_at)


#: Registry of available replacement policies keyed by name.
REPLACEMENT_POLICIES = {
    LruReplacement.name: LruReplacement,
    LfuReplacement.name: LfuReplacement,
    FifoReplacement.name: FifoReplacement,
    RandomlikeReplacement.name: RandomlikeReplacement,
    WeightAwareReplacement.name: WeightAwareReplacement,
}


def make_replacement_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name."""
    try:
        factory = REPLACEMENT_POLICIES[name]
    except KeyError as exc:
        raise PlatformError(
            f"unknown replacement policy {name!r}; available: "
            f"{sorted(REPLACEMENT_POLICIES)}"
        ) from exc
    return factory()
