"""Unit tests for the tile replacement policies."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import PlatformError
from repro.platform.tile import TileState
from repro.reuse.replacement import (
    FifoReplacement,
    LfuReplacement,
    LruReplacement,
    REPLACEMENT_POLICIES,
    RandomlikeReplacement,
    WeightAwareReplacement,
    make_replacement_policy,
)


def make_tiles():
    """Four tiles: one blank, three with configurations of varying history."""
    blank = TileState(index=0)
    old = TileState(index=1)
    old.load("old_cfg", completion_time=1.0)
    old.record_execution(1.0, 2.0)
    recent = TileState(index=2)
    recent.load("recent_cfg", completion_time=5.0)
    recent.record_execution(5.0, 6.0)
    hot = TileState(index=3)
    hot.load("hot_cfg", completion_time=2.0)
    for start in (2.0, 10.0, 20.0):
        hot.record_execution(start, start + 1.0)
    return [blank, old, recent, hot]


class TestVictimSelection:
    def test_blank_tiles_preferred(self):
        tiles = make_tiles()
        victims = LruReplacement().select_victims(tiles, 1, now=30.0)
        assert victims == [0]

    def test_lru_evicts_oldest_use(self):
        tiles = make_tiles()
        victims = LruReplacement().select_victims(tiles, 2, now=30.0)
        assert victims == [0, 1]

    def test_lfu_evicts_least_used(self):
        tiles = make_tiles()
        victims = LfuReplacement().select_victims(tiles, 3, now=30.0)
        # blank first, then the two single-use tiles before the 3-use tile.
        assert victims[0] == 0
        assert 3 not in victims

    def test_fifo_evicts_oldest_load(self):
        tiles = make_tiles()
        victims = FifoReplacement().select_victims(tiles, 2, now=30.0)
        assert victims == [0, 1]

    def test_protected_configurations_avoided(self):
        tiles = make_tiles()
        victims = LruReplacement().select_victims(
            tiles, 2, now=30.0, protected=["old_cfg"]
        )
        assert 1 not in victims

    def test_protection_is_soft(self):
        tiles = make_tiles()
        victims = LruReplacement().select_victims(
            tiles, 4, now=30.0, protected=["old_cfg", "recent_cfg", "hot_cfg"]
        )
        assert sorted(victims) == [0, 1, 2, 3]

    def test_upcoming_configurations_deprioritized(self):
        tiles = make_tiles()
        victims = LruReplacement().select_victims(
            tiles, 2, now=30.0, upcoming=["old_cfg"]
        )
        assert victims[0] == 0
        assert 1 not in victims

    def test_locked_tiles_never_selected(self):
        tiles = make_tiles()
        tiles[0].locked = True
        tiles[1].locked = True
        victims = LruReplacement().select_victims(tiles, 2, now=30.0)
        assert set(victims) == {2, 3}

    def test_too_few_candidates_raises(self):
        tiles = make_tiles()
        for tile in tiles:
            tile.locked = True
        with pytest.raises(PlatformError):
            LruReplacement().select_victims(tiles, 1, now=0.0)

    def test_negative_count_rejected(self):
        with pytest.raises(PlatformError):
            LruReplacement().select_victims(make_tiles(), -1)

    def test_zero_count(self):
        assert LruReplacement().select_victims(make_tiles(), 0) == []


class TestSpecialPolicies:
    def test_randomlike_is_deterministic(self):
        tiles = make_tiles()
        first = RandomlikeReplacement().select_victims(tiles, 3, now=0.0)
        second = RandomlikeReplacement().select_victims(tiles, 3, now=0.0)
        assert first == second

    def test_randomlike_is_the_same_in_every_interpreter(self):
        """String hashes are salted per process; the ranking must not be."""
        script = (
            "from repro.platform.tile import TileState\n"
            "from repro.reuse.replacement import RandomlikeReplacement\n"
            "tiles = []\n"
            "for index in range(16):\n"
            "    tile = TileState(index=index)\n"
            "    tile.load(f'cfg{index % 5}_{index}', completion_time=1.0)\n"
            "    tiles.append(tile)\n"
            "print(RandomlikeReplacement().select_victims(tiles, 16, now=0.0))"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONPATH=str(src),
                       PYTHONHASHSEED=hash_seed)
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(outputs) == 1

    def test_weight_aware_keeps_heavy_configurations(self):
        tiles = make_tiles()
        policy = WeightAwareReplacement({"old_cfg": 100.0, "recent_cfg": 1.0,
                                         "hot_cfg": 50.0})
        victims = policy.select_victims(tiles, 2, now=30.0)
        assert victims == [0, 2]

    def test_weight_aware_update(self):
        policy = WeightAwareReplacement()
        policy.update_weights({"cfg": 5.0})
        assert policy.weights["cfg"] == 5.0


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(REPLACEMENT_POLICIES) == {"lru", "lfu", "fifo",
                                             "randomlike", "weight-aware"}

    def test_make_replacement_policy(self):
        assert isinstance(make_replacement_policy("lru"), LruReplacement)

    def test_unknown_policy(self):
        with pytest.raises(PlatformError):
            make_replacement_policy("belady")
