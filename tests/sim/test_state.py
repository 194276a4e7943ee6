"""Unit tests for the shared platform state."""

import pytest

from repro.errors import PlatformError
from repro.platform.description import Platform
from repro.platform.tile import TileState
from repro.reuse.reuse import ReuseModule
from repro.scheduling.evaluator import replay_schedule
from repro.scheduling.list_scheduler import build_initial_schedule
from repro.sim.state import SystemState

LATENCY = 4.0


class TestSystemState:
    def test_initialization_creates_blank_tiles(self):
        state = SystemState(platform=Platform(tile_count=5))
        assert len(state.tiles) == 5
        assert all(tile.is_blank for tile in state.tiles)
        assert state.resident_configurations == {}

    def test_mismatched_tiles_rejected(self):
        with pytest.raises(PlatformError):
            SystemState(platform=Platform(tile_count=2),
                        tiles=[TileState(index=0)])

    def test_record_load_updates_residency_and_controller(self):
        state = SystemState(platform=Platform(tile_count=2))
        state.record_load(1, "dct", completion_time=4.0)
        assert state.resident_configurations == {"dct": 1}
        assert state.controller_free == pytest.approx(4.0)

    def test_advance_time_never_rewinds(self):
        state = SystemState(platform=Platform(tile_count=1))
        state.advance_time(10.0)
        state.advance_time(5.0)
        assert state.time == pytest.approx(10.0)

    def test_reset(self):
        state = SystemState(platform=Platform(tile_count=2))
        state.record_load(0, "a", 4.0)
        state.advance_time(100.0)
        state.reset()
        assert state.time == 0.0
        assert state.controller_free == 0.0
        assert all(tile.is_blank for tile in state.tiles)


class TestApplyTaskExecution:
    def test_residency_after_task(self, chain4, platform8):
        placed = build_initial_schedule(chain4, platform8)
        state = SystemState(platform=platform8)
        decision = ReuseModule().analyze(placed, state.tiles)
        timed = replay_schedule(placed, LATENCY, placed.drhw_names)
        load_finish = {load.subtask: load.finish for load in timed.loads}
        state.apply_task_execution(placed, decision.tile_binding, frozenset(),
                                   timed, load_finish)
        resident = set(state.resident_configurations)
        # Every subtask was loaded on its own tile, so all stay resident.
        assert resident == set(chain4.subtask_names)

    def test_single_tile_keeps_only_last_configuration(self, chain4):
        platform = Platform(tile_count=1)
        placed = build_initial_schedule(chain4, platform)
        state = SystemState(platform=platform)
        decision = ReuseModule().analyze(placed, state.tiles)
        timed = replay_schedule(placed, LATENCY, placed.drhw_names)
        load_finish = {load.subtask: load.finish for load in timed.loads}
        state.apply_task_execution(placed, decision.tile_binding, frozenset(),
                                   timed, load_finish)
        assert set(state.resident_configurations) == {"s3"}

    def test_reused_subtask_does_not_reset_load_time(self, diamond, platform8):
        placed = build_initial_schedule(diamond, platform8)
        state = SystemState(platform=platform8)
        # Pre-load the source configuration.
        state.record_load(0, "src", completion_time=2.0)
        decision = ReuseModule().analyze(placed, state.tiles)
        assert "src" in decision.reused
        loads = [name for name in placed.drhw_names if name != "src"]
        timed = replay_schedule(placed, LATENCY, loads)
        load_finish = {load.subtask: load.finish for load in timed.loads}
        state.apply_task_execution(placed, decision.tile_binding,
                                   decision.reused, timed,
                                   load_finish)
        source_tile = state.tiles[decision.subtask_tiles["src"]]
        assert source_tile.loaded_at == pytest.approx(2.0)
        assert source_tile.use_count >= 1
