"""Unit tests for platform descriptions and the energy model."""

import pytest

from repro.errors import PlatformError
from repro.platform.description import (
    DEFAULT_RECONFIGURATION_LATENCY_MS,
    EnergyModel,
    Platform,
    virtex2_platform,
)


class TestPlatform:
    def test_default_latency_is_4ms(self):
        assert DEFAULT_RECONFIGURATION_LATENCY_MS == pytest.approx(4.0)
        assert virtex2_platform().reconfiguration_latency == pytest.approx(4.0)

    def test_requires_at_least_one_tile(self):
        with pytest.raises(PlatformError):
            Platform(tile_count=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(PlatformError):
            Platform(tile_count=1, reconfiguration_latency=-1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(reconfiguration_latency=float("nan")),
        dict(reconfiguration_latency=float("inf")),
        dict(tile_count=float("inf")),
    ])
    def test_non_finite_fields_rejected(self, kwargs):
        params = dict(tile_count=1)
        params.update(kwargs)
        with pytest.raises(PlatformError, match="must be finite"):
            Platform(**params)

    def test_negative_isp_count_rejected(self):
        with pytest.raises(PlatformError):
            Platform(tile_count=1, isp_count=-1)

    def test_with_tiles(self):
        platform = virtex2_platform(tile_count=8)
        bigger = platform.with_tiles(16)
        assert bigger.tile_count == 16
        assert bigger.reconfiguration_latency == platform.reconfiguration_latency
        assert platform.tile_count == 8

    def test_with_latency(self):
        platform = virtex2_platform().with_latency(0.5)
        assert platform.reconfiguration_latency == pytest.approx(0.5)

    def test_new_tile_states(self):
        platform = virtex2_platform(tile_count=5)
        tiles = platform.new_tile_states()
        assert len(tiles) == 5
        assert all(tile.is_blank for tile in tiles)
        assert [tile.index for tile in tiles] == [0, 1, 2, 3, 4]


class TestEnergyModel:
    def test_task_energy(self):
        model = EnergyModel(load_energy=10.0, execution_energy_per_ms=1.0,
                            idle_energy_per_ms=0.1)
        energy = model.task_energy(loads=3, busy_time=50.0, idle_tile_time=20.0)
        assert energy == pytest.approx(30.0 + 50.0 + 2.0)

    def test_negative_inputs_rejected(self):
        model = EnergyModel()
        with pytest.raises(PlatformError):
            model.task_energy(loads=-1, busy_time=0.0)

    def test_negative_parameters_rejected(self):
        with pytest.raises(PlatformError):
            EnergyModel(load_energy=-1.0)

    def test_more_loads_cost_more(self):
        model = EnergyModel()
        assert model.task_energy(5, 10.0) > model.task_energy(2, 10.0)
