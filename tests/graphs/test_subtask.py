"""Unit tests for the subtask model."""

import pytest

from repro.graphs.subtask import ResourceClass, Subtask, drhw_subtask, isp_subtask


class TestSubtaskConstruction:
    def test_defaults(self):
        subtask = Subtask(name="dct", execution_time=8.0)
        assert subtask.resource is ResourceClass.DRHW
        assert subtask.configuration == "dct"
        assert subtask.energy == 0.0

    def test_explicit_configuration(self):
        subtask = Subtask(name="dct_0", execution_time=8.0,
                          configuration="dct")
        assert subtask.configuration == "dct"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Subtask(name="", execution_time=1.0)

    def test_zero_execution_time_rejected(self):
        with pytest.raises(ValueError):
            Subtask(name="x", execution_time=0.0)

    def test_negative_execution_time_rejected(self):
        with pytest.raises(ValueError):
            Subtask(name="x", execution_time=-1.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            Subtask(name="x", execution_time=1.0, energy=-0.1)

    # ``nan <= 0`` is False and ``True`` is 1: plain range checks let these
    # through, and a NaN execution time poisons every subtask weight.
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True],
                             ids=["nan", "inf", "true"])
    def test_non_finite_or_bool_execution_time_rejected(self, value):
        with pytest.raises(ValueError):
            Subtask(name="x", execution_time=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True],
                             ids=["nan", "inf", "true"])
    def test_non_finite_or_bool_energy_rejected(self, value):
        with pytest.raises(ValueError):
            Subtask(name="x", execution_time=1.0, energy=value)

    def test_frozen(self):
        subtask = Subtask(name="x", execution_time=1.0)
        with pytest.raises(AttributeError):
            subtask.execution_time = 2.0


class TestSubtaskHelpers:
    def test_drhw_constructor(self):
        subtask = drhw_subtask("me", 10.0, configuration="motion")
        assert subtask.resource is ResourceClass.DRHW
        assert subtask.configuration == "motion"
        assert subtask.is_reconfigurable

    def test_isp_constructor(self):
        subtask = isp_subtask("control", 2.0)
        assert subtask.resource is ResourceClass.ISP
        assert not subtask.is_reconfigurable

    def test_with_execution_time(self):
        subtask = drhw_subtask("a", 4.0)
        changed = subtask.with_execution_time(6.0)
        assert changed.execution_time == 6.0
        assert changed.name == "a"
        assert subtask.execution_time == 4.0

    def test_with_configuration(self):
        subtask = drhw_subtask("a", 4.0)
        changed = subtask.with_configuration("shared")
        assert changed.configuration == "shared"
        assert subtask.configuration == "a"

    def test_scaled(self):
        subtask = drhw_subtask("a", 4.0)
        assert subtask.scaled(2.5).execution_time == pytest.approx(10.0)

    def test_scaled_rejects_non_positive_factor(self):
        subtask = drhw_subtask("a", 4.0)
        with pytest.raises(ValueError):
            subtask.scaled(0.0)

    def test_equality_and_hash(self):
        a = Subtask(name="x", execution_time=1.0)
        b = Subtask(name="x", execution_time=1.0)
        assert a == b
        assert hash(a) == hash(b)

    def test_resource_class_values(self):
        assert ResourceClass("drhw") is ResourceClass.DRHW
        assert ResourceClass("isp") is ResourceClass.ISP
