"""Tests for the trace format, the mixed-pattern generator and TraceWorkload."""

import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.traces import (
    DEFAULT_TRACE_SUBTASKS,
    MAX_TRACE_SUBTASKS,
    MixedPatternConfig,
    TraceFormatError,
    TraceRecord,
    TraceWorkload,
    format_trace,
    generate_mixed_trace,
    parse_trace,
    parse_trace_line,
    read_trace,
    write_trace,
)
from repro.errors import WorkloadError


class TestParser:
    def test_minimal_record(self):
        record = parse_trace_line('{"timestamp": 1.5, "task": 3}')
        assert record == TraceRecord(timestamp=1.5, graph_id=3)
        assert record.tenant == "default"

    def test_full_record(self):
        record = parse_trace_line(
            '{"timestamp": 2, "task": "7", "size": 5, "deps": [3],'
            ' "tenant": "t1"}'
        )
        assert record.graph_id == 7
        assert record.size == 5
        assert record.deps == (3,)
        assert record.tenant == "t1"
        assert isinstance(record.timestamp, float)

    @pytest.mark.parametrize("line,fragment", [
        ("not json", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('{"timestamp": 1}', "missing required fields"),
        ('{"task": 1}', "missing required fields"),
        ('{"timestamp": 1, "task": 1, "bogus": 2}', "unknown fields"),
        ('{"timestamp": -1, "task": 1}', "non-negative"),
        ('{"timestamp": true, "task": 1}', "must be a number"),
        ('{"timestamp": NaN, "task": 1}', "must be finite"),
        ('{"timestamp": Infinity, "task": 1}', "must be finite"),
        ('{"timestamp": 1e999, "task": 1}', "must be finite"),
        ('{"timestamp": 1, "task": -2}', "non-negative"),
        ('{"timestamp": 1, "task": "x"}', "non-negative integer"),
        ('{"timestamp": 1, "task": true}', "non-negative integer"),
        ('{"timestamp": 1, "task": 1, "size": 0}', "size must lie"),
        ('{"timestamp": 1, "task": 1, "size": 999}', "size must lie"),
        ('{"timestamp": 1, "task": 1, "size": 2.5}', "size must be"),
        ('{"timestamp": 1, "task": 1, "deps": 3}', "deps must be a list"),
        ('{"timestamp": 1, "task": 1, "tenant": ""}', "non-empty string"),
        ("[" * 100_000, "not valid JSON"),
        ('{"timestamp": 1, "task": %s}' % ("7" * 5000), "not valid JSON"),
        ('{"timestamp": %s, "task": 1}' % ("7" * 5000), "not valid JSON"),
        ('{"timestamp": 1, "task": "%s"}' % ("7" * 5000),
         "non-negative integer"),
        ('{"timestamp": 1, "task": "\u00b2"}', "non-negative integer"),
    ])
    def test_malformed_records_are_rejected(self, line, fragment):
        with pytest.raises(TraceFormatError, match=fragment):
            parse_trace_line(line)

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b'{"timestamp": 1, "task": 1}\r\n'
                         b'{"timestamp": 2, "task": 2}\n'
                         b'{"timestamp": 3, "task": "\xff"}\n')
        with pytest.raises(TraceFormatError,
                           match="trace line 3: not UTF-8"):
            read_trace(path)

    def test_errors_carry_line_numbers(self):
        lines = ['{"timestamp": 1, "task": 1}', "garbage"]
        with pytest.raises(TraceFormatError, match="trace line 2"):
            parse_trace(lines)

    def test_blank_lines_are_skipped(self):
        lines = ["", '{"timestamp": 1, "task": 1}', "   ", ""]
        assert len(parse_trace(lines)) == 1

    def test_decreasing_timestamps_are_rejected(self):
        lines = ['{"timestamp": 2, "task": 1}',
                 '{"timestamp": 1, "task": 2}']
        with pytest.raises(TraceFormatError, match="non-decreasing"):
            parse_trace(lines)

    def test_nan_cannot_hide_a_decreasing_timestamp(self):
        # NaN compares false both ways: 5 -> NaN -> 1 would pass the
        # ordering check if the parser let NaN through.
        lines = ['{"timestamp": 5, "task": 1}',
                 '{"timestamp": NaN, "task": 2}',
                 '{"timestamp": 1, "task": 3}']
        with pytest.raises(TraceFormatError,
                           match="trace line 2: timestamp must be finite"):
            parse_trace(lines)

    def test_timestamp_past_the_float_range_is_rejected(self):
        with pytest.raises(TraceFormatError, match="must be finite"):
            parse_trace_line('{"timestamp": 1%s, "task": 1}' % ("0" * 400))

    def test_unseen_dep_is_rejected(self):
        with pytest.raises(TraceFormatError, match="not seen earlier"):
            parse_trace(['{"timestamp": 1, "task": 1, "deps": [9]}'])

    def test_one_id_one_size(self):
        lines = ['{"timestamp": 1, "task": 1, "size": 4}',
                 '{"timestamp": 2, "task": 1, "size": 5}']
        with pytest.raises(TraceFormatError, match="changed size"):
            parse_trace(lines)

    def test_size_can_be_filled_in_later(self):
        lines = ['{"timestamp": 1, "task": 1}',
                 '{"timestamp": 2, "task": 1, "size": 5}',
                 '{"timestamp": 3, "task": 1, "size": 5}']
        assert len(parse_trace(lines)) == 3


class TestRoundTrip:
    def test_format_parse_round_trip(self):
        records = [
            TraceRecord(timestamp=0.5, graph_id=1),
            TraceRecord(timestamp=1.0, graph_id=2, size=7, deps=(1,),
                        tenant="t3"),
        ]
        text = format_trace(records)
        assert parse_trace(text.splitlines()) == records

    def test_file_round_trip(self, tmp_path):
        records = generate_mixed_trace(
            MixedPatternConfig(records=25, universe=8, seed=3, tenants=2))
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        assert read_trace(path) == records

    def test_writer_refuses_what_the_parser_refuses(self):
        for record in (TraceRecord(timestamp=float("nan"), graph_id=1),
                       TraceRecord(timestamp=1.0, graph_id=-1),
                       TraceRecord(timestamp=1.0, graph_id=1, deps=(9,))):
            with pytest.raises(TraceFormatError, match="trace line 1"):
                format_trace([record])

    def test_defaults_are_omitted_from_payload(self):
        payload = TraceRecord(timestamp=1.0, graph_id=2).payload()
        assert payload == {"timestamp": 1.0, "task": 2}


#: Record-shaped JSON values: mostly the schema's fields, with values of
#: every JSON type, so the property reaches the acceptance path too.
_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.text(max_size=8))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_RECORD_LINES = st.builds(json.dumps, st.fixed_dictionaries(
    {"timestamp": st.sampled_from([0, 1, 2.5]) | _JSON_VALUES,
     "task": st.integers(0, 3) | st.sampled_from(["2", "\u00b2"])
     | _JSON_VALUES},
    optional={"size": st.integers(0, 70) | _JSON_VALUES,
              "deps": st.lists(st.integers(0, 3), max_size=2) | _JSON_VALUES,
              "tenant": st.text(max_size=3) | _JSON_VALUES,
              "x": _JSON_VALUES}))
_TRACE_LINES = (st.lists(_RECORD_LINES, max_size=3)
                | st.lists(_RECORD_LINES | st.text(), max_size=6))


class TestHostileInput:
    @settings(max_examples=300)
    @given(_TRACE_LINES)
    def test_any_lines_parse_or_raise_trace_format_error(self, lines):
        try:
            records = parse_trace(lines)
        except TraceFormatError:
            return
        assert parse_trace(format_trace(records).splitlines()) == records

    @settings(max_examples=150)
    @given(st.binary(max_size=200)
           | _TRACE_LINES.map(lambda lines: "\n".join(lines).encode(
               "utf-8", "surrogatepass")))
    def test_any_bytes_read_or_raise_trace_format_error(self, data):
        handle, path = tempfile.mkstemp(suffix=".jsonl")
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
            try:
                records = read_trace(path)
            except TraceFormatError:
                return
        finally:
            os.unlink(path)
        assert parse_trace(format_trace(records).splitlines()) == records


class TestGenerator:
    def test_same_config_same_bytes(self):
        config = MixedPatternConfig(records=60, universe=16, seed=11,
                                    tenants=3, size_range=(3, 8))
        first = format_trace(generate_mixed_trace(config))
        second = format_trace(generate_mixed_trace(config))
        assert first == second

    def test_different_seed_different_stream(self):
        base = MixedPatternConfig(records=60, universe=16, seed=11)
        other = MixedPatternConfig(records=60, universe=16, seed=12)
        assert generate_mixed_trace(base) != generate_mixed_trace(other)

    def test_output_satisfies_stream_invariants(self):
        config = MixedPatternConfig(records=120, universe=10, seed=5,
                                    tenants=4, size_range=(2, 6),
                                    dep_probability=0.5)
        records = generate_mixed_trace(config)
        assert len(records) == 120
        # Re-parsing its own serialization exercises every invariant:
        # timestamps non-decreasing, deps seen earlier, one id one size.
        assert parse_trace(format_trace(records).splitlines()) == records

    def test_tenants_interleave(self):
        config = MixedPatternConfig(records=80, universe=12, seed=9,
                                    tenants=4)
        records = generate_mixed_trace(config)
        tenants = [record.tenant for record in records]
        assert set(tenants) == {"t0", "t1", "t2", "t3"}
        # The merge interleaves: the stream is not sorted by tenant.
        assert tenants != sorted(tenants)

    def test_single_tenant_uses_default_label(self):
        records = generate_mixed_trace(
            MixedPatternConfig(records=10, universe=4, seed=1))
        assert {record.tenant for record in records} == {"default"}

    def test_ids_stay_inside_universe(self):
        records = generate_mixed_trace(
            MixedPatternConfig(records=200, universe=7, seed=2))
        assert all(0 <= record.graph_id < 7 for record in records)

    @pytest.mark.parametrize("kwargs", [
        {"records": 0},
        {"universe": 0},
        {"tenants": 0},
        {"run_length": (5, 2)},
        {"short_jump_span": 0},
        {"sequential_weight": -1.0},
        {"sequential_weight": 0.0, "short_jump_weight": 0.0,
         "long_jump_weight": 0.0},
        {"mean_interarrival": 0.0},
        {"dep_probability": 1.5},
        {"size_range": (0, 4)},
        {"size_range": (4, MAX_TRACE_SUBTASKS + 1)},
    ])
    def test_bad_config_is_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            MixedPatternConfig(**kwargs)


class TestTraceWorkload:
    def test_same_id_same_graph(self):
        first = TraceWorkload(graph_id=3, trace_seed=7)
        second = TraceWorkload(graph_id=3, trace_seed=7)
        graph_a = first.task_set.tasks[0].scenarios[0].graph
        graph_b = second.task_set.tasks[0].scenarios[0].graph
        assert [s.name for s in graph_a] == [s.name for s in graph_b]
        assert [s.execution_time for s in graph_a] == \
            [s.execution_time for s in graph_b]

    def test_different_id_different_graph(self):
        first = TraceWorkload(graph_id=3)
        second = TraceWorkload(graph_id=4)
        times_a = [s.execution_time
                   for s in first.task_set.tasks[0].scenarios[0].graph]
        times_b = [s.execution_time
                   for s in second.task_set.tasks[0].scenarios[0].graph]
        assert times_a != times_b

    def test_instance_name_carries_graph_id(self):
        assert TraceWorkload(graph_id=17).name == "trace_g17"

    def test_default_size(self):
        workload = TraceWorkload(graph_id=0)
        graph = workload.task_set.tasks[0].scenarios[0].graph
        assert len(graph) == DEFAULT_TRACE_SUBTASKS

    def test_draw_instances_is_deterministic(self):
        workload = TraceWorkload(graph_id=1, scenarios=3)
        names_a = [instance.scenario.name for instance
                   in workload.draw_instances(random.Random(5))]
        names_b = [instance.scenario.name for instance
                   in workload.draw_instances(random.Random(5))]
        assert names_a == names_b
        assert len(names_a) == 1

    @pytest.mark.parametrize("kwargs", [
        {"graph_id": -1},
        {"graph_id": 0, "subtasks": 0},
        {"graph_id": 0, "subtasks": MAX_TRACE_SUBTASKS + 1},
        {"graph_id": 0, "scenarios": 0},
        {"graph_id": 0, "granularity": 0.0},
    ])
    def test_bad_options_are_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            TraceWorkload(**kwargs)
