"""Trace-driven workloads: access logs in, deterministic graph streams out.

The paper's evaluation uses a handful of hand-built graphs; the service
north-star needs *thousands* of distinct task graphs arriving in realistic
multi-tenant order.  This module supplies both halves of that pipeline:

**Trace format** (``TRACE_FORMAT_VERSION``).  A trace is a JSON-lines
access log, one record per arriving task graph, in arrival order::

    {"timestamp": 3.25, "task": 17}
    {"timestamp": 3.90, "task": 18, "tenant": "t1", "size": 7}
    {"timestamp": 4.15, "task": 17, "deps": [18]}

* ``timestamp`` (float, required) — arrival time; file order is arrival
  order, so timestamps must be non-decreasing;
* ``task`` (non-negative int, required; a decimal string is accepted) —
  the configuration/graph identifier within the trace's universe.  The
  same id always denotes the same graph: graphs are derived
  deterministically from ``(trace seed, id)``, so repeats of an id are
  warm arrivals, not new work;
* ``size`` (optional positive int) — subtask count of that graph,
  overriding the stream default.  Size participates in graph identity,
  so one id must keep one size throughout a trace;
* ``deps`` (optional list of ids) — graph ids this arrival depends on;
  every dep must have appeared earlier in the stream (lineage metadata,
  validated but not scheduled);
* ``tenant`` (optional string, default ``"default"``) — the submitting
  client; interleaving across tenants is exactly what the warm-path
  benchmarks stress.

Unknown fields are rejected: a trace is an interchange format, and a
typo'd knob silently ignored is a benchmark silently misconfigured.

**Mixed-pattern generator.**  :func:`generate_mixed_trace` synthesizes
logs without real traffic, following the access-pattern idiom of the
columnar-database related work (``generate_mixed_logs``): each tenant
walks a configuration universe mixing *sequential runs* (``id+1`` for a
few records — prefetchable locality), *short jumps* (± a few ids —
near-neighbour reuse) and *long random jumps* (uniform over the
universe — cold arrivals), with exponential inter-arrival times.  Tenant
streams are merged by timestamp, so the resulting log preserves a
realistic multi-tenant interleaving.  Everything is derived from
``MixedPatternConfig.seed``: the same config yields the byte-identical
log, and therefore the byte-identical graph stream.

**TraceWorkload.**  Each record becomes a :class:`TraceWorkload` — a
single-task workload whose graph is generated deterministically from
``(trace_seed, graph_id)`` via :func:`~repro.graphs.generators.multimedia_like`,
with synthetic-style scenario variants.  The family registers as
``"trace"`` in the workload registry, so trace workloads flow through
:class:`~repro.runner.spec.WorkloadSpec`, sweep cache keys, the
:class:`~repro.runner.engine.SweepEngine` and the service's ``/simulate``
endpoint like any built-in family.
"""

from __future__ import annotations

import io
import math
import random
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import WorkloadError
from ..graphs.generators import multimedia_like
from ..jsonio import dumps_canonical, loads
from ..platform.description import DEFAULT_RECONFIGURATION_LATENCY_MS
from ..tcm.scenario import DynamicTask, Scenario, TaskInstance, TaskSet
from .base import Workload
from .registry import register_workload
from .synthetic import _scenario_variant

#: Bump when the record schema (and thus the meaning of a log) changes.
TRACE_FORMAT_VERSION = 1

#: Default subtask count of a trace graph when a record carries no size.
DEFAULT_TRACE_SUBTASKS = 6

#: Upper bound on per-record graph sizes: exact exploration cost grows
#: steeply with subtask count, and a trace is a *stream* of many graphs.
MAX_TRACE_SUBTASKS = 64

#: Record fields the parser accepts (anything else is a hard error).
_RECORD_FIELDS = frozenset({"timestamp", "task", "size", "deps", "tenant"})


class TraceFormatError(WorkloadError):
    """Raised when an access log violates the trace record schema."""


# --------------------------------------------------------------------- #
# Records and parsing
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TraceRecord:
    """One arrival in an access log (see the module docstring)."""

    timestamp: float
    graph_id: int
    size: Optional[int] = None
    deps: Tuple[int, ...] = ()
    tenant: str = "default"

    def payload(self) -> Dict[str, object]:
        """The JSON object form of this record (defaults omitted)."""
        payload: Dict[str, object] = {
            "timestamp": self.timestamp,
            "task": self.graph_id,
        }
        if self.size is not None:
            payload["size"] = self.size
        if self.deps:
            payload["deps"] = list(self.deps)
        if self.tenant != "default":
            payload["tenant"] = self.tenant
        return payload


def _fail(lineno: int, message: str) -> "TraceFormatError":
    return TraceFormatError(f"trace line {lineno}: {message}")


def _parse_graph_id(value: object, lineno: int, what: str = "task") -> int:
    # ASCII only: "²".isdigit() holds but int("²") fails.  Past the
    # interpreter's integer-digit limit int() fails too; both are no id.
    if isinstance(value, str) and value.isascii() and value.isdigit():
        try:
            value = int(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(lineno, f"{what} must be a non-negative integer, "
                            f"got {reprlib.repr(value)}")
    if value < 0:
        raise _fail(lineno, f"{what} must be non-negative, got {value}")
    return value


def parse_trace_line(line: str, lineno: int = 1) -> TraceRecord:
    """Parse one JSON record, validating every field against the schema."""
    try:
        raw = loads(line)
    except ValueError as exc:
        # A syntax error, nesting past the recursion limit or a number
        # past the interpreter's integer-digit limit.
        raise _fail(lineno, f"not valid JSON "
                            f"({getattr(exc, 'msg', exc)})") from None
    if not isinstance(raw, dict):
        raise _fail(lineno, f"record must be a JSON object, "
                            f"got {type(raw).__name__}")
    unknown = set(raw) - _RECORD_FIELDS
    if unknown:
        raise _fail(lineno, f"unknown fields {sorted(unknown)}; "
                            f"allowed: {sorted(_RECORD_FIELDS)}")
    if "timestamp" not in raw or "task" not in raw:
        missing = sorted({"timestamp", "task"} - set(raw))
        raise _fail(lineno, f"missing required fields {missing}")

    timestamp = raw["timestamp"]
    if isinstance(timestamp, bool) or not isinstance(timestamp, (int, float)):
        raise _fail(lineno, f"timestamp must be a number, got {timestamp!r}")
    # NaN compares false both ways (parse_trace's ordering check misses
    # it); inf, 1e999 and ints past the float range are no time either.
    try:
        finite = math.isfinite(timestamp)
    except OverflowError:
        finite = False
    if not finite:
        raise _fail(lineno, f"timestamp must be finite, got {timestamp!r}")
    if timestamp < 0:
        raise _fail(lineno, f"timestamp must be non-negative, got {timestamp}")

    graph_id = _parse_graph_id(raw["task"], lineno)

    size = raw.get("size")
    if size is not None:
        if isinstance(size, bool) or not isinstance(size, int):
            raise _fail(lineno, f"size must be an integer, got {size!r}")
        if not 1 <= size <= MAX_TRACE_SUBTASKS:
            raise _fail(lineno, f"size must lie in "
                                f"[1, {MAX_TRACE_SUBTASKS}], got {size}")

    deps_raw = raw.get("deps", [])
    if not isinstance(deps_raw, list):
        raise _fail(lineno, f"deps must be a list, got {deps_raw!r}")
    deps = tuple(_parse_graph_id(dep, lineno, what="deps entry")
                 for dep in deps_raw)

    tenant = raw.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise _fail(lineno, f"tenant must be a non-empty string, "
                            f"got {tenant!r}")

    return TraceRecord(timestamp=float(timestamp), graph_id=graph_id,
                       size=size, deps=deps, tenant=tenant)


def parse_trace(lines: Iterable[str]) -> List[TraceRecord]:
    """Parse a whole access log, enforcing the stream-level invariants.

    Beyond per-record validation: timestamps must be non-decreasing (file
    order *is* arrival order), every ``deps`` entry must reference a graph
    id that already appeared, and one graph id must keep one size.
    """
    records: List[TraceRecord] = []
    seen_ids: Dict[int, Optional[int]] = {}
    last_timestamp = 0.0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = parse_trace_line(line, lineno)
        if record.timestamp < last_timestamp:
            raise _fail(lineno, "timestamps must be non-decreasing "
                                f"({record.timestamp} after {last_timestamp})")
        last_timestamp = record.timestamp
        for dep in record.deps:
            if dep not in seen_ids:
                raise _fail(lineno, f"deps entry {dep} references a graph "
                                    "id not seen earlier in the stream")
        if record.graph_id in seen_ids:
            previous = seen_ids[record.graph_id]
            if record.size is not None and previous is not None \
                    and record.size != previous:
                raise _fail(lineno, f"graph {record.graph_id} changed size "
                                    f"({previous} -> {record.size}); one id "
                                    "denotes one graph")
            if previous is None:
                seen_ids[record.graph_id] = record.size
        else:
            seen_ids[record.graph_id] = record.size
        records.append(record)
    return records


def format_trace(records: Sequence[TraceRecord]) -> str:
    """Serialize records back to a JSON-lines log (inverse of parsing).

    The log is parsed back before it is returned, so the writer refuses,
    with the parser's :class:`TraceFormatError`, every record the parser
    would refuse (a NaN timestamp, a negative id, an unseen dep).
    """
    text = "".join(dumps_canonical(record.payload()) + "\n"
                   for record in records)
    parse_trace(io.StringIO(text))
    return text


def read_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Parse the UTF-8 access log at ``path``."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        lineno = head.replace("\r\n", "\n").replace("\r", "\n").count("\n")
        raise _fail(lineno + 1, f"not UTF-8 ({exc.reason})") from None
    # Universal newlines, as a text-mode open() would split the lines.
    return parse_trace(io.StringIO(text, newline=None))


def write_trace(records: Sequence[TraceRecord],
                path: Union[str, Path]) -> None:
    """Write records to ``path`` as a JSON-lines access log."""
    Path(path).write_text(format_trace(records), encoding="utf-8")


# --------------------------------------------------------------------- #
# Mixed-pattern generation
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class MixedPatternConfig:
    """Knobs of the seed-deterministic mixed-pattern log generator.

    Each tenant walks the id universe with three interleaved access
    patterns, chosen per step with the given weights:

    * **sequential** — start a run of ``run_length`` consecutive ids
      (wrapping at the universe edge);
    * **short jump** — hop ``±1..short_jump_span`` ids from the current
      position;
    * **long jump** — teleport uniformly anywhere in the universe.

    ``dep_probability`` controls how often a record declares its tenant's
    previous arrival as a dependency; ``size_range`` (inclusive), when
    set, assigns each graph id a deterministic subtask count so repeats
    of an id stay the same graph.
    """

    records: int = 1000
    universe: int = 64
    seed: int = 2005
    tenants: int = 1
    run_length: Tuple[int, int] = (4, 12)
    short_jump_span: int = 4
    sequential_weight: float = 0.6
    short_jump_weight: float = 0.25
    long_jump_weight: float = 0.15
    mean_interarrival: float = 1.0
    dep_probability: float = 0.2
    size_range: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.records < 1:
            raise WorkloadError("records must be positive")
        if self.universe < 1:
            raise WorkloadError("universe must be positive")
        if self.tenants < 1:
            raise WorkloadError("tenants must be positive")
        low, high = self.run_length
        if not 1 <= low <= high:
            raise WorkloadError("run_length must be an increasing pair "
                                "of positive integers")
        if self.short_jump_span < 1:
            raise WorkloadError("short_jump_span must be positive")
        weights = (self.sequential_weight, self.short_jump_weight,
                   self.long_jump_weight)
        if any(weight < 0 for weight in weights) or sum(weights) <= 0:
            raise WorkloadError("pattern weights must be non-negative "
                                "and not all zero")
        if self.mean_interarrival <= 0:
            raise WorkloadError("mean_interarrival must be positive")
        if not 0 <= self.dep_probability <= 1:
            raise WorkloadError("dep_probability must lie in [0, 1]")
        if self.size_range is not None:
            size_low, size_high = self.size_range
            if not 1 <= size_low <= size_high <= MAX_TRACE_SUBTASKS:
                raise WorkloadError(
                    "size_range must be an increasing pair within "
                    f"[1, {MAX_TRACE_SUBTASKS}]"
                )


def _size_for(graph_id: int, config: MixedPatternConfig) -> Optional[int]:
    """Deterministic per-id graph size (same id -> same size, always)."""
    if config.size_range is None:
        return None
    low, high = config.size_range
    rng = random.Random(f"{config.seed}:size:{graph_id}")
    return rng.randint(low, high)


def _tenant_stream(config: MixedPatternConfig, tenant_index: int,
                   count: int) -> List[TraceRecord]:
    """One tenant's arrivals, in that tenant's local order."""
    rng = random.Random(f"{config.seed}:tenant:{tenant_index}")
    tenant = "default" if config.tenants == 1 else f"t{tenant_index}"
    weights = (config.sequential_weight, config.short_jump_weight,
               config.long_jump_weight)
    position = rng.randrange(config.universe)
    run_remaining = 0
    clock = 0.0
    previous: Optional[int] = None
    records: List[TraceRecord] = []
    for _ in range(count):
        clock += rng.expovariate(1.0 / config.mean_interarrival)
        if run_remaining > 0:
            position = (position + 1) % config.universe
            run_remaining -= 1
        else:
            pattern = rng.choices(("sequential", "short", "long"),
                                  weights=weights)[0]
            if pattern == "sequential":
                position = (position + 1) % config.universe
                run_remaining = rng.randint(*config.run_length) - 1
            elif pattern == "short":
                hop = rng.randint(1, config.short_jump_span)
                if rng.random() < 0.5:
                    hop = -hop
                position = (position + hop) % config.universe
            else:
                position = rng.randrange(config.universe)
        deps: Tuple[int, ...] = ()
        if previous is not None and previous != position \
                and rng.random() < config.dep_probability:
            deps = (previous,)
        records.append(TraceRecord(
            timestamp=round(clock, 6),
            graph_id=position,
            size=_size_for(position, config),
            deps=deps,
            tenant=tenant,
        ))
        previous = position
    return records


def generate_mixed_trace(config: MixedPatternConfig) -> List[TraceRecord]:
    """Synthesize a mixed-pattern multi-tenant access log, deterministically.

    Per-tenant streams (seeded independently from ``config.seed``) are
    merged by timestamp, so tenants genuinely interleave; ties break by
    tenant index to keep the merge total and reproducible.  Dependencies
    always point at the same tenant's previous arrival, which the merge
    keeps earlier in the stream — the output therefore always satisfies
    :func:`parse_trace`'s invariants, and round-trips byte-identically
    through :func:`format_trace`.
    """
    base, extra = divmod(config.records, config.tenants)
    streams: List[Tuple[int, List[TraceRecord]]] = []
    for tenant_index in range(config.tenants):
        count = base + (1 if tenant_index < extra else 0)
        if count:
            streams.append(
                (tenant_index, _tenant_stream(config, tenant_index, count))
            )
    tagged = [
        (record.timestamp, tenant_index, position, record)
        for tenant_index, stream in streams
        for position, record in enumerate(stream)
    ]
    tagged.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in tagged]


# --------------------------------------------------------------------- #
# The trace workload family
# --------------------------------------------------------------------- #
@register_workload("trace", options_schema={
    "graph_id": int,
    "trace_seed": int,
    "subtasks": int,
    "scenarios": int,
    "granularity": float,
    "reconfiguration_latency": float,
})
class TraceWorkload(Workload):
    """One trace arrival: a single deterministic task graph by id.

    The graph is a :func:`~repro.graphs.generators.multimedia_like` DAG
    seeded purely by ``(trace_seed, graph_id)`` — two records with the
    same id (and size) in any process, on any host, build the identical
    workload, which is what makes trace ids cache keys.  Scenario
    variants perturb execution times only, sharing the base graph's
    configurations, exactly like the synthetic family.
    """

    name = "trace"

    def __init__(self, graph_id: int,
                 trace_seed: int = 0,
                 subtasks: int = DEFAULT_TRACE_SUBTASKS,
                 scenarios: int = 2,
                 granularity: float = 3.0,
                 reconfiguration_latency: float = DEFAULT_RECONFIGURATION_LATENCY_MS
                 ) -> None:
        if graph_id < 0:
            raise WorkloadError("graph_id must be non-negative")
        if not 1 <= subtasks <= MAX_TRACE_SUBTASKS:
            raise WorkloadError(
                f"subtasks must lie in [1, {MAX_TRACE_SUBTASKS}]"
            )
        if scenarios < 1:
            raise WorkloadError("scenarios must be positive")
        if granularity <= 0:
            raise WorkloadError("granularity must be positive")
        self.graph_id = graph_id
        self.trace_seed = trace_seed
        self.subtasks = subtasks
        self.scenarios = scenarios
        self.granularity = granularity
        rng = random.Random(f"{trace_seed}:trace:{graph_id}")
        base = multimedia_like(
            name=f"trace{graph_id}",
            subtask_count=subtasks,
            reconfiguration_latency=reconfiguration_latency,
            granularity=granularity,
            seed=rng,
        )
        task = DynamicTask(f"trace{graph_id}", [
            Scenario(name=f"s{scenario_index}",
                     graph=_scenario_variant(base, scenario_index, rng))
            for scenario_index in range(scenarios)
        ])
        super().__init__(
            task_set=TaskSet(f"trace_g{graph_id}", [task]),
            reconfiguration_latency=reconfiguration_latency,
            tile_counts=(4, 6, 8),
        )
        # Per-instance name: stream reports distinguish graphs by id.
        self.name = f"trace_g{graph_id}"

    def spec_options(self) -> Dict[str, object]:
        return {
            "graph_id": self.graph_id,
            "trace_seed": self.trace_seed,
            "subtasks": self.subtasks,
            "scenarios": self.scenarios,
            "granularity": self.granularity,
            "reconfiguration_latency": self.reconfiguration_latency,
        }

    def draw_instances(self, rng: random.Random) -> List[TaskInstance]:
        task = self.task_set.tasks[0]
        return [TaskInstance(task=task, scenario=task.draw_scenario(rng))]
