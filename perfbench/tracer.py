"""Per-layer span tracing from outside the program.

:data:`LAYERS` is the layer table.  Each :class:`Layer` names the public
calls of ``src/repro`` it times, the hooks that read extra counters off
their results, its extra metrics, and the end-to-end metric and workload
a change to the layer should move.  :class:`Tracer` wraps those calls: a
wrapped call is a span, spans nest per thread, and a layer's self time is
the sum of its spans' durations minus the time their child spans cover.
Aggregates (calls, inclusive and self seconds, counters) stay in memory
and :meth:`Tracer.metrics` turns them into the per-layer metrics.

Module-level functions are imported by name into many modules
(``subtask_weights`` and ``replay_schedule`` into six each), so patching
only the defining module would miss most call sites: :meth:`install`
replaces *every* binding of the function in the loaded ``repro`` modules,
and modules imported later pick up the wrapper from the defining module.
Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import threading
import weakref
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: ``hook(tracer, args, kwargs, result, seconds)`` sees a completed call.
Hook = Callable[["Tracer", tuple, dict, object, float], None]


@dataclass(frozen=True)
class Metric:
    """A per-layer metric beyond ``<layer>.calls`` and ``<layer>.self_s``."""

    name: str
    unit: str
    better: str
    #: "host" for host time, "exact" for a simulated or counted quantity
    #: that repeats exactly.
    kind: str
    what: str
    #: Computes the value from a tracer's aggregates (None: computed by
    #: hand, see :meth:`Tracer.metrics` and ``run.per_layer``).
    value: Optional[Callable[["Tracer"], float]] = None


@dataclass(frozen=True)
class Layer:
    """One layer of the traced run."""

    #: Timed public calls, ``module:qualified.name`` -> result hook.
    timed: Dict[str, Optional[Hook]]
    #: End-to-end metrics (on workloads) a change to the layer should move.
    moves: Tuple[str, ...]
    #: The layer must show calls on its heavy workload and does little on
    #: its light one.
    heavy: str
    light: Optional[str] = None
    extra: Tuple[Metric, ...] = ()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------------------- #
# Result hooks: the extra counters are read where the work happens.
# --------------------------------------------------------------------- #
def _bb(tracer, args, kwargs, result, elapsed) -> None:
    tracer.counters["bb.visited_nodes"] += result.stats.states_extended
    tracer.counters["bb.tt_hits"] += result.stats.tt_hits


def _pool(tracer, args, kwargs, engine, elapsed) -> None:
    tracer.counters["pool.lookups"] += 1
    if engine in tracer.seen_engines:
        tracer.counters["pool.hits"] += 1
    else:
        tracer.seen_engines.add(engine)


def _reuse(tracer, args, kwargs, decision, elapsed) -> None:
    placed = kwargs["placed"] if "placed" in kwargs else args[1]
    tracer.counters["reuse.reused"] += len(decision.reused)
    tracer.counters["reuse.drhw"] += len(placed.drhw_names)


def _sim(tracer, args, kwargs, result, elapsed) -> None:
    tracer.counters["sim.task_executions"] += result.metrics.task_executions


def _result_load(tracer, args, kwargs, metrics, elapsed) -> None:
    tracer.counters["cache.result.loads"] += 1
    if metrics is not None:
        tracer.counters["cache.result.hits"] += 1


def _tt_save(tracer, args, kwargs, path, elapsed) -> None:
    if path is not None:
        tracer.counters["cache.tt.tables_saved"] += 1


def _tt_prune(tracer, args, kwargs, removed, elapsed) -> None:
    tracer.counters["cache.tt.prune_s"] += elapsed


def _handle(tracer, args, kwargs, response, elapsed) -> None:
    if kwargs.get("payload", args[2] if len(args) > 2 else None) is not None:
        tracer.handle_s.append(elapsed)  # POST requests only


def _http_p50_ms(tracer) -> float:
    http = [client - server for client, server
            in zip(tracer.client_latency_s, tracer.handle_s)]
    return 1e3 * statistics.median(http) if http else 0.0


def _counter(name: str) -> Callable[["Tracer"], float]:
    return lambda tracer: tracer.counters[name]


LAYERS: Dict[str, Layer] = {
    "graphs": Layer(
        timed={"repro.graphs.analysis:subtask_weights": None,
               "repro.graphs.taskgraph:TaskGraph.topological_order": None},
        moves=("wall_s on figure_sweep",),
        heavy="figure_sweep", light="trace_stream"),
    "tcm": Layer(
        timed={"repro.tcm.design_time:TcmDesignTimeScheduler.explore": None},
        moves=("wall_s on trace_stream",),
        heavy="trace_stream", light="figure_sweep"),
    "critical": Layer(
        timed={"repro.core.critical:CriticalSubtaskSelector.select": None},
        moves=("wall_s on trace_stream",),
        heavy="trace_stream", light="figure_sweep"),
    "bb": Layer(
        timed={"repro.scheduling.prefetch_bb:"
               "BranchAndBoundScheduler.schedule": _bb},
        moves=("wall_s on trace_stream", "schedule_p50_ms on daemon_mix"),
        heavy="trace_stream",
        extra=(Metric("bb.visited_nodes", "count", "lower", "exact",
                      "SchedulerStats.states_extended summed over the "
                      "returned results", _counter("bb.visited_nodes")),
               Metric("bb.tt_hits", "count", "higher", "exact",
                      "SchedulerStats.tt_hits summed over the returned "
                      "results", _counter("bb.tt_hits")))),
    "pool": Layer(
        timed={"repro.scheduling.pool:SchedulerPool.engine_for": _pool},
        moves=("wall_s on trace_stream", "schedule_p90_ms on daemon_mix"),
        heavy="trace_stream",
        extra=(Metric("pool.hit_rate", "ratio", "higher", "exact",
                      "engine lookups answered by an engine the pool "
                      "already held / all lookups",
                      lambda t: _ratio(t.counters["pool.hits"],
                                       t.counters["pool.lookups"])),)),
    "list": Layer(
        timed={"repro.scheduling.prefetch_list:"
               "ListPrefetchScheduler.schedule": None,
               "repro.scheduling.noprefetch:OnDemandScheduler.schedule": None},
        moves=("wall_s on figure_sweep",),
        heavy="figure_sweep", light="trace_stream"),
    "replay": Layer(
        timed={"repro.scheduling.evaluator:replay_schedule": None},
        moves=("wall_s on figure_sweep",),
        heavy="figure_sweep", light="trace_stream"),
    "reuse": Layer(
        timed={"repro.reuse.reuse:ReuseModule.analyze": _reuse},
        moves=("wall_s on figure_sweep",),
        heavy="figure_sweep", light="trace_stream",
        extra=(Metric("reuse.rate", "ratio", "higher", "exact",
                      "reused subtasks / DRHW subtasks over every analysis "
                      "(simulated)",
                      lambda t: _ratio(t.counters["reuse.reused"],
                                       t.counters["reuse.drhw"])),)),
    "hybrid_rt": Layer(
        timed={"repro.core.hybrid:HybridPrefetchHeuristic.run_time": None},
        moves=("wall_s on figure_sweep",),
        heavy="figure_sweep",
        extra=(Metric("hybrid_rt.us_per_call", "us", "lower", "host",
                      "inclusive host microseconds per run-time phase "
                      "call: the paper's run-time penalty",
                      lambda t: 1e6 * _ratio(t.total_s["hybrid_rt"],
                                             t.calls["hybrid_rt"])),)),
    "noise": Layer(
        timed={"repro.sim.noise:realize_task": None,
               "repro.sim.noise:apply_realization": None},
        moves=("simulate_p50_ms on daemon_mix "
               "(no calls on figure_sweep and trace_stream)",),
        heavy="daemon_mix"),
    "sim": Layer(
        timed={"repro.sim.simulator:SystemSimulator.run": _sim},
        moves=("wall_s on figure_sweep",),
        heavy="figure_sweep",
        extra=(Metric("sim.us_per_task", "us", "lower", "host",
                      "self host microseconds of SystemSimulator.run (every "
                      "nested layer excluded) per simulated task execution",
                      lambda t: 1e6 * _ratio(
                          t.self_s["sim"],
                          t.counters["sim.task_executions"])),)),
    "cache.result": Layer(
        timed={"repro.runner.cache:ResultCache.load": _result_load,
               "repro.runner.cache:ResultCache.store": None},
        moves=("cached_p50_ms on daemon_mix",),
        heavy="daemon_mix", light="trace_stream",
        extra=(Metric("cache.result.hit_rate", "ratio", "higher", "exact",
                      "loads that returned metrics / all loads",
                      lambda t: _ratio(t.counters["cache.result.hits"],
                                       t.counters["cache.result.loads"])),)),
    "cache.exploration": Layer(
        timed={"repro.runner.cache:ExplorationCache.load": None,
               "repro.runner.cache:ExplorationCache.store": None},
        moves=("wall_s on trace_stream",),
        heavy="trace_stream"),
    "cache.tt": Layer(
        timed={"repro.scheduling.ttstore:TranspositionStore.load": None,
               "repro.scheduling.ttstore:TranspositionStore.save": _tt_save,
               "repro.scheduling.ttstore:TranspositionStore.prune": _tt_prune},
        moves=("wall_s on trace_stream",),
        heavy="trace_stream", light="daemon_mix",
        extra=(Metric("cache.tt.prune_s", "s", "lower", "host",
                      "inclusive host seconds in TranspositionStore.prune",
                      _counter("cache.tt.prune_s")),
               Metric("cache.tt.tables_saved", "count", "lower", "exact",
                      "TranspositionStore.save calls that wrote a table",
                      _counter("cache.tt.tables_saved")),
               Metric("cache.bytes_written", "bytes", "lower", "exact",
                      "size of every cache file written through "
                      "LocalDirBackend.write_json_atomic",
                      _counter("cache.bytes_written")))),
    "service": Layer(
        timed={"repro.service.server:ReproService.handle": _handle},
        moves=("cached_p50_ms on daemon_mix",
               "schedule_p50_ms on daemon_mix"),
        heavy="daemon_mix",
        extra=(Metric("http.p50_ms", "ms", "lower", "host",
                      "median over requests of client-observed latency "
                      "minus server handle time", _http_p50_ms),)),
    # ``import repro.cli``, timed by hand before the wrappers exist.
    "setup": Layer(timed={}, moves=("setup_s on every workload",),
                   heavy="figure_sweep"),
}

#: Whole-run accounting metrics, computed by hand.
ACCOUNTING: Tuple[Metric, ...] = (
    Metric("unattributed.s", "s", "lower", "host",
           "traced wall time minus the self time of every layer but setup, "
           "which runs before the wall clock starts"),
    Metric("traced.wall_s", "s", "lower", "host",
           "wall time of the traced repetition the layer figures come from"),
    Metric("tracing.overhead_s", "s", "lower", "host",
           "median traced wall time minus median untraced wall time of the "
           "same run"),
)


def per_layer_metric_names() -> Dict[str, dict]:
    """Every per-layer metric name -> {"unit", "better"}, in table order."""
    names: Dict[str, dict] = {}
    for layer, spec in LAYERS.items():
        names[f"{layer}.calls"] = {"unit": "count", "better": "lower"}
        names[f"{layer}.self_s"] = {"unit": "s", "better": "lower"}
        for metric in spec.extra:
            names[metric.name] = {"unit": metric.unit, "better": metric.better}
    for metric in ACCOUNTING:
        names[metric.name] = {"unit": metric.unit, "better": metric.better}
    return names


class Tracer:
    """Span aggregates per layer, fed by wrappers around repro calls."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Extra counters the result hooks feed (visited nodes, hits, ...).
        self.counters: Dict[str, float] = defaultdict(float)
        #: Per-request server handle times, in arrival order.
        self.handle_s: List[float] = []
        #: Client-observed latencies in the same order (daemon_mix); they
        #: pair with ``handle_s`` to give the HTTP share of each request.
        self.client_latency_s: List[float] = []
        self.seen_engines: "weakref.WeakSet" = weakref.WeakSet()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    def record(self, layer: str, seconds: float) -> None:
        """Account a span measured elsewhere (the setup import)."""
        self.calls[layer] += 1
        self.total_s[layer] += seconds
        self.self_s[layer] += seconds

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, function: Callable,
             hook: Optional[Hook] = None) -> Callable:
        """``function`` as a span of ``layer``."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time covered by this span's children
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[layer] += 1
                self.total_s[layer] += elapsed
                self.self_s[layer] += elapsed - children
            if hook is not None:
                hook(self, args, kwargs, result, elapsed)
            return result

        return traced

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every timed call of every layer (once per process)."""
        for layer, spec in LAYERS.items():
            for target, hook in spec.timed.items():
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                owner_name, _, attribute = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attribute]
                    setattr(owner, attribute, self.wrap(layer, original, hook))
                else:
                    original = getattr(module, attribute)
                    _rebind(original, self.wrap(layer, original, hook))
        self._count_bytes_written()

    def _count_bytes_written(self) -> None:
        """Counter only (no span): bytes of every atomic cache write."""
        from repro.storage import LocalDirBackend

        original = LocalDirBackend.write_json_atomic
        counters = self.counters

        @functools.wraps(original)
        def counted(backend, name, entry):
            original(backend, name, entry)
            counters["cache.bytes_written"] += os.stat(
                backend.path_for(name)).st_size

        LocalDirBackend.write_json_atomic = counted

    # ------------------------------------------------------------------ #
    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of one traced repetition of ``wall_s``."""
        values: Dict[str, float] = {}
        attributed = 0.0
        for layer, spec in LAYERS.items():
            values[f"{layer}.calls"] = self.calls[layer]
            values[f"{layer}.self_s"] = self.self_s[layer]
            if layer != "setup":
                attributed += self.self_s[layer]
            for metric in spec.extra:
                values[metric.name] = metric.value(self)
        values["unattributed.s"] = wall_s - attributed
        values["traced.wall_s"] = wall_s
        return values

    def dump(self) -> dict:
        """The raw aggregates, JSON-ready (sent across a process edge)."""
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counters": dict(self.counters),
                "handle_s": list(self.handle_s)}

    @classmethod
    def from_dump(cls, data: dict) -> "Tracer":
        tracer = cls()
        tracer.calls.update(data["calls"])
        tracer.total_s.update(data["total_s"])
        tracer.self_s.update(data["self_s"])
        tracer.counters.update(data["counters"])
        tracer.handle_s.extend(data["handle_s"])
        return tracer


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module binding of ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
