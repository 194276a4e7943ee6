"""Command-line interface.

``python -m repro`` (or the ``repro-drhw`` console script) regenerates the
paper's tables and figures from the terminal::

    repro-drhw table1
    repro-drhw figure6 --iterations 1000 --jobs 4
    repro-drhw figure7 --iterations 1000 --jobs 4 --cache-dir .repro-cache
    repro-drhw scalability
    repro-drhw hide-rate
    repro-drhw ablation --study replacement
    repro-drhw demo --task jpeg_decoder

Every sub-command prints a plain-text table.  ``figure6``, ``figure7``,
``robustness`` and the inter-task and replacement ablations run the
artifacts declared in :mod:`repro.experiments.artifacts` through its one
driver, :func:`~repro.experiments.artifacts.run_artifact`; the per-graph
studies have a module each in :mod:`repro.experiments`.  ``robustness``
sweeps noise intensity x approaches x seeds into overhead-vs-noise curves
with 95 % confidence intervals, decomposed into planned and fault-induced
work (see :mod:`repro.experiments.robustness`).

The simulation sweeps run through :mod:`repro.runner`: ``--jobs N`` fans
a sweep out over N worker processes (``--jobs 0``: one per CPU), and
``--cache-dir PATH`` memoizes completed points, the TCM design-time
explorations (``PATH/explorations``) and, unless ``--no-tt-cache``, the
exact scheduler's transposition tables (``PATH/ttables``), so warm reruns
skip simulation, exploration and proven search.  Results stay
bit-identical to a sequential uncached run either way.

``repro-drhw sweep`` exposes the sweep engine directly: an arbitrary
workloads x approaches x tiles x seeds grid, reported as mean ± 95 % CI
per curve when several seeds are given, optionally perturbed by the
stochastic run-time layer (``--fault-rate``, ``--latency-sigma``,
``--latency-jitter``, ``--execution-sigma``, ``--load-failure-rate``,
``--max-retries``).  With ``--distributed``, any number of processes or
machines pointed at one shared ``--cache-dir`` partition the grid through
heartbeat-refreshed claim files (see :mod:`repro.runner.engine`);
``--claim-ttl`` only sets how fast a *crashed* worker is taken over.

``repro-drhw serve`` starts the online scheduling service, a long-lived
HTTP daemon answering ``/schedule``, ``/simulate`` and ``/robustness``
from one warm engine pool (see :mod:`repro.service`).  ``repro-drhw trace
generate`` synthesizes a seed-deterministic multi-tenant access log, and
``repro-drhw trace run`` replays one through the cached sweep engine or,
with ``--service HOST:PORT``, a live daemon, reporting warm hit rates
(``--min-warm-rate`` makes the report a CI gate; log format in
:mod:`repro.workloads.traces`).  ``repro-drhw cache gc`` bounds a shared
cache directory: ``--max-bytes`` evicts memoized entries least recently
used first (evicted entries recompute bit-identically), every run sweeps
expired claims and crashed-writer debris, and ``--dry-run`` previews.

The package's own errors (a malformed trace log, a bad option value) end
in one ``repro-drhw: error:`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .core.hybrid import HybridPrefetchHeuristic
from .errors import ConfigurationError, ReproError
from .experiments.ablation import run_engine_ablation, run_pick_metric_ablation
from .experiments.artifacts import (
    FIGURE6,
    FIGURE7,
    INTERTASK_ABLATION,
    REPLACEMENT_ABLATION,
    ROBUSTNESS,
    run_artifact,
)
from .experiments.hide_rate import run_hide_rate
from .experiments.robustness import (
    DEFAULT_APPROACHES as DEFAULT_ROBUSTNESS_APPROACHES,
)
from .experiments.scalability import run_scalability
from .experiments.table1 import run_table1
from .platform.description import Platform
from .runner import SweepEngine, default_jobs
from .scheduling.base import PrefetchProblem
from .scheduling.list_scheduler import build_initial_schedule
from .scheduling.noprefetch import OnDemandScheduler
from .scheduling.prefetch_bb import OptimalPrefetchScheduler
from .sim.trace import render_gantt
from .workloads import registry as workload_registry


def build_parser() -> argparse.ArgumentParser:
    """Build the command-line argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-drhw",
        description="Reproduction of the DATE'05 hybrid prefetch scheduling "
                    "heuristic for dynamically reconfigurable hardware.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_jobs_flag(subparser) -> None:
        subparser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for the sweep engine (1 = in-process, "
                 "0 = one per CPU); results are identical either way",
        )

    def add_cache_flag(subparser) -> None:
        subparser.add_argument(
            "--cache-dir", default=None, metavar="PATH",
            help="directory memoizing completed sweep points and TCM "
                 "design-time explorations; a warm rerun with identical "
                 "parameters skips simulation and exploration",
        )
        subparser.add_argument(
            "--tt-cache", action=argparse.BooleanOptionalAction,
            default=True,
            help="with --cache-dir: persist exact-search transposition "
                 "tables under PATH/ttables so reruns and fresh workers "
                 "warm-start the branch-and-bound engine (results are "
                 "bit-identical either way)",
        )

    table1 = subparsers.add_parser("table1", help="Regenerate Table 1")
    add_jobs_flag(table1)

    for name, figure in (("figure6", FIGURE6), ("figure7", FIGURE7)):
        command = subparsers.add_parser(name,
                                        help=f"Regenerate Figure {name[-1]}")
        command.add_argument("--iterations", type=int,
                             default=figure.iterations,
                             help="simulated iterations (paper: 1000)")
        command.add_argument("--seed", type=int, default=figure.seeds[0])
        command.add_argument("--tiles", type=int, nargs="*",
                             default=list(figure.xs))
        add_jobs_flag(command)
        add_cache_flag(command)

    scalability = subparsers.add_parser(
        "scalability", help="Run-time scheduling cost vs graph size"
    )
    scalability.add_argument("--sizes", type=int, nargs="*",
                             default=[7, 14, 28, 56, 112])

    hide_rate = subparsers.add_parser(
        "hide-rate", help="Fraction of load latencies hidden (no reuse)"
    )
    add_jobs_flag(hide_rate)

    ablation = subparsers.add_parser("ablation", help="Run an ablation study")
    ablation.add_argument("--study",
                          choices=["pick-metric", "inter-task", "replacement",
                                   "engine", "all"],
                          default="all")
    ablation.add_argument("--iterations", type=int,
                          default=INTERTASK_ABLATION.iterations)
    add_jobs_flag(ablation)
    add_cache_flag(ablation)

    sweep = subparsers.add_parser(
        "sweep",
        help="Run an arbitrary sweep grid (mean ± CI over seeds; "
             "optionally distributed over a shared cache directory)",
    )
    sweep.add_argument("--workloads", nargs="+", default=["multimedia"],
                       metavar="NAME",
                       help="workload registry names (default: multimedia)")
    sweep.add_argument("--approaches", nargs="+", default=["hybrid"],
                       metavar="NAME",
                       help="approach registry names (default: hybrid)")
    sweep.add_argument("--tiles", type=int, nargs="+", default=[8],
                       help="tile counts to sweep")
    sweep.add_argument("--seeds", type=int, nargs="+", default=[2005],
                       help="simulation seeds; several seeds turn the "
                            "report into a mean ± 95%% CI ensemble")
    sweep.add_argument("--iterations", type=int, default=300,
                       help="simulated iterations per point")
    sweep.add_argument("--metric", default="overhead_percent",
                       help="SimulationMetrics attribute to report "
                            "(default: overhead_percent)")
    sweep.add_argument("--fault-rate", type=float, default=0.0,
                       metavar="P",
                       help="probability that a resident configuration is "
                            "lost between iterations (fault injection; "
                            "default: 0)")
    sweep.add_argument("--latency-sigma", type=float, default=0.0,
                       metavar="S",
                       help="lognormal sigma of multiplicative "
                            "reconfiguration-latency noise (default: 0)")
    sweep.add_argument("--latency-jitter", type=float, default=0.0,
                       metavar="J",
                       help="maximum additive latency jitter per load "
                            "(default: 0)")
    sweep.add_argument("--execution-sigma", type=float, default=0.0,
                       metavar="S",
                       help="lognormal sigma of per-subtask execution-time "
                            "misestimation (default: 0)")
    sweep.add_argument("--load-failure-rate", type=float, default=0.0,
                       metavar="P",
                       help="per-attempt probability that an in-flight "
                            "configuration load fails and must be retried "
                            "(default: 0)")
    sweep.add_argument("--max-retries", type=int, default=3, metavar="N",
                       help="failed load attempts before a prefetch is "
                            "abandoned / an on-demand load is forced "
                            "through (default: 3)")
    sweep.add_argument("--distributed", action="store_true",
                       help="cooperate with other workers sharing "
                            "--cache-dir: claim files partition the grid "
                            "so no point is computed twice")
    sweep.add_argument("--worker-id", default=None, metavar="ID",
                       help="label identifying this worker in claim files "
                            "(default: hostname-pid)")
    sweep.add_argument("--claim-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="seconds after which another worker's claim "
                            "counts as abandoned and is taken over")
    add_jobs_flag(sweep)
    add_cache_flag(sweep)

    robustness = subparsers.add_parser(
        "robustness",
        help="Overhead-vs-noise degradation curves (mean ± 95%% CI over "
             "seeds) under the stochastic run-time layer",
    )
    robustness.add_argument("--workload", default="multimedia",
                            metavar="NAME",
                            help="workload registry name "
                                 "(default: multimedia)")
    robustness.add_argument("--tiles", type=int,
                            default=ROBUSTNESS.tile_count,
                            help="tile count of the platform (default: 8)")
    robustness.add_argument("--levels", type=float, nargs="+",
                            default=list(ROBUSTNESS.xs),
                            metavar="I",
                            help="noise intensities to sweep; 0 is the "
                                 "noise-free simulator (default: "
                                 "0 0.15 0.3 0.5)")
    robustness.add_argument("--approaches", nargs="+",
                            default=list(DEFAULT_ROBUSTNESS_APPROACHES),
                            metavar="NAME",
                            help="approach registry names (default: "
                                 "design-time run-time+inter-task hybrid "
                                 "adaptive)")
    robustness.add_argument("--seeds", type=int, nargs="+",
                            default=list(ROBUSTNESS.seeds),
                            help="simulation seeds per cell (default: 5 "
                                 "seeds)")
    robustness.add_argument("--iterations", type=int,
                            default=ROBUSTNESS.iterations,
                            help="simulated iterations per point "
                                 "(default: 60)")
    add_jobs_flag(robustness)
    add_cache_flag(robustness)

    cache = subparsers.add_parser(
        "cache",
        help="Maintain a (shared) cache directory",
    )
    cache_commands = cache.add_subparsers(dest="cache_command",
                                          required=True)
    gc = cache_commands.add_parser(
        "gc",
        help="Bound a long-lived cache directory: evict memoized entries "
             "LRU-by-mtime to a byte budget and sweep expired claims, "
             "takeover tombstones and crashed-writer temp files",
    )
    gc.add_argument("--cache-dir", required=True, metavar="PATH",
                    help="the cache directory to collect (the same PATH "
                         "the sweeps were given)")
    gc.add_argument("--max-bytes", type=parse_byte_size, default=None,
                    metavar="N[k|M|G]",
                    help="byte budget for memoized entries; the least "
                         "recently modified results/explorations/ttables "
                         "are evicted until the directory fits (eviction "
                         "is always safe: evicted entries recompute "
                         "bit-identically on the next run)")
    gc.add_argument("--claim-ttl", type=float, default=None,
                    metavar="SECONDS",
                    help="claim files and tombstones older than this are "
                         "debris (default: the fleet default TTL); pass "
                         "the fleet's --claim-ttl if it was raised")
    gc.add_argument("--temp-age", type=float, default=None,
                    metavar="SECONDS",
                    help="atomic-writer .tmp-* files older than this are "
                         "crashed-writer debris (default: 3600)")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be freed without deleting "
                         "anything")

    serve = subparsers.add_parser(
        "serve",
        help="Run the online scheduling service: a long-lived daemon "
             "answering schedule/simulate/robustness requests from one "
             "process-wide warm engine pool (see repro.service)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1; the "
                            "protocol is unauthenticated)")
    serve.add_argument("--port", type=int, default=None, metavar="PORT",
                       help="TCP port (default: 8642; 0 picks an "
                            "ephemeral port, announced in the readiness "
                            "line)")
    serve.add_argument("--max-pending", type=int, default=None, metavar="N",
                       help="computations queued or running before the "
                            "admission gate sheds requests with 429 "
                            "(default: 8)")
    serve.add_argument("--max-explorations", type=int, default=None,
                       metavar="N",
                       help="resident (workload, platform, exploration) "
                            "trios kept warm (default: 8)")
    serve.add_argument("--shed-retry-after", type=float, default=None,
                       metavar="SECONDS",
                       help="retry hint attached to shed responses "
                            "(default: 1.0)")
    add_cache_flag(serve)

    demo = subparsers.add_parser(
        "demo", help="Show the prefetch schedules of one benchmark task"
    )
    demo.add_argument("--task", choices=workload_registry.task_graph_names(),
                      default="jpeg_decoder")
    demo.add_argument("--tiles", type=int, default=8)
    demo.add_argument("--latency", type=float, default=4.0)

    trace = subparsers.add_parser(
        "trace",
        help="Generate and replay trace-driven workload streams: access "
             "logs of task-graph arrivals fed through the cached sweep "
             "engine or a live daemon (see repro.workloads.traces)",
    )
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)

    def add_pattern_flags(subparser) -> None:
        subparser.add_argument("--records", type=int, default=1000,
                               metavar="N",
                               help="arrivals to synthesize (default: 1000)")
        subparser.add_argument("--universe", type=int, default=64,
                               metavar="M",
                               help="distinct graph ids the patterns walk "
                                    "over (default: 64)")
        subparser.add_argument("--gen-seed", type=int, default=2005,
                               metavar="S",
                               help="generator seed; the same seed and "
                                    "knobs yield the byte-identical log "
                                    "(default: 2005)")
        subparser.add_argument("--tenants", type=int, default=1, metavar="T",
                               help="independent tenant streams merged by "
                                    "timestamp (default: 1)")
        subparser.add_argument("--run-length", type=int, nargs=2,
                               default=[4, 12], metavar=("MIN", "MAX"),
                               help="sequential-run length bounds "
                                    "(default: 4 12)")
        subparser.add_argument("--short-span", type=int, default=4,
                               metavar="K",
                               help="maximum short-jump distance "
                                    "(default: 4)")
        subparser.add_argument("--p-sequential", type=float, default=0.6,
                               metavar="P",
                               help="weight of sequential runs "
                                    "(default: 0.6)")
        subparser.add_argument("--p-short", type=float, default=0.25,
                               metavar="P",
                               help="weight of short jumps (default: 0.25)")
        subparser.add_argument("--p-long", type=float, default=0.15,
                               metavar="P",
                               help="weight of long random jumps "
                                    "(default: 0.15)")
        subparser.add_argument("--mean-interarrival", type=float,
                               default=1.0, metavar="MS",
                               help="mean exponential inter-arrival time "
                                    "per tenant (default: 1.0)")
        subparser.add_argument("--sizes", type=int, nargs=2, default=None,
                               metavar=("MIN", "MAX"),
                               help="emit a deterministic per-id graph "
                                    "size in this range (default: none; "
                                    "the stream default applies)")

    generate = trace_commands.add_parser(
        "generate",
        help="Synthesize a seed-deterministic mixed-pattern access log "
             "(sequential runs, short jumps, long random jumps, "
             "interleaved across tenants)",
    )
    add_pattern_flags(generate)
    generate.add_argument("--out", default="-", metavar="PATH",
                          help="write the JSON-lines log here "
                               "('-' = stdout, the default)")

    trace_run = trace_commands.add_parser(
        "run",
        help="Stream an access log (or a freshly synthesized one) through "
             "the sweep engine — or through a live `repro serve` daemon "
             "with --service — and report per-stream warm hit rates",
    )
    trace_run.add_argument("--log", default=None, metavar="PATH",
                           help="JSON-lines access log to replay; omitted: "
                                "synthesize one from the pattern flags")
    add_pattern_flags(trace_run)
    trace_run.add_argument("--limit", type=int, default=None, metavar="N",
                           help="replay only the first N records")
    trace_run.add_argument("--approach", default="hybrid", metavar="NAME",
                           help="approach registry name (default: hybrid)")
    trace_run.add_argument("--tiles", type=int, default=6,
                           help="tile count of the platform (default: 6)")
    trace_run.add_argument("--iterations", type=int, default=5,
                           help="simulated iterations per graph "
                                "(default: 5; streams are long)")
    trace_run.add_argument("--sim-seed", type=int, default=2005,
                           metavar="S",
                           help="simulation seed (default: 2005)")
    trace_run.add_argument("--trace-seed", type=int, default=0, metavar="S",
                           help="seed deriving each graph id's structure "
                                "(default: 0)")
    trace_run.add_argument("--subtasks", type=int, default=6, metavar="N",
                           help="graph size when a record has no 'size' "
                                "(default: 6)")
    trace_run.add_argument("--scenarios", type=int, default=2, metavar="N",
                           help="scenario variants per graph (default: 2)")
    trace_run.add_argument("--granularity", type=float, default=3.0,
                           metavar="G",
                           help="mean subtask time as a multiple of the "
                                "reconfiguration latency (default: 3.0)")
    trace_run.add_argument("--latency", type=float, default=4.0,
                           metavar="MS",
                           help="reconfiguration latency (default: 4.0)")
    trace_run.add_argument("--service", default=None, metavar="HOST:PORT",
                           help="stream through a live `repro serve` "
                                "daemon (one /simulate per arrival) "
                                "instead of an in-process engine")
    trace_run.add_argument("--min-warm-rate", type=float, default=None,
                           metavar="R",
                           help="exit non-zero unless the stream's warm "
                                "arrival rate reaches R (CI smoke gate)")
    add_jobs_flag(trace_run)
    add_cache_flag(trace_run)
    return parser


def parse_byte_size(text: str) -> int:
    """Parse a byte budget like ``1500000``, ``64k``, ``10M`` or ``2G``."""
    units = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
    raw = text.strip()
    scale = 1
    if raw and raw[-1].lower() in units:
        scale = units[raw[-1].lower()]
        raw = raw[:-1]
    try:
        value = int(float(raw) * scale)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a byte size (use e.g. 1500000, 64k, 10M, 2G)"
        )
    if value < 0:
        raise argparse.ArgumentTypeError("byte budget must be non-negative")
    return value


def _run_cache_gc(args) -> str:
    """Execute ``cache gc`` and render its report."""
    from .runner import ResultCache

    cache = ResultCache(args.cache_dir)
    kwargs = {"max_bytes": args.max_bytes, "dry_run": args.dry_run}
    if args.claim_ttl is not None:
        kwargs["claim_ttl"] = args.claim_ttl
    if args.temp_age is not None:
        kwargs["temp_age"] = args.temp_age
    report = cache.gc(**kwargs)
    return report.format_table()


def _run_sweep(args, jobs: int, cache_dir: Optional[str]) -> str:
    """Execute the ``sweep`` sub-command and render its report."""
    from .runner import (DEFAULT_CLAIM_TTL, ApproachSpec, SeedEnsemble,
                         SweepEngine, SweepSpec)
    from .sim.noise import PerturbationConfig

    if args.distributed and cache_dir is None:
        raise ConfigurationError(
            "--distributed needs --cache-dir: the shared directory is the "
            "bus workers exchange results and claims through"
        )
    # Any non-zero noise knob engages the stochastic run-time layer; all
    # zero keeps the sweep on the exact deterministic code path.
    perturbation = PerturbationConfig(
        latency_sigma=args.latency_sigma,
        latency_jitter=args.latency_jitter,
        execution_sigma=args.execution_sigma,
        load_failure_rate=args.load_failure_rate,
        max_retries=args.max_retries,
    )
    spec = SweepSpec(
        workloads=tuple(args.workloads),
        approaches=tuple(ApproachSpec.of(name) for name in args.approaches),
        tile_counts=tuple(args.tiles),
        seeds=tuple(args.seeds),
        iterations=args.iterations,
        configuration_fault_rate=args.fault_rate,
        perturbations=(perturbation,),
    )
    engine = SweepEngine(
        max_workers=jobs,
        cache_dir=cache_dir,
        tt_cache=args.tt_cache,
        distributed=args.distributed,
        worker_id=args.worker_id,
        claim_ttl=(args.claim_ttl if args.claim_ttl is not None
                   else DEFAULT_CLAIM_TTL),
    )
    ensemble = SeedEnsemble(spec, metric=args.metric).run(engine)
    lines = [ensemble.format_table()]
    sweep = ensemble.sweep
    lines.append("")
    lines.append(f"points: {len(sweep)} "
                 f"(computed {sweep.computed_count}, "
                 f"cached {sweep.cached_count})")
    return "\n".join(lines)


def _pattern_config(args):
    """Build a :class:`MixedPatternConfig` from the shared pattern flags."""
    from .workloads.traces import MixedPatternConfig

    return MixedPatternConfig(
        records=args.records,
        universe=args.universe,
        seed=args.gen_seed,
        tenants=args.tenants,
        run_length=tuple(args.run_length),
        short_jump_span=args.short_span,
        sequential_weight=args.p_sequential,
        short_jump_weight=args.p_short,
        long_jump_weight=args.p_long,
        mean_interarrival=args.mean_interarrival,
        size_range=tuple(args.sizes) if args.sizes is not None else None,
    )


def _run_trace_generate(args) -> int:
    """Execute ``trace generate``: synthesize and emit an access log."""
    from .workloads.traces import format_trace, generate_mixed_trace

    records = generate_mixed_trace(_pattern_config(args))
    text = format_trace(records)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        tenants = len({record.tenant for record in records})
        print(f"wrote {len(records)} records "
              f"({len({r.graph_id for r in records})} distinct graphs, "
              f"{tenants} tenants) to {args.out}")
    return 0


def _run_trace_run(args, jobs: int, cache_dir: Optional[str]) -> int:
    """Execute ``trace run``: replay a stream, report warm hit rates."""
    from .runner import (SweepEngine, TraceStreamConfig, run_trace_stream,
                        run_trace_stream_via_service)
    from .workloads.traces import generate_mixed_trace, read_trace

    if args.log is not None:
        records = read_trace(args.log)
        source = args.log
    else:
        records = generate_mixed_trace(_pattern_config(args))
        source = f"synthetic (seed {args.gen_seed})"
    if args.limit is not None:
        records = records[:args.limit]

    config = TraceStreamConfig(
        approach=args.approach,
        tile_count=args.tiles,
        seed=args.sim_seed,
        iterations=args.iterations,
        trace_seed=args.trace_seed,
        subtasks=args.subtasks,
        scenarios=args.scenarios,
        granularity=args.granularity,
        reconfiguration_latency=args.latency,
    )
    if args.service is not None:
        from .service.client import ServiceClient

        host, _, port = args.service.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(
                f"--service wants HOST:PORT, got {args.service!r}"
            )
        client = ServiceClient(host=host, port=int(port))
        result = run_trace_stream_via_service(records, config, client)
        transport = f"service {args.service}"
    else:
        engine = SweepEngine(max_workers=jobs, cache_dir=cache_dir,
                             tt_cache=args.tt_cache)
        result = run_trace_stream(records, config, engine)
        transport = f"engine (jobs={jobs})"

    print(f"trace stream: {source} via {transport}")
    for line in result.stats.lines():
        print(line)
    if args.min_warm_rate is not None:
        rate = result.stats.warm_arrival_rate
        if rate < args.min_warm_rate:
            print(f"FAIL: warm arrival rate {rate:.3f} below required "
                  f"{args.min_warm_rate:.3f}")
            return 1
        print(f"warm arrival rate {rate:.3f} >= {args.min_warm_rate:.3f}")
    return 0


def _run_demo(task: str, tiles: int, latency: float) -> str:
    """Render the no-prefetch / optimal / hybrid schedules of one task."""
    graph = workload_registry.build_task_graph(task)
    platform = Platform(tile_count=tiles, reconfiguration_latency=latency)
    placed = build_initial_schedule(graph, platform)
    problem = PrefetchProblem(placed, latency)
    lines: List[str] = [f"Task {graph.name}: {len(graph)} subtasks, ideal "
                        f"makespan {placed.makespan:.1f} ms"]

    no_prefetch = OnDemandScheduler().schedule(problem)
    lines.append("")
    lines.append(f"-- without prefetch (overhead "
                 f"{no_prefetch.overhead_percent:.1f}%)")
    lines.append(render_gantt(no_prefetch.timed))

    optimal = OptimalPrefetchScheduler().schedule(problem)
    lines.append("")
    lines.append(f"-- optimal prefetch, no reuse (overhead "
                 f"{optimal.overhead_percent:.1f}%)")
    lines.append(render_gantt(optimal.timed))

    hybrid = HybridPrefetchHeuristic(latency)
    entry = hybrid.design_time(placed, graph.name)
    execution = hybrid.run_time(entry, reusable=entry.critical_subtasks)
    lines.append("")
    lines.append(f"-- hybrid heuristic with critical subtasks "
                 f"{list(entry.critical_subtasks)} reused (overhead "
                 f"{execution.overhead_percent:.1f}%)")
    lines.append(render_gantt(execution.timed))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.

    The package's own errors (a malformed trace log, a bad option value)
    and file-system errors end in one ``repro-drhw: error:`` line on
    stderr and exit status 2, as argparse's usage errors do.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ReproError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    """Execute the parsed command; returns the exit status."""
    jobs = getattr(args, "jobs", 1)
    if jobs == 0:
        jobs = default_jobs()
    cache_dir = getattr(args, "cache_dir", None)
    tt_cache = getattr(args, "tt_cache", True)

    def engine() -> SweepEngine:
        return SweepEngine(max_workers=jobs, cache_dir=cache_dir,
                           tt_cache=tt_cache)

    if args.command == "table1":
        print(run_table1(jobs=jobs).format_table())
    elif args.command in ("figure6", "figure7"):
        figure = FIGURE6 if args.command == "figure6" else FIGURE7
        print(run_artifact(figure, engine(), xs=args.tiles,
                           iterations=args.iterations,
                           seeds=(args.seed,)).format_table())
    elif args.command == "scalability":
        print(run_scalability(sizes=tuple(args.sizes)).format_table())
    elif args.command == "hide-rate":
        print(run_hide_rate(jobs=jobs).format_table())
    elif args.command == "ablation":
        outputs = []
        if args.study in ("pick-metric", "all"):
            outputs.append(run_pick_metric_ablation().format_table())
        for study, artifact in (("inter-task", INTERTASK_ABLATION),
                                ("replacement", REPLACEMENT_ABLATION)):
            if args.study in (study, "all"):
                outputs.append(run_artifact(
                    artifact, engine(),
                    iterations=args.iterations).format_table())
        if args.study in ("engine", "all"):
            outputs.append(run_engine_ablation().format_table())
        print("\n\n".join(outputs))
    elif args.command == "sweep":
        print(_run_sweep(args, jobs=jobs, cache_dir=cache_dir))
    elif args.command == "robustness":
        print(run_artifact(ROBUSTNESS, engine(), xs=args.levels,
                           tile_count=args.tiles, iterations=args.iterations,
                           seeds=args.seeds, workload=args.workload,
                           approaches=args.approaches).format_table())
    elif args.command == "cache":
        print(_run_cache_gc(args))
    elif args.command == "serve":
        from .service import DEFAULT_PORT, serve as run_service
        return run_service(
            host=args.host,
            port=args.port if args.port is not None else DEFAULT_PORT,
            cache_dir=cache_dir,
            tt_cache=tt_cache,
            max_pending=args.max_pending,
            max_explorations=args.max_explorations,
            shed_retry_after=args.shed_retry_after,
        )
    elif args.command == "demo":
        print(_run_demo(args.task, args.tiles, args.latency))
    elif args.command == "trace":
        if args.trace_command == "generate":
            return _run_trace_generate(args)
        return _run_trace_run(args, jobs=jobs, cache_dir=cache_dir)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
