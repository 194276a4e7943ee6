"""One repetition of ``figure_sweep`` or ``trace_stream``.

``run.py`` starts this script in a fresh interpreter for every
repetition, so no process-wide warm state (the scheduler pool, the
replay-core LRU) carries over from one repetition to the next.  It
prints ``READY`` once the program is imported and the inputs are built
(the end of set-up), then one JSON line: the wall time of the work,
per-operation output digests and, with ``--trace 1``, the per-layer
metrics of the run.

    PYTHONPATH=src python3 perfbench/worker.py figure_sweep --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("figure_sweep", "trace_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", help="fresh cache (trace_stream)")
    args = parser.parse_args()

    start = perf_counter()
    import repro.cli  # noqa: F401 - the program's entry point is set-up
    import_s = perf_counter() - start
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.record("setup", import_s)

    import workloads

    if args.workload == "figure_sweep":
        points = workloads.figure_points(args.seed)
        work = lambda: workloads.run_figure_sweep(points)  # noqa: E731
        summarize = workloads.summarize_figure_sweep
    else:
        records = workloads.trace_records(args.seed)
        work = lambda: workloads.run_trace(records, args.cache_dir)  # noqa: E731
        summarize = workloads.summarize_trace
    print("READY", flush=True)

    start = perf_counter()
    outputs = work()
    wall_s = perf_counter() - start
    result = {"wall_s": wall_s, **summarize(outputs)}
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
