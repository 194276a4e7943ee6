"""Regenerate the benchmark's committed reference files.

    python3 perfbench/regen.py expected
    python3 perfbench/regen.py baseline
    python3 perfbench/regen.py spread

``expected`` recomputes ``expected.json``, the digests every run checks
its outputs against: the 30 ``figure_sweep`` points, every graph id of
the ``trace_stream`` universe, and every ``/schedule`` answer of the
``daemon_mix`` (computed through the in-process service, which answers
byte-identically to the daemon).  Run it only for a change that is meant
to alter results, and say so in the change.

``baseline`` runs ``run.py`` with seed 1 for ``run_seconds`` (from
``BENCHMARK.json``) on every workload with ``--trace 0`` and
``--trace 1``, printing each run's metrics with their units and failed
operations, and writes ``baseline.json``: the metrics, the layer with
the largest self time per workload, and the host it ran on.

``spread`` runs ``run.py --trace 0`` with ten seeds on every workload
and writes ``spread.json``: every run's end-to-end values and, per
metric, their minimum, maximum, median and interquartile range as a
share of the median, the figure each metric's ``bound`` is checked
against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from run import WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = SPEC["run_seconds"]
BASELINE_SEED = 1
SPREAD_SEEDS = tuple(range(101, 111))


def expected() -> dict:
    import workloads
    from repro.service import ReproService, ServiceState
    from repro.workloads.traces import TraceRecord

    figure = workloads.summarize_figure_sweep(
        workloads.run_figure_sweep(workloads.figure_points(0)))
    universe = [TraceRecord(timestamp=float(graph_id), graph_id=graph_id)
                for graph_id in range(workloads.TRACE_UNIVERSE)]
    with tempfile.TemporaryDirectory(dir=ROOT) as cache_dir:
        trace = workloads.summarize_trace(
            workloads.run_trace(universe, cache_dir))
    service = ReproService(ServiceState())
    schedule = {}
    for key, payload in workloads.schedule_requests():
        status, body = service.handle("/schedule", payload)
        if status != 200:
            raise SystemExit(f"/schedule {key} answered {status}: {body}")
        schedule[key] = workloads.schedule_digest(body)
    return {"figure_sweep": dict(sorted(figure["digests"])),
            "trace_stream": dict(trace["digests"]),
            "daemon_mix": schedule}


def run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS),
               "--trace", str(trace), "--verbose"]
    output = subprocess.run(command, cwd=str(ROOT), check=True,
                            stdout=subprocess.PIPE, text=True).stdout
    return json.loads(output.strip().splitlines()[-1])


def host() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version()}


def baseline() -> dict:
    report = {"host": host(), "seed": BASELINE_SEED, "seconds": SECONDS,
              "workloads": {}}
    for workload in WORKLOADS:
        plain = run(workload, BASELINE_SEED, 0)
        traced = run(workload, BASELINE_SEED, 1)
        values = {name: metric["value"]
                  for name, metric in traced["metrics"].items()}
        report["workloads"][workload] = {
            "largest_self_time_layer": max(
                LAYERS, key=lambda layer: values[f"{layer}.self_s"]),
            "end_to_end": plain,
            "per_layer": traced,
        }
    return report


def spread() -> dict:
    report = {"host": host(), "seeds": list(SPREAD_SEEDS),
              "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run(workload, seed, 0) for seed in SPREAD_SEEDS]
        if not all(result["correct"] for result in runs):
            raise SystemExit(f"{workload}: a run reported failed operations")
        summary = {}
        for metric in SPEC["end_to_end"]:
            values = [result["metrics"][metric["name"]]["value"]
                      for result in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {
                "bound": metric["bound"], "min": min(values),
                "max": max(values), "median": median,
                "iqr_share": (q3 - q1) / median, "values": values,
            }
        report["workloads"][workload] = summary
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("expected", "baseline", "spread"))
    what = parser.parse_args().what
    make = {"expected": expected, "baseline": baseline, "spread": spread}
    target = BENCH / f"{what}.json"
    data = make[what]()
    with open(target, "w", encoding="utf-8") as stream:
        json.dump(data, stream, indent=1)
        stream.write("\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
