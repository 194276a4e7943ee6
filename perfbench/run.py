"""End-to-end and per-layer benchmark of the prefetch-scheduling system.

    python3 perfbench/run.py --workload figure_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (see ``workloads.py``):
``figure_sweep``, ``trace_stream`` and ``daemon_mix``.  Every repetition
runs in a fresh interpreter with a fresh cache directory under
``.perfbench-tmp/``, repetitions repeat until ``--seconds`` is used up,
and every output is checked against ``perfbench/expected.json``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the repetitions); with ``--trace 1`` repetitions alternate
between untraced and traced, and it reports the per-layer metrics of the
median traced repetition plus the tracing overhead.  ``--verbose`` adds a
human-readable table on stderr.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"

WORKLOADS = ("figure_sweep", "trace_stream", "daemon_mix")
#: Set-up is timed at least this often per run (median reported).
SETUP_SAMPLES = 5
#: A repetition that has not finished by then is killed and fails the run.
REP_TIMEOUT_S = 150.0
READY_PREFIX = "repro service listening on http://"

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "hybrid_overhead_pct": "%",
    "schedule_p50_ms": "ms", "schedule_p90_ms": "ms",
    "simulate_p50_ms": "ms", "simulate_p90_ms": "ms",
    "cached_p50_ms": "ms", "cached_p90_ms": "ms",
}


class BenchmarkError(RuntimeError):
    """A repetition could not run to completion."""


@dataclass
class Rep:
    """What one repetition measured."""

    traced: bool
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    ops: int
    failed: int
    hybrid_overhead_pct: float
    #: Client-observed latency (ms) per request kind (daemon_mix only).
    latency_ms: Dict[str, List[float]] = field(default_factory=dict)
    layers: Optional[Dict[str, float]] = None


# --------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------- #
class Child:
    """A child interpreter: timed from launch, reaped with its peak RSS."""

    def __init__(self, argv: List[str]) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.started = perf_counter()
        self.process = subprocess.Popen(argv, cwd=str(ROOT), env=env,
                                        stdout=subprocess.PIPE, text=True)
        self._watchdog = threading.Timer(REP_TIMEOUT_S, self.process.kill)
        self._watchdog.start()

    def ready(self, prefix: str) -> tuple:
        """Wait for the readiness line; (set-up seconds, the line)."""
        line = self.process.stdout.readline()
        setup_s = perf_counter() - self.started
        if not line.startswith(prefix):
            self.kill()
            raise BenchmarkError(f"expected readiness line {prefix!r}, "
                                 f"got {line!r}")
        return setup_s, line.strip()

    def reap(self) -> float:
        """Wait for the exit; returns peak RSS in MB (fails on non-zero)."""
        self.process.stdout.close()
        _, status, usage = os.wait4(self.process.pid, 0)
        self._watchdog.cancel()
        self.process.returncode = os.waitstatus_to_exitcode(status)
        if self.process.returncode != 0:
            raise BenchmarkError(f"{self.process.args[1:3]} exited with "
                                 f"{self.process.returncode}")
        return usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        """Stop a child that is still running (error paths)."""
        if self.process.returncode is None:
            self.process.kill()
            try:
                os.wait4(self.process.pid, 0)
            except ChildProcessError:
                pass
            self._watchdog.cancel()
            self.process.returncode = -signal.SIGKILL


# --------------------------------------------------------------------- #
# figure_sweep and trace_stream: one worker interpreter per repetition
# --------------------------------------------------------------------- #
def count_failed(keys: List[str], digests: List[list],
                 expected: Dict[str, str]) -> int:
    """Operations of ``keys`` (what the workload asked for) that got no
    answer matching ``expected``, plus every answer nobody asked for."""
    wanted = Counter(keys)
    answered = Counter(key for key, _ in digests)
    correct = Counter(key for key, digest in digests
                      if expected.get(key) == digest)
    missing_or_wrong = sum((wanted - (correct & wanted)).values())
    extra = sum((answered - wanted).values())
    return min(len(keys), missing_or_wrong + extra)


def worker_rep(workload: str, seed: int, traced: bool, scratch: Path,
               keys: List[str], expected: Dict[str, str]) -> Rep:
    argv = [sys.executable, str(BENCH / "worker.py"), workload,
            "--seed", str(seed), "--trace", str(int(traced)),
            "--cache-dir", tempfile.mkdtemp(dir=scratch)]
    child = Child(argv)
    try:
        setup_s, _ = child.ready("READY")
        output = child.process.stdout.read()
        peak_rss_mb = child.reap()
    finally:
        child.kill()
    result = json.loads(output.strip().splitlines()[-1])
    return Rep(traced=traced, setup_s=setup_s, wall_s=result["wall_s"],
               peak_rss_mb=peak_rss_mb, ops=len(keys),
               failed=count_failed(keys, result["digests"], expected),
               hybrid_overhead_pct=result["hybrid_overhead_pct"],
               layers=result.get("layers"))


# --------------------------------------------------------------------- #
# daemon_mix: a fresh daemon per repetition, one closed-loop client
# --------------------------------------------------------------------- #
def start_daemon(traced: bool, scratch: Path) -> tuple:
    cache_dir = tempfile.mkdtemp(dir=scratch)
    spans = Path(cache_dir).with_suffix(".spans.json")
    if traced:
        argv = [sys.executable, str(BENCH / "daemon.py"),
                "--cache-dir", cache_dir, "--spans", str(spans)]
    else:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--cache-dir", cache_dir]
    return Child(argv), spans


def stop_daemon(child: Child) -> float:
    child.process.send_signal(signal.SIGTERM)
    return child.reap()


def run_mix(port: int, mix: list, expected: Dict[str, str]) -> dict:
    """Send the mix on one keep-alive connection, each request after the
    previous answer (closed loop); check every answer."""
    import workloads

    from repro.runner.cache import metrics_from_dict

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    latency_ms: Dict[str, List[float]] = {"schedule": [], "simulate": [],
                                          "cached": []}
    in_order_s: List[float] = []
    computed: Dict[str, object] = {}
    hybrid: List[float] = []
    failed = 0
    start = perf_counter()
    for endpoint, key, payload in mix:
        data = json.dumps(payload).encode("utf-8")
        sent = perf_counter()
        try:
            connection.request("POST", f"/{endpoint}", body=data,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            failed += 1
            connection.close()
            continue
        elapsed = perf_counter() - sent
        in_order_s.append(elapsed)
        body = json.loads(raw) if raw else {}
        ok = response.status == 200
        if endpoint == "schedule":
            kind = "schedule"
            ok = ok and workloads.schedule_digest(body) == expected.get(key)
        elif key not in computed:
            kind = "simulate"
            computed[key] = body
            ok = ok and body.get("from_cache") is False
            if ok and payload["approach"] == "hybrid":
                hybrid.append(
                    metrics_from_dict(body["metrics"]).overhead_percent)
        else:
            # The repeat must be the first answer, now from the cache.
            kind = "cached"
            ok = ok and body == dict(computed[key], from_cache=True)
        latency_ms[kind].append(1e3 * elapsed)
        failed += not ok
    wall_s = perf_counter() - start
    connection.close()
    return {"wall_s": wall_s, "latency_ms": latency_ms, "failed": failed,
            "in_order_s": in_order_s,
            "hybrid_overhead_pct": statistics.fmean(hybrid) if hybrid else 0.0}


def daemon_rep(seed: int, traced: bool, scratch: Path,
               expected: Dict[str, str]) -> Rep:
    import workloads

    mix = workloads.daemon_mix(seed)
    child, spans = start_daemon(traced, scratch)
    try:
        setup_s, line = child.ready(READY_PREFIX)
        port = int(line.rsplit(":", 1)[1])
        outcome = run_mix(port, mix, expected)
        peak_rss_mb = stop_daemon(child)
    finally:
        child.kill()
    layers = None
    if traced:
        from tracer import Tracer

        with open(spans, encoding="utf-8") as stream:
            tracer = Tracer.from_dump(json.load(stream))
        tracer.client_latency_s = outcome["in_order_s"]
        layers = tracer.metrics(outcome["wall_s"])
    return Rep(traced=traced, setup_s=setup_s, wall_s=outcome["wall_s"],
               peak_rss_mb=peak_rss_mb, ops=len(mix),
               failed=outcome["failed"],
               hybrid_overhead_pct=outcome["hybrid_overhead_pct"],
               latency_ms=outcome["latency_ms"], layers=layers)


def daemon_setup_s(scratch: Path) -> float:
    """One extra readiness measurement: launch, wait for ready, stop."""
    child, _ = start_daemon(False, scratch)
    try:
        setup_s, _ = child.ready(READY_PREFIX)
        stop_daemon(child)
    finally:
        child.kill()
    return setup_s


# --------------------------------------------------------------------- #
# Repetitions and metrics
# --------------------------------------------------------------------- #
def repeat(run_one: Callable[[bool], Rep], seconds: float, trace: bool,
           minimum: int) -> List[Rep]:
    """At least ``minimum`` repetitions, then more until the next one
    would overrun ``seconds``.  Traced runs alternate untraced and traced
    repetitions.
    """
    reps: List[Rep] = []
    durations: List[float] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        reps.append(run_one(trace and len(reps) % 2 == 1))
        durations.append(perf_counter() - began)
        used = perf_counter() - start
        if len(reps) >= minimum and \
                used + statistics.median(durations) > seconds:
            return reps


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(workload: str, reps: List[Rep],
               setups: List[float]) -> Dict[str, float]:
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in reps),
        "hybrid_overhead_pct": statistics.median(
            rep.hybrid_overhead_pct for rep in reps),
    }
    for kind in ("schedule", "simulate", "cached"):
        if workload == "daemon_mix":
            # Pooled over repetitions: >= 100 samples per kind per run.
            samples = [value for rep in reps for value in rep.latency_ms[kind]]
            metrics[f"{kind}_p50_ms"] = statistics.median(samples)
            metrics[f"{kind}_p90_ms"] = p90(samples)
        else:
            # A batch answers all its operations together: each gets the
            # amortized share of the batch, so per repetition p50 == p90,
            # and like every metric it is the median over repetitions.
            amortized = statistics.median(1e3 * rep.wall_s / rep.ops
                                          for rep in reps)
            metrics[f"{kind}_p50_ms"] = metrics[f"{kind}_p90_ms"] = amortized
    return metrics


def per_layer(reps: List[Rep]) -> Dict[str, float]:
    traced = sorted((rep for rep in reps if rep.traced),
                    key=lambda rep: rep.wall_s)
    plain = [rep.wall_s for rep in reps if not rep.traced]
    layers = dict(traced[(len(traced) - 1) // 2].layers)
    layers["tracing.overhead_s"] = (
        statistics.median(rep.wall_s for rep in traced)
        - statistics.median(plain))
    return layers


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scratch: Path) -> dict:
    import workloads

    expected = workloads.load_expected()[workload]
    if workload == "daemon_mix":
        def run_one(traced: bool) -> Rep:
            return daemon_rep(seed, traced, scratch, expected)
    else:
        keys = workloads.operation_keys(workload, seed)

        def run_one(traced: bool) -> Rep:
            return worker_rep(workload, seed, traced, scratch, keys, expected)

    # Worker repetitions take about two seconds and each gives a set-up
    # sample; a daemon repetition takes ~14 s, and its pooled latencies
    # need two of them for >= 100 computed /simulate samples.
    minimum = 2 if trace or workload == "daemon_mix" else 3
    reps = repeat(run_one, seconds, trace, minimum)
    if trace:
        from tracer import per_layer_metric_names

        values = per_layer(reps)
        units = {name: spec["unit"]
                 for name, spec in per_layer_metric_names().items()}
    else:
        setups = [rep.setup_s for rep in reps]
        while workload == "daemon_mix" and len(setups) < SETUP_SAMPLES:
            setups.append(daemon_setup_s(scratch))
        values = end_to_end(workload, reps, setups)
        units = END_TO_END
    failed = sum(rep.failed for rep in reps)
    return {
        "correct": failed == 0,
        "attempted": sum(rep.ops for rep in reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "repetitions": len(reps),
    }


def describe(workload: str, result: dict) -> str:
    """A table of the result for humans (stderr)."""
    lines = [f"{workload}: {result['repetitions']} repetitions, "
             f"{result['attempted']} operations checked, "
             f"{result['failed']} failed"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<26}{metric['value']:>14.6g} {metric['unit']}")
    if "hybrid_overhead_pct" in result["metrics"]:
        from repro.workloads.multimedia import SECTION7_REFERENCE

        lines.append(f"  (paper: hybrid <= "
                     f"{SECTION7_REFERENCE['hybrid_max_percent']}%; the "
                     f"model is not validated against hardware)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    TMP.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=TMP))
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), scratch)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.verbose:
        print(describe(args.workload, result), file=sys.stderr)
    del result["repetitions"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
