"""``repro serve`` with the per-layer wrappers installed.

The traced ``daemon_mix`` repetitions start the daemon through this
launcher: it imports the program, installs :class:`tracer.Tracer`, then
runs the same CLI entry point as ``repro serve``.  When SIGTERM stops the
server, the span aggregates as they stood at that moment (before the
shutdown flush) are written to ``--spans`` as JSON.

    PYTHONPATH=src python3 perfbench/daemon.py --cache-dir DIR --spans FILE
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    start = perf_counter()
    import repro.cli
    import_s = perf_counter() - start

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.record("setup", import_s)

    from repro.service.server import ReproServiceServer

    snapshot = {}
    shutdown = ReproServiceServer.shutdown

    def snapshot_then_shutdown(server):
        snapshot.update(tracer.dump())
        shutdown(server)

    ReproServiceServer.shutdown = snapshot_then_shutdown
    status = repro.cli.main(["serve", "--port", "0",
                             "--cache-dir", args.cache_dir])
    with open(args.spans, "w", encoding="utf-8") as stream:
        json.dump(snapshot or tracer.dump(), stream)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
