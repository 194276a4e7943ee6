"""Tests for the command-line interface."""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.workloads import registry


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _surface(parser: argparse.ArgumentParser, path=()):
    """Each option of each (sub-)command: strings, dest, default, nargs,
    type and choices."""
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            rows.append((path, action.dest, list(action.choices)))
            for name, subparser in action.choices.items():
                rows.extend(_surface(subparser, path + (name,)))
            continue
        rows.append((path, action.option_strings, action.dest,
                     action.default, action.nargs,
                     getattr(action.type, "__name__", action.type),
                     action.choices))
    return rows


class TestImportFootprint:
    def test_cli_import_stays_off_the_http_stack(self):
        """Only ``serve`` and ``trace run --service`` load the HTTP code,
        and nothing loads networkx: the graph layer is stdlib only."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        script = ("import sys, repro.cli; print(sorted(name for name in "
                  "('repro.service', 'http.server', 'networkx') "
                  "if name in sys.modules))")
        loaded = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "[]"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("table1", "figure6", "figure7", "scalability",
                        "hide-rate", "ablation", "sweep", "robustness",
                        "demo"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_surface_is_pinned(self):
        """No option, flag, default or choice changes unnoticed."""
        surface = "\n".join(repr(row) for row in _surface(build_parser()))
        assert _digest(surface) == (
            "5e92198dcc7e207057acd23538a411827c97633886b70800496fe337c6d78f79"
        ), surface

    def test_figure6_options(self):
        args = build_parser().parse_args(
            ["figure6", "--iterations", "50", "--tiles", "8", "10"]
        )
        assert args.iterations == 50
        assert args.tiles == [8, 10]

    def test_tt_cache_flag_defaults_on_and_negates(self):
        parser = build_parser()
        assert parser.parse_args(["figure6"]).tt_cache is True
        assert parser.parse_args(["figure6", "--no-tt-cache"]).tt_cache \
            is False
        assert parser.parse_args(["sweep", "--tt-cache"]).tt_cache is True

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "--workloads", "multimedia", "--approaches", "hybrid",
             "run-time", "--tiles", "4", "8", "--seeds", "1", "2",
             "--distributed", "--worker-id", "w1", "--claim-ttl", "30"]
        )
        assert args.approaches == ["hybrid", "run-time"]
        assert args.tiles == [4, 8]
        assert args.seeds == [1, 2]
        assert args.distributed is True
        assert args.worker_id == "w1"
        assert args.claim_ttl == 30.0

    def test_sweep_noise_options(self):
        args = build_parser().parse_args(
            ["sweep", "--fault-rate", "0.05", "--latency-sigma", "0.3",
             "--latency-jitter", "1.5", "--execution-sigma", "0.2",
             "--load-failure-rate", "0.4", "--max-retries", "5"]
        )
        assert args.fault_rate == 0.05
        assert args.latency_sigma == 0.3
        assert args.latency_jitter == 1.5
        assert args.execution_sigma == 0.2
        assert args.load_failure_rate == 0.4
        assert args.max_retries == 5

    def test_robustness_options(self):
        args = build_parser().parse_args(
            ["robustness", "--workload", "synthetic", "--tiles", "6",
             "--levels", "0", "0.3", "--approaches", "design-time",
             "adaptive", "--seeds", "1", "2", "--iterations", "10"]
        )
        assert args.workload == "synthetic"
        assert args.tiles == 6
        assert args.levels == [0.0, 0.3]
        assert args.approaches == ["design-time", "adaptive"]
        assert args.seeds == [1, 2]
        assert args.iterations == 10


class TestCommands:
    """Each artifact command's whole stdout is also pinned by its sha256,
    so a refactor of the experiment drivers cannot change one byte."""

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "jpeg_decoder" in output
        assert "paper overhead" in output
        assert _digest(output) == ("1f7184833d5f1d988a300f7b51c95273"
                                   "3e0b6bb1933ee42d9e865ff0b3217fdd")

    def test_demo(self, capsys):
        assert main(["demo", "--task", "jpeg_decoder"]) == 0
        output = capsys.readouterr().out
        assert "without prefetch" in output
        assert "hybrid heuristic" in output
        assert "reconfig" in output
        assert _digest(output) == ("c60cffbae0d9d159bf641b0cf7c226fa"
                                   "42b7519c7342a6301d1b83f79b24c9a6")

    def test_demo_tasks_are_the_registered_task_graphs(self):
        parser = build_parser()
        for name in registry.task_graph_names():
            assert parser.parse_args(["demo", "--task", name]).task == name
        with pytest.raises(SystemExit):
            parser.parse_args(["demo", "--task", "ghost"])

    def test_hide_rate(self, capsys):
        assert main(["hide-rate"]) == 0
        output = capsys.readouterr().out
        assert "hidden" in output
        assert _digest(output) == ("cf999f5dbbe734764b753367631c490b"
                                   "17e6d285d09fb879ccbf7aa2de58ab16")

    def test_scalability(self, capsys):
        assert main(["scalability", "--sizes", "5", "10"]) == 0
        assert "run-time heuristic" in capsys.readouterr().out

    def test_ablation_pick_metric(self, capsys):
        assert main(["ablation", "--study", "pick-metric"]) == 0
        output = capsys.readouterr().out
        assert "max-weight" in output
        assert _digest(output) == ("f74f455508d65cb9360dd165654a6b0f"
                                   "1b6cd6dd136ab95b291d93ad42ad7d67")

    def test_ablation_all_studies(self, capsys):
        assert main(["ablation", "--iterations", "5"]) == 0
        output = capsys.readouterr().out
        assert "randomlike" in output
        assert _digest(output) == ("26aac19e09e3e7f1fc0139fc48f93f52"
                                   "d070527b065b1ddba00d1ce547b413b4")

    def test_figure6_tiny(self, capsys):
        assert main(["figure6", "--iterations", "5", "--tiles", "8"]) == 0
        output = capsys.readouterr().out
        assert "Figure 6" in output
        assert _digest(output) == ("cda85b486ad8135eddcba38a12158034"
                                   "89586884094077022fdb341bbb5aeecd")

    def test_repeated_x_values_print_one_row(self, capsys):
        assert main(["figure6", "--iterations", "3", "--tiles", "8"]) == 0
        once = capsys.readouterr().out
        assert main(["figure6", "--iterations", "3", "--tiles", "8", "8"]) == 0
        assert capsys.readouterr().out == once

    def test_figure7_tiny(self, capsys):
        assert main(["figure7", "--iterations", "5", "--tiles", "6"]) == 0
        output = capsys.readouterr().out
        assert "Figure 7" in output
        assert _digest(output) == ("713c5a4af2e17046fa3584709564520d"
                                   "4a7c1e0917c87b1192cca774ed241b5b")

    def test_sweep_ensemble_tiny(self, capsys):
        assert main(["sweep", "--approaches", "run-time", "--tiles", "4",
                     "--seeds", "1", "2", "--iterations", "5"]) == 0
        output = capsys.readouterr().out
        assert "Seed ensemble" in output
        assert "±" in output
        assert "points: 2 (computed 2, cached 0)" in output

    def test_sweep_distributed_tiny(self, capsys, tmp_path):
        # hybrid (not run-time): only approaches with an exact design
        # engine produce transposition tables worth persisting.
        argv = ["sweep", "--approaches", "hybrid", "--tiles", "4",
                "--seeds", "1", "--iterations", "5", "--distributed",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "computed 1" in capsys.readouterr().out
        assert list((tmp_path / "claims").glob("*.claim"))
        assert list((tmp_path / "ttables").glob("tt-*.json"))
        # A second worker arriving later is served entirely by the cache.
        assert main(argv) == 0
        assert "cached 1" in capsys.readouterr().out

    def test_sweep_with_noise_labels_points(self, capsys):
        assert main(["sweep", "--approaches", "run-time", "--tiles", "4",
                     "--seeds", "1", "2", "--iterations", "5",
                     "--load-failure-rate", "0.3"]) == 0
        assert "noise[" in capsys.readouterr().out

    def test_robustness_tiny(self, capsys):
        assert main(["robustness", "--workload", "synthetic", "--tiles", "6",
                     "--levels", "0", "0.3", "--approaches", "design-time",
                     "adaptive", "--seeds", "1", "2",
                     "--iterations", "8"]) == 0
        output = capsys.readouterr().out
        assert "overhead (%)" in output
        assert "design-time" in output and "adaptive" in output
        assert "±" in output
        assert _digest(output) == ("955b7853b73db15c36592d35a3b33670"
                                   "5d90ccb08e9101a3f769ab6120a9ff02")

    def test_sweep_distributed_requires_cache_dir(self, capsys):
        assert main(["sweep", "--distributed", "--iterations", "5",
                     "--tiles", "4", "--approaches", "run-time"]) == 2
        assert "cache-dir" in capsys.readouterr().err


class TestCacheGcCommand:
    def test_parser_accepts_byte_suffixes(self):
        parser = build_parser()
        args = parser.parse_args(
            ["cache", "gc", "--cache-dir", "/tmp/x", "--max-bytes", "2M"]
        )
        assert args.command == "cache"
        assert args.cache_command == "gc"
        assert args.max_bytes == 2 * 1024 * 1024
        assert parser.parse_args(
            ["cache", "gc", "--cache-dir", "/tmp/x", "--max-bytes", "512"]
        ).max_bytes == 512
        assert parser.parse_args(
            ["cache", "gc", "--cache-dir", "/tmp/x", "--max-bytes", "1g"]
        ).max_bytes == 1024 ** 3

    def test_parser_rejects_bad_sizes(self):
        parser = build_parser()
        for bad in ("twelve", "-5", "2T", ""):
            with pytest.raises(SystemExit):
                parser.parse_args(["cache", "gc", "--cache-dir", "/tmp/x",
                                   "--max-bytes", bad])

    def test_cache_dir_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "gc"])

    def test_gc_end_to_end(self, capsys, tmp_path):
        # Populate a real cache through a tiny sweep, then shrink it.
        assert main(["sweep", "--approaches", "hybrid", "--tiles", "4",
                     "--seeds", "1", "--iterations", "5",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--dry-run"]) == 0
        dry = capsys.readouterr().out
        assert "would free" in dry
        assert "results" in dry
        before = sorted(tmp_path.rglob("*.json"))
        assert before  # dry run deleted nothing
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "retained: 0 bytes" in out
        assert not list(tmp_path.glob("*.json"))
        # A warm rerun after total eviction recomputes bit-identically.
        assert main(["sweep", "--approaches", "hybrid", "--tiles", "4",
                     "--seeds", "1", "--iterations", "5",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "computed 1" in capsys.readouterr().out


class TestTraceCommand:
    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["trace", "generate"])
        assert args.command == "trace"
        assert args.trace_command == "generate"
        assert args.records == 1000
        assert args.universe == 64
        assert args.out == "-"
        args = parser.parse_args(["trace", "run", "--service",
                                  "127.0.0.1:8642", "--min-warm-rate",
                                  "0.3"])
        assert args.trace_command == "run"
        assert args.service == "127.0.0.1:8642"
        assert args.min_warm_rate == 0.3
        assert args.tt_cache is True

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_generate_to_stdout_is_deterministic(self, capsys):
        argv = ["trace", "generate", "--records", "12", "--universe", "6",
                "--gen-seed", "3", "--tenants", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.count("\n") == 12
        assert '"task":' in first and '"tenant":' in first

    def test_generate_to_file_then_run(self, capsys, tmp_path):
        log = tmp_path / "trace.jsonl"
        assert main(["trace", "generate", "--records", "15", "--universe",
                     "4", "--gen-seed", "5", "--out", str(log)]) == 0
        assert "wrote 15 records" in capsys.readouterr().out
        assert main(["trace", "run", "--log", str(log), "--iterations",
                     "2", "--tiles", "4", "--subtasks", "4"]) == 0
        output = capsys.readouterr().out
        assert "records" in output
        assert "warm arrivals" in output

    def test_run_synthesizes_and_gates_on_warm_rate(self, capsys):
        argv = ["trace", "run", "--records", "15", "--universe", "4",
                "--gen-seed", "5", "--iterations", "2", "--tiles", "4",
                "--subtasks", "4"]
        assert main(argv + ["--min-warm-rate", "0.1"]) == 0
        assert ">= 0.100" in capsys.readouterr().out
        assert main(argv + ["--min-warm-rate", "0.99"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_rejects_malformed_service_endpoint(self, capsys):
        assert main(["trace", "run", "--records", "5", "--universe", "2",
                     "--service", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_malformed_log_is_one_error_line(self, tmp_path):
        """The 5/NaN/1 log: exit 2, the parser's line, no traceback."""
        log = tmp_path / "bad.jsonl"
        log.write_text('{"timestamp": 5, "task": 1}\n'
                       '{"timestamp": NaN, "task": 2}\n'
                       '{"timestamp": 1, "task": 3}\n', encoding="utf-8")
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "run", "--log",
             str(log), "--iterations", "1", "--tiles", "4"],
            env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr == ("repro-drhw: error: trace line 2: timestamp "
                              "must be finite, got nan\n")
        assert "Traceback" not in run.stdout + run.stderr
