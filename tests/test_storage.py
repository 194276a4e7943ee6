"""The pluggable storage backend: primitives and store integration.

Two layers: :class:`~repro.storage.LocalDirBackend` must honour the
:class:`~repro.storage.Backend` contract exactly (exclusive creation is a
true test-and-set, replace fails when the source vanished, stats never
raise), and every fabric store must accept an explicit backend and behave
identically to its historical path-based construction.
"""

import json
import os
import time

import pytest

from repro.jsonio import atomic_write_json, dumps_canonical
from repro.storage import (
    Backend,
    EntryStat,
    LocalDirBackend,
    TEMP_PATTERN,
    as_backend,
    backend_root,
    list_entries,
    sweep_aged,
)


class TestLocalDirBackend:
    def test_round_trip_and_listing(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.write_json_atomic("a.json", {"x": 1})
        backend.write_json_atomic("b.json", {"x": 2})
        assert backend.list("*.json") == ["a.json", "b.json"]
        assert json.loads(backend.read_text("a.json")) == {"x": 1}
        # The atomic writer leaves no temp debris behind.
        assert backend.list(TEMP_PATTERN) == []

    def test_read_missing_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            LocalDirBackend(tmp_path).read_text("absent.json")

    def test_stat_reports_size_and_mtime(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.write_json_atomic("a.json", {"x": 1})
        stat = backend.stat("a.json")
        assert isinstance(stat, EntryStat)
        assert stat.size == (tmp_path / "a.json").stat().st_size
        assert backend.stat("absent.json") is None

    def test_create_exclusive_is_test_and_set(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        assert backend.create_exclusive("lock", "one")
        assert not backend.create_exclusive("lock", "two")
        assert (tmp_path / "lock").read_text() == "one"

    def test_create_exclusive_propagates_real_failures(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "sub")
        (tmp_path / "sub").chmod(0o500)
        try:
            if os.geteuid() == 0:
                pytest.skip("root ignores directory permissions")
            with pytest.raises(OSError):
                backend.create_exclusive("lock", "one")
        finally:
            (tmp_path / "sub").chmod(0o700)

    def test_replace_fails_when_source_vanished(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        assert backend.create_exclusive("lock", "one")
        assert backend.replace("lock", "tomb")
        assert not backend.replace("lock", "tomb-again")  # source gone
        assert backend.list("tomb*") == ["tomb"]

    def test_delete_and_touch_report_absence(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        assert backend.create_exclusive("lock", "one")
        before = backend.stat("lock").mtime
        os.utime(tmp_path / "lock", (before - 100, before - 100))
        assert backend.touch("lock")
        assert backend.stat("lock").mtime > before - 100
        assert backend.delete("lock")
        assert not backend.delete("lock")
        assert not backend.touch("lock")

    def test_listing_is_rooted_and_file_only(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.write_json_atomic("a.json", {})
        child = backend.child("nested")
        child.write_json_atomic("b.json", {})
        assert backend.list("*.json") == ["a.json"]  # no dirs, no recursion
        assert child.list("*.json") == ["b.json"]
        assert backend_root(child) == tmp_path / "nested"

    def test_as_backend_wraps_paths_and_passes_backends(self, tmp_path):
        wrapped = as_backend(tmp_path)
        assert isinstance(wrapped, LocalDirBackend)
        assert isinstance(wrapped, Backend)
        assert as_backend(wrapped) is wrapped

    def test_sweep_aged_removes_only_old_entries(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.write_json_atomic("old.json", {})
        backend.write_json_atomic("new.json", {})
        stale = time.time() - 120.0
        os.utime(tmp_path / "old.json", (stale, stale))
        files, freed = sweep_aged(backend, "*.json", max_age=60.0)
        assert files == 1 and freed > 0
        assert backend.list("*.json") == ["new.json"]

    def test_sweep_aged_dry_run_keeps_files(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.write_json_atomic("old.json", {})
        stale = time.time() - 120.0
        os.utime(tmp_path / "old.json", (stale, stale))
        files, _ = sweep_aged(backend, "*.json", max_age=60.0, dry_run=True)
        assert files == 1
        assert backend.list("*.json") == ["old.json"]

    def test_list_entries_stats_everything(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.write_json_atomic("a.json", {"x": 1})
        entries = list_entries(backend, "*.json")
        assert [name for name, _ in entries] == ["a.json"]
        assert all(isinstance(stat, EntryStat) for _, stat in entries)


class TestStoresAcceptExplicitBackends:
    def test_result_cache_on_backend(self, tmp_path):
        from repro.runner import ResultCache
        from tests.runner.test_cache import make_metrics, make_point

        cache = ResultCache(LocalDirBackend(tmp_path))
        point, metrics = make_point(), make_metrics()
        assert cache.load(point) is None
        cache.store(point, metrics)
        assert cache.load(point) == metrics
        assert len(cache) == 1
        # Path-based construction sees the very same entries.
        assert ResultCache(tmp_path).load(point) == metrics

    def test_claim_directory_on_backend(self, tmp_path):
        from repro.runner import ClaimDirectory

        backend = LocalDirBackend(tmp_path)
        alice = ClaimDirectory(backend, worker_id="alice")
        bob = ClaimDirectory(tmp_path, worker_id="bob")
        assert alice.acquire("group-1")
        assert not bob.acquire("group-1")
        assert bob.held_keys() == ["group-1"]

    def test_ttstore_on_backend(self, tmp_path):
        from repro.scheduling.ttstore import TranspositionStore

        store = TranspositionStore(LocalDirBackend(tmp_path))
        assert len(store) == 0
        assert store.directory == tmp_path


def reindent(path) -> None:
    """Rewrite a cache file in the older ``indent=1`` layout."""
    entry = json.loads(path.read_text(encoding="utf-8"))
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(entry, stream, sort_keys=True, indent=1)
    assert "\n" in path.read_text(encoding="utf-8")


class TestCanonicalFiles:
    def test_atomic_write_is_compact_canonical_and_round_trips(self,
                                                              tmp_path):
        entry = {"b": [1, 2.5, None, 2 ** 70], "a": {"y": "\u00e9", "x": True}}
        path = atomic_write_json(tmp_path, tmp_path / "e.json", entry)
        text = path.read_text(encoding="utf-8")
        assert "\n" not in text
        assert text == dumps_canonical(entry)
        assert json.loads(text) == entry

    def test_indented_entries_still_load(self, tmp_path):
        """Files written before the compact layout are hits, not misses."""
        from repro.platform.description import Platform
        from repro.runner import ExplorationCache, ResultCache, WorkloadSpec
        from repro.scheduling import (
            BranchAndBoundScheduler,
            PrefetchProblem,
            TranspositionStore,
            build_initial_schedule,
        )
        from repro.tcm.design_time import TcmDesignTimeScheduler
        from repro.workloads.multimedia import pattern_recognition_graph
        from tests.runner.test_cache import make_metrics, make_point

        results = ResultCache(tmp_path / "results")
        point, metrics = make_point(), make_metrics()
        reindent(results.store(point, metrics))
        assert results.load(point) == metrics

        spec = WorkloadSpec.of("synthetic", task_count=2, subtasks_per_task=5,
                               scenarios_per_task=2, seed=3)
        workload = spec.build()
        platform = Platform(
            tile_count=4,
            reconfiguration_latency=workload.reconfiguration_latency)
        explorations = ExplorationCache(tmp_path / "explorations")
        design = TcmDesignTimeScheduler(platform).explore(workload.task_set)
        reindent(explorations.store(spec, 4, design))
        assert explorations.load(spec, 4, platform) is not None

        placed = build_initial_schedule(
            pattern_recognition_graph(),
            Platform(tile_count=2, reconfiguration_latency=4.0))
        problem = PrefetchProblem(placed, 4.0)
        store = TranspositionStore(tmp_path / "ttables")
        engine = BranchAndBoundScheduler(persistent_table=True,
                                         tt_store=store)
        engine.schedule(problem)
        reindent(engine.flush_table())
        assert store.load(engine._table_context) is not None
        assert store.tables_loaded == 1
