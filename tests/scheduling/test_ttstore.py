"""Persistent transposition store: bit-identity, healing, concurrency.

The store's contract mirrors the sweep caches' (and is tested in the
same spirit as ``tests/runner/test_cache_poisoning.py``): no on-disk
state may ever change a schedule — warm-from-disk searches are
bit-identical to cold ones and merely visit fewer nodes — and no on-disk
damage may ever crash a search: truncated files, version skew, tampered
payloads and concurrent writers all degrade to (partial) misses that the
next flush heals in place.
"""

from __future__ import annotations

import gc
import hashlib
import json
import threading

import pytest

from repro.jsonio import dumps_canonical
from repro.platform.description import Platform
from repro.runner import SweepEngine, TraceStreamConfig, run_trace_stream
from repro.scheduling import (
    BranchAndBoundScheduler,
    PrefetchProblem,
    SchedulerPool,
    TranspositionStore,
    build_initial_schedule,
)
from repro.scheduling.pool import reset_process_scheduler_pool
from repro.scheduling.schedule import PlacedSchedule
from repro.scheduling.ttstore import (
    LOADED_GENERATION,
    TTSTORE_FORMAT_VERSION,
    placed_payload,
)
from repro.storage import LocalDirBackend
from repro.workloads import registry
from repro.workloads.multimedia import (
    jpeg_decoder_graph,
    pattern_recognition_graph,
)
from repro.workloads.traces import MixedPatternConfig, generate_mixed_trace

LATENCY = 4.0


def make_problem(factory=pattern_recognition_graph, tiles=2,
                 latency=LATENCY) -> PrefetchProblem:
    placed = build_initial_schedule(
        factory(), Platform(tile_count=tiles,
                            reconfiguration_latency=latency)
    )
    return PrefetchProblem(placed, latency)


def seed_store(store: TranspositionStore,
               problem: PrefetchProblem) -> BranchAndBoundScheduler:
    """First run: populate the store with one problem's certificates."""
    engine = BranchAndBoundScheduler(persistent_table=True, tt_store=store)
    engine.schedule(problem)
    assert engine.flush_table() is not None
    return engine


def table_path(store: TranspositionStore, problem: PrefetchProblem):
    context = store.context_for(problem.placed,
                                problem.reconfiguration_latency,
                                problem.release_time,
                                None, BranchAndBoundScheduler().table_limit)
    return store.path_for(context)


#: sha256 of each graph's canonical ``placed_payload`` at 8 tiles.
PAYLOAD_DIGESTS = {
    "jpeg_decoder": "2932dbc68291d0f28fa8e94b3e2c3526"
                    "0899de6d1de6ae68fa395584d4b29a9f",
    "parallel_jpeg": "3741b2f3026dbbeea787f593a82ea3b1"
                     "d3cc213bafbf62ca6650a09a854b0902",
}


class TestPlacedPayload:
    """Table file names and interned replay cores are keyed by a digest
    of this payload, so its canonical bytes may never move."""

    @pytest.mark.parametrize("name", sorted(PAYLOAD_DIGESTS))
    def test_canonical_bytes_are_pinned(self, name):
        placed = build_initial_schedule(registry.build_task_graph(name),
                                        Platform(tile_count=8))
        canonical = dumps_canonical(placed_payload(placed))
        assert (hashlib.sha256(canonical.encode("utf-8")).hexdigest()
                == PAYLOAD_DIGESTS[name])

    def test_placement_order_does_not_matter(self):
        placed = make_problem(tiles=3).placed
        reversed_placements = PlacedSchedule(
            placed.graph, dict(reversed(placed.placements.items())))
        assert placed_payload(reversed_placements) == placed_payload(placed)


class TestWarmFromDisk:
    def test_restored_search_is_bit_identical_and_cheaper(self, tmp_path):
        problem = make_problem()
        cold = BranchAndBoundScheduler().schedule(problem)
        store = TranspositionStore(tmp_path)
        seed_store(store, problem)
        restored = BranchAndBoundScheduler(
            persistent_table=True, tt_store=store
        ).schedule(problem)
        assert restored.load_order == cold.load_order
        assert restored.timed.executions == cold.timed.executions
        assert abs(restored.makespan - cold.makespan) < 1e-9
        assert restored.stats.operations < cold.stats.operations
        assert restored.stats.tt_warm_hits > 0

    def test_content_addressing_survives_object_identity(self, tmp_path):
        """A rebuilt (content-identical) schedule hits the same table."""
        store = TranspositionStore(tmp_path)
        seed_store(store, make_problem())
        # New graph/schedule objects, same content, fresh process modeled
        # by a fresh engine: the digest must match and serve certificates.
        rebuilt = make_problem()
        restored = BranchAndBoundScheduler(
            persistent_table=True, tt_store=store
        ).schedule(rebuilt)
        assert restored.stats.tt_warm_hits > 0

    def test_different_context_misses(self, tmp_path):
        """Latency is part of the key: no cross-context certificate leaks."""
        store = TranspositionStore(tmp_path)
        seed_store(store, make_problem())
        other_latency = make_problem(latency=2.0)
        restored = BranchAndBoundScheduler(
            persistent_table=True, tt_store=store
        ).schedule(other_latency)
        assert restored.stats.tt_warm_hits == 0

    def test_with_reused_variants_share_one_persisted_table(self, tmp_path):
        """The critical-selection ladder reruns warm from one file."""
        problem = make_problem(jpeg_decoder_graph, tiles=1)
        ladder = [problem] + [
            problem.with_reused(problem.loads[:k]) for k in (1, 2)
        ]
        cold = [BranchAndBoundScheduler().schedule(p) for p in ladder]
        store = TranspositionStore(tmp_path)
        first = BranchAndBoundScheduler(persistent_table=True,
                                        tt_store=store)
        for p in ladder:
            first.schedule(p)
        first.flush_table()
        assert len(store) == 1
        restored_engine = BranchAndBoundScheduler(persistent_table=True,
                                                  tt_store=store)
        restored = [restored_engine.schedule(p) for p in ladder]
        assert [r.load_order for r in restored] == \
            [c.load_order for c in cold]
        assert sum(r.stats.tt_warm_hits for r in restored) > 0

    def test_invalidate_flushes_before_dropping(self, tmp_path):
        store = TranspositionStore(tmp_path)
        engine = BranchAndBoundScheduler(persistent_table=True,
                                         tt_store=store)
        engine.schedule(make_problem())
        assert len(store) == 0  # nothing flushed yet
        engine.invalidate()
        assert len(store) == 1  # invalidation persisted the certificates

    def test_loaded_entries_carry_loaded_generation(self, tmp_path):
        store = TranspositionStore(tmp_path)
        problem = make_problem()
        seed_store(store, problem)
        context = store.context_for(problem.placed, LATENCY, 0.0, None,
                                    BranchAndBoundScheduler().table_limit)
        table = store.load(context)
        assert table
        for entry in table.values():
            ref, barrier, future, generation = entry
            assert generation == LOADED_GENERATION
            assert ref < barrier  # only certificates are persisted


class TestPoisonedStore:
    def _seeded(self, tmp_path):
        problem = make_problem()
        store = TranspositionStore(tmp_path)
        seed_store(store, problem)
        path = table_path(store, problem)
        assert path.exists()
        return problem, store, path

    def run_restored(self, store, problem):
        return BranchAndBoundScheduler(
            persistent_table=True, tt_store=store
        ).schedule(problem)

    def test_truncated_file_is_a_miss_and_heals_in_place(self, tmp_path):
        problem, store, path = self._seeded(tmp_path)
        content = path.read_text(encoding="utf-8")
        path.write_text(content[: len(content) // 2], encoding="utf-8")
        cold = BranchAndBoundScheduler().schedule(problem)
        engine = BranchAndBoundScheduler(persistent_table=True,
                                         tt_store=store)
        damaged = engine.schedule(problem)
        assert damaged.load_order == cold.load_order
        assert damaged.stats.tt_warm_hits == 0  # nothing was trusted
        # The engine's own flush overwrites the damaged file in place...
        assert engine.flush_table() == path
        json.loads(path.read_text(encoding="utf-8"))  # ...validly
        healed = self.run_restored(store, problem)
        assert healed.stats.tt_warm_hits > 0

    def test_version_skew_is_a_miss_both_directions(self, tmp_path):
        problem, store, path = self._seeded(tmp_path)
        cold = BranchAndBoundScheduler().schedule(problem)
        for skew in (TTSTORE_FORMAT_VERSION + 1,
                     TTSTORE_FORMAT_VERSION - 1):
            entry = json.loads(path.read_text(encoding="utf-8"))
            entry["format"] = skew
            path.write_text(json.dumps(entry), encoding="utf-8")
            skewed = self.run_restored(store, problem)
            assert skewed.load_order == cold.load_order
            assert skewed.stats.tt_warm_hits == 0

    def test_tampered_request_payload_is_a_miss(self, tmp_path):
        """A digest collision / copied file must fail payload verification."""
        problem, store, path = self._seeded(tmp_path)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["request"]["reconfiguration_latency"] = 123.0
        path.write_text(json.dumps(entry), encoding="utf-8")
        tampered = self.run_restored(store, problem)
        assert tampered.stats.tt_warm_hits == 0

    def test_single_bad_entry_is_skipped_not_fatal(self, tmp_path):
        problem, store, path = self._seeded(tmp_path)
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert len(entry["entries"]) >= 2
        entry["entries"][0] = ["garbage"]        # malformed shape
        entry["entries"][1][1] = "not-a-number"  # malformed ref
        path.write_text(json.dumps(entry), encoding="utf-8")
        context = store.context_for(problem.placed, LATENCY, 0.0, None,
                                    BranchAndBoundScheduler().table_limit)
        table = store.load(context)
        assert table is not None  # the healthy tail still loads
        assert store.entries_rejected == 2
        cold = BranchAndBoundScheduler().schedule(problem)
        partial = self.run_restored(store, problem)
        assert partial.load_order == cold.load_order

    def test_violated_certificate_premise_is_rejected(self, tmp_path):
        """ref >= barrier entries (hand-edited) must never load."""
        problem, store, path = self._seeded(tmp_path)
        entry = json.loads(path.read_text(encoding="utf-8"))
        for item in entry["entries"]:
            item[1] = item[2] + 1.0  # ref above barrier: premise void
        path.write_text(json.dumps(entry), encoding="utf-8")
        context = store.context_for(problem.placed, LATENCY, 0.0, None,
                                    BranchAndBoundScheduler().table_limit)
        assert store.load(context) is None


class TestConcurrentWriters:
    def test_two_writers_same_key_last_wins_and_loads(self, tmp_path):
        """Two processes flushing the same key leave one valid file.

        Atomic temp-file + rename writes mean interleaved flushes can
        only ever be observed as one whole table or the other — never a
        torn mix — and both writers' tables hold true certificates, so
        either outcome warm-starts correctly.
        """
        problem = make_problem()
        cold = BranchAndBoundScheduler().schedule(problem)
        store_a = TranspositionStore(tmp_path)
        store_b = TranspositionStore(tmp_path)
        barrier = threading.Barrier(2)
        errors = []

        def writer(store):
            try:
                engine = BranchAndBoundScheduler(persistent_table=True,
                                                 tt_store=store)
                engine.schedule(problem)
                barrier.wait(timeout=30)
                # Saved directly: flush_table would write an unchanged
                # table only once.
                for _ in range(20):
                    assert store.save(engine._table_context,
                                      engine._table) is not None
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(store,))
                   for store in (store_a, store_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(store_a) == 1  # one key, one file, no .tmp debris left
        restored = BranchAndBoundScheduler(
            persistent_table=True, tt_store=TranspositionStore(tmp_path)
        ).schedule(problem)
        assert restored.load_order == cold.load_order
        assert restored.stats.tt_warm_hits > 0

    def test_tmp_debris_from_crashed_writer_is_harmless(self, tmp_path):
        problem = make_problem()
        store = TranspositionStore(tmp_path)
        seed_store(store, problem)
        (tmp_path / ".tmp-crashed.json").write_text('{"format": 1,',
                                                    encoding="utf-8")
        restored = BranchAndBoundScheduler(
            persistent_table=True, tt_store=store
        ).schedule(problem)
        assert restored.stats.tt_warm_hits > 0
        assert len(store) == 1  # debris is not counted as a table


class CountingBackend(LocalDirBackend):
    """A local backend that counts its directory listings."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.listings = 0

    def list(self, pattern):
        self.listings += 1
        return super().list(pattern)


class FlakyBackend(LocalDirBackend):
    """A local backend whose first atomic write fails."""

    failures = 1

    def write_json_atomic(self, name, entry):
        if self.failures:
            self.failures -= 1
            raise OSError("disk full")
        super().write_json_atomic(name, entry)


class TestWriteOnlyWhenChanged:
    """A table is written once per change, never by a bare flush."""

    def test_second_flush_of_an_untouched_table_writes_nothing(self,
                                                               tmp_path):
        problem = make_problem()
        store = TranspositionStore(tmp_path)
        engine = seed_store(store, problem)
        before = table_path(store, problem).stat()
        assert engine.flush_table() is None
        after = table_path(store, problem).stat()
        # An atomic rewrite would put a new inode in place.
        assert (after.st_ino, after.st_mtime_ns) == \
            (before.st_ino, before.st_mtime_ns)
        assert store.tables_saved == 1

    def test_search_after_a_save_makes_the_next_flush_write(self,
                                                            tmp_path):
        problem = make_problem()
        store = TranspositionStore(tmp_path)
        engine = seed_store(store, problem)
        # A warm call only hits, but hits reorder the persisted LRU tail.
        assert engine.schedule(problem).stats.tt_warm_hits > 0
        assert engine.flush_table() == table_path(store, problem)
        assert store.tables_saved == 2

    def test_failed_save_leaves_the_table_dirty(self, tmp_path):
        problem = make_problem()
        store = TranspositionStore(FlakyBackend(tmp_path))
        engine = BranchAndBoundScheduler(persistent_table=True,
                                         tt_store=store)
        engine.schedule(problem)
        assert engine.flush_table() is None  # the write was refused
        assert len(store) == 0
        assert engine.flush_table() == table_path(store, problem)
        assert engine.flush_table() is None  # now saved and clean

    def test_pool_flush_counts_only_tables_written(self, tmp_path):
        pool = SchedulerPool()
        problem = make_problem()
        pool.schedule(problem)
        assert pool.flush() == 0  # no store yet: the table stays dirty
        pool.attach_tt_store(TranspositionStore(tmp_path))
        assert pool.flush() == 1  # earned before the store, written now
        assert pool.flush() == 0
        pool.schedule(problem)
        assert pool.flush() == 1

    def test_stream_table_writes_do_not_depend_on_gc_timing(
            self, tmp_path, monkeypatch):
        """One write per table file, whenever the cyclic GC fires.

        The pool flushes an engine's table when its placed schedule dies,
        and the cyclic GC decides when that is.  Writes of unchanged
        tables made the write count depend on it.
        """
        records = generate_mixed_trace(MixedPatternConfig(
            records=30, universe=10, seed=1, tenants=3))
        config = TraceStreamConfig(iterations=2, tile_count=4, subtasks=4)
        writes = []
        save = TranspositionStore.save

        def counted(store, context, table):
            path = save(store, context, table)
            if path is not None:
                writes[-1] += 1
            return path

        monkeypatch.setattr(TranspositionStore, "save", counted)
        modes = {"default": lambda: None, "disabled": gc.disable,
                 "eager": lambda: gc.set_threshold(1, 1, 1)}
        threshold = gc.get_threshold()
        files = []
        try:
            for mode, set_up in modes.items():
                reset_process_scheduler_pool()
                set_up()
                writes.append(0)
                cache = tmp_path / mode
                run_trace_stream(records, config, engine=SweepEngine(
                    max_workers=1, cache_dir=str(cache)))
                gc.enable()
                gc.set_threshold(*threshold)
                files.append(len(list(
                    (cache / "ttables").glob("tt-*.json"))))
        finally:
            gc.enable()
            gc.set_threshold(*threshold)
            reset_process_scheduler_pool()
        assert files[0] > 0
        assert writes == files
        assert len(set(writes)) == 1


class TestBounds:
    def test_new_tables_under_the_bound_list_the_directory_once(self,
                                                                tmp_path):
        backend = CountingBackend(tmp_path)
        store = TranspositionStore(backend)
        for latency in (1, 2, 3, 5):
            seed_store(store, make_problem(latency=float(latency)))
        assert len(list(tmp_path.glob("tt-*.json"))) == 4
        assert backend.listings == 1

    def test_max_entries_keeps_most_recent_tail(self, tmp_path):
        problem = make_problem(pattern_recognition_graph, tiles=2)
        big = TranspositionStore(tmp_path / "big")
        engine = seed_store(big, problem)
        full = big.load(engine._table_context)
        assert full is not None and len(full) > 4
        small = TranspositionStore(tmp_path / "small", max_entries=4)
        context = small.context_for(problem.placed, LATENCY, 0.0, None,
                                    engine.table_limit)
        assert small.save(context, engine._table) is not None
        capped = small.load(context)
        assert len(capped) == 4
        # The persisted tail is the most-recently-used end of the table.
        assert list(capped)[-1] == list(full)[-1]

    def test_max_tables_prunes_oldest_files(self, tmp_path):
        import os

        store = TranspositionStore(tmp_path, max_tables=3)
        problems = [make_problem(latency=float(latency))
                    for latency in (1, 2, 3, 5, 6)]
        for index, problem in enumerate(problems):
            engine = BranchAndBoundScheduler(persistent_table=True,
                                             tt_store=store)
            engine.schedule(problem)
            path = engine.flush_table()
            assert path is not None
            # The bound holds after every save, not only after prune().
            assert len(store) <= 3
            # Distinct, strictly increasing mtimes (rename preserves the
            # temp file's timestamp, which a fast test makes collide).
            stamp = 1_000_000 + index
            os.utime(path, (stamp, stamp))
        store.prune()
        assert len(store) == 3
        # The survivors are the three most recently written contexts.
        survivors = {p.name for p in store.directory.glob("tt-*.json")}
        expected = set()
        for problem in problems[-3:]:
            context = store.context_for(
                problem.placed, problem.reconfiguration_latency, 0.0,
                None, BranchAndBoundScheduler().table_limit)
            expected.add(context.filename)
        assert survivors == expected

    def test_clear_removes_every_table(self, tmp_path):
        store = TranspositionStore(tmp_path)
        seed_store(store, make_problem())
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0


class TestPoolIntegration:
    def test_pool_flush_and_reload_round_trip(self, tmp_path):
        problem = make_problem()
        cold = BranchAndBoundScheduler().schedule(problem)
        store = TranspositionStore(tmp_path)
        pool = SchedulerPool(tt_store=store)
        pool.schedule(problem)
        assert pool.flush() == 1
        fresh_pool = SchedulerPool(tt_store=TranspositionStore(tmp_path))
        restored = fresh_pool.schedule(problem)
        assert restored.load_order == cold.load_order
        assert fresh_pool.tt_warm_hits > 0

    def test_eviction_persists_the_evicted_table(self, tmp_path):
        store = TranspositionStore(tmp_path)
        pool = SchedulerPool(max_engines=1, tt_store=store)
        first = make_problem()
        pool.schedule(first)
        pool.schedule(make_problem(jpeg_decoder_graph, tiles=1))  # evicts
        assert pool.engines_evicted == 1
        assert len(store) >= 1  # the evicted engine flushed on the way out
        fresh = SchedulerPool(tt_store=TranspositionStore(tmp_path))
        assert fresh.schedule(first).stats.tt_warm_hits > 0

    def test_schedule_death_persists_via_weakref(self, tmp_path):
        import gc

        store = TranspositionStore(tmp_path)
        pool = SchedulerPool(tt_store=store)
        problem = make_problem()
        pool.schedule(problem)
        assert len(store) == 0
        del problem
        gc.collect()
        assert pool.engine_count == 0  # weakref dropped the engine
        assert len(store) == 1         # ...but its certificates survived

    def test_attach_tt_store_rebinds_live_engines(self, tmp_path):
        pool = SchedulerPool()
        problem = make_problem()
        pool.schedule(problem)
        assert pool.flush() == 0  # no store: nothing persisted
        store = TranspositionStore(tmp_path)
        pool.attach_tt_store(store)
        engine = next(iter(pool._engines.values()))[1]
        assert engine.tt_store is store
        # A release change invalidates the engine's context: the table it
        # earned *before* the store was attached flushes on the way out.
        pool.schedule(problem.with_release(5.0))
        assert len(store) >= 1

    def test_detaching_stops_persistence(self, tmp_path):
        store = TranspositionStore(tmp_path)
        pool = SchedulerPool(tt_store=store)
        pool.schedule(make_problem())
        pool.attach_tt_store(None)
        assert pool.flush() == 0
        assert len(store) == 0
