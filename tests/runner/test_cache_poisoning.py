"""Poisoned-cache robustness: warm sweeps recompute, never crash.

The sweep caches promise that *no* on-disk state can take down a run:
truncated writes (a crashed process), stale format versions (an old
checkout sharing the cache directory) and concurrent writers (two sweeps
on one shared directory) must all be treated as misses, recomputed and
produce metrics bit-identical to a cold run.  The unit tests in
``test_cache.py``/``test_exploration_cache.py`` pin the loaders; these
tests pin the end-to-end behaviour of a warm :class:`SweepEngine` run on
top of a damaged directory.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.runner import ApproachSpec, ResultCache, SweepEngine, SweepSpec
from repro.runner.cache import (
    CACHE_FORMAT_VERSION,
    EXPLORATION_FORMAT_VERSION,
    ExplorationCache,
)


ITERATIONS = 5


@pytest.fixture(scope="module")
def spec() -> SweepSpec:
    return SweepSpec(
        workloads=("multimedia",),
        approaches=(ApproachSpec("run-time"),),
        tile_counts=(4,),
        seeds=(1,),
        iterations=ITERATIONS,
    )


@pytest.fixture(scope="module")
def reference_metrics(spec):
    """Metrics of a cache-less run: the bit-exact recompute target."""
    return SweepEngine().run(spec).outcomes[0].metrics


def run_warm(cache_dir: Path, spec: SweepSpec):
    return SweepEngine(cache_dir=cache_dir).run(spec)


def seed_cache(cache_dir: Path, spec: SweepSpec) -> None:
    """Cold run that populates both result and exploration entries."""
    result = run_warm(cache_dir, spec)
    assert result.computed_count == 1
    assert list(cache_dir.glob("*.json")), "result entry expected"
    assert list((cache_dir / "explorations").glob("*.json")), \
        "exploration entry expected"


def entry_paths(cache_dir: Path):
    """Every cache entry (results + explorations) under the directory."""
    return sorted(cache_dir.glob("*.json")) + sorted(
        (cache_dir / "explorations").glob("*.json")
    )


class TestPoisonedWarmRuns:
    def test_truncated_entries_recompute(self, tmp_path, spec,
                                         reference_metrics):
        """Interrupted writers leave half an entry: recompute, identically."""
        cache_dir = tmp_path / "cache"
        seed_cache(cache_dir, spec)
        for path in entry_paths(cache_dir):
            content = path.read_text(encoding="utf-8")
            path.write_text(content[: len(content) // 2], encoding="utf-8")
        warm = run_warm(cache_dir, spec)
        assert warm.computed_count == 1  # nothing trusted, all recomputed
        assert warm.outcomes[0].metrics == reference_metrics

    def test_wrong_format_version_recomputes(self, tmp_path, spec,
                                             reference_metrics):
        """Entries from another format era are ignored, not trusted."""
        cache_dir = tmp_path / "cache"
        seed_cache(cache_dir, spec)
        for path in entry_paths(cache_dir):
            entry = json.loads(path.read_text(encoding="utf-8"))
            if "format" in entry:
                entry["format"] = CACHE_FORMAT_VERSION + 999
            if "request" in entry and isinstance(entry["request"], dict):
                entry["request"]["format"] = -1
            path.write_text(json.dumps(entry), encoding="utf-8")
        warm = run_warm(cache_dir, spec)
        assert warm.computed_count == 1
        assert warm.outcomes[0].metrics == reference_metrics

    def test_concurrent_writer_debris_is_harmless(self, tmp_path, spec,
                                                  reference_metrics):
        """Another sweep's in-flight temp files and foreign entries coexist.

        Atomic writes mean a concurrent writer is visible only as ``.tmp-``
        debris plus whole entries written under unrelated keys; neither may
        crash a warm run or leak into its results.
        """
        cache_dir = tmp_path / "cache"
        seed_cache(cache_dir, spec)
        # In-flight temp files from a concurrent (or crashed) writer.
        (cache_dir / ".tmp-concurrent.json").write_text(
            '{"format": 1, "point":', encoding="utf-8"
        )
        (cache_dir / "explorations" / ".tmp-other.json").write_text(
            "garbage", encoding="utf-8"
        )
        # A foreign entry whose recorded payload does not match its key
        # (e.g. a hash collision or a copy from another machine).
        victim = sorted(p for p in cache_dir.glob("*.json")
                        if not p.name.startswith(".tmp-"))[0]
        entry = json.loads(victim.read_text(encoding="utf-8"))
        entry["point"]["seed"] = 424242
        victim.write_text(json.dumps(entry), encoding="utf-8")
        warm = run_warm(cache_dir, spec)
        assert warm.computed_count == 1  # mismatched entry was not trusted
        assert warm.outcomes[0].metrics == reference_metrics

    def test_clean_warm_run_still_hits(self, tmp_path, spec,
                                       reference_metrics):
        """Control: an undamaged directory serves the cached result."""
        cache_dir = tmp_path / "cache"
        seed_cache(cache_dir, spec)
        warm = run_warm(cache_dir, spec)
        assert warm.computed_count == 0
        assert warm.cached_count == 1
        assert warm.outcomes[0].metrics == reference_metrics

    def test_poisoned_entries_are_healed_in_place(self, tmp_path, spec,
                                                  reference_metrics):
        """A recompute overwrites the damaged entry: the next run hits."""
        cache_dir = tmp_path / "cache"
        seed_cache(cache_dir, spec)
        for path in entry_paths(cache_dir):
            path.write_text("{ not json at all", encoding="utf-8")
        poisoned = run_warm(cache_dir, spec)
        assert poisoned.computed_count == 1
        healed = run_warm(cache_dir, spec)
        assert healed.computed_count == 0
        assert healed.outcomes[0].metrics == reference_metrics


class TestDeeplyNestedEntries:
    """A file of nothing but ``[`` makes ``json.loads`` raise a
    RecursionError, not the ValueError of every other malformed entry;
    each reader must still treat it as a miss and recompute."""

    @pytest.fixture(scope="class")
    def hybrid_spec(self) -> SweepSpec:
        # hybrid (not run-time): only an exact design engine persists
        # transposition tables, so all three readers get exercised.
        return SweepSpec(workloads=("multimedia",),
                         approaches=(ApproachSpec("hybrid"),),
                         tile_counts=(4,), seeds=(1,),
                         iterations=ITERATIONS)

    @pytest.mark.parametrize("kind", ["results", "explorations", "ttables"])
    def test_deep_entry_recomputes(self, tmp_path, hybrid_spec, kind):
        clean = SweepEngine().run(hybrid_spec).outcomes[0].metrics
        cache_dir = tmp_path / "cache"
        assert run_warm(cache_dir, hybrid_spec).computed_count == 1
        folders = {"results": cache_dir,
                   "explorations": cache_dir / "explorations",
                   "ttables": cache_dir / "ttables"}
        poisoned = sorted(folders[kind].glob("*.json"))
        assert poisoned, f"no {kind} entry to poison"
        for path in poisoned:
            path.write_text("[" * 100_000, encoding="utf-8")
        if kind != "results":
            # Drop the result so the point recomputes and reads the rest.
            for path in cache_dir.glob("*.json"):
                path.unlink()
        warm = run_warm(cache_dir, hybrid_spec)
        assert warm.computed_count == 1
        assert warm.outcomes[0].metrics == clean


class TestVersionSkewDowngrade:
    """Entries written by a *newer* code version (the downgrade path).

    A shared cache directory outlives any single checkout: after a roll
    back, this (older) code meets structurally valid entries stamped with
    format versions from its future.  Their payloads may encode semantics
    this version cannot reproduce, so they must be treated as misses —
    recomputed bit-identically, never crashed on, never half-trusted —
    and healed in place to this version's format.
    """

    @staticmethod
    def _stamp_future_versions(cache_dir: Path) -> int:
        """Rewrite every (valid) entry as if written by a newer release."""
        stamped = 0
        for path in entry_paths(cache_dir):
            entry = json.loads(path.read_text(encoding="utf-8"))
            if "format" in entry:                       # result entry
                entry["format"] = CACHE_FORMAT_VERSION + 1
            if "request" in entry and isinstance(entry["request"], dict):
                entry["request"]["format"] = EXPLORATION_FORMAT_VERSION + 1
            path.write_text(json.dumps(entry), encoding="utf-8")
            stamped += 1
        return stamped

    def test_future_entries_recompute_and_heal(self, tmp_path, spec,
                                               reference_metrics):
        cache_dir = tmp_path / "cache"
        seed_cache(cache_dir, spec)
        assert self._stamp_future_versions(cache_dir) >= 2
        downgraded = run_warm(cache_dir, spec)
        assert downgraded.computed_count == 1  # nothing from the future ran
        assert downgraded.outcomes[0].metrics == reference_metrics
        # The recompute overwrote the future entries with this version's.
        healed = run_warm(cache_dir, spec)
        assert healed.computed_count == 0
        assert healed.outcomes[0].metrics == reference_metrics

    def test_result_cache_load_rejects_newer_format(self, tmp_path, spec,
                                                    reference_metrics):
        """Unit level: a valid entry with a future format is a miss."""
        cache = ResultCache(tmp_path / "cache")
        point = spec.expand()[0]
        path = cache.store(point, reference_metrics)
        assert cache.load(point) == reference_metrics
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["format"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(point) is None

    def test_exploration_cache_load_rejects_newer_format(self, tmp_path,
                                                         spec):
        """Unit level: a future exploration request payload is a miss."""
        from repro.runner.engine import explore_platform
        from repro.tcm.design_time import exploration_to_dict

        workload_spec = spec.workloads[0]
        tile_count = spec.tile_counts[0]
        workload, platform, design = explore_platform(workload_spec,
                                                      tile_count)
        cache = ExplorationCache(tmp_path / "explorations")
        path = cache.store(workload_spec, tile_count, design)
        loaded = cache.load(workload_spec, tile_count, platform)
        assert exploration_to_dict(loaded) == exploration_to_dict(design)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["request"]["format"] = EXPLORATION_FORMAT_VERSION + 1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(workload_spec, tile_count, platform) is None
