"""The keyed cache-metadata index (repro.harness.index) and its
write-through integration with both caches (repro.harness.cache).

The contract under test: every blob carries the facts fixed when it was
stored (spec, measured sim cost, creation time, cache version) and the
SQLite index mirrors them, so deleting ``index.sqlite`` and running
``repro cache reindex`` restores them. Hit counts live only in the
index: a warm hit, a prune and a reindex never rewrite a blob, reindex
keeps a live index's counts, and a deleted index resets them to 0. The
index feeds the introspection (``top``/``stats``) and cost-aware
eviction surfaces without ever being load-bearing for correctness.
"""

import json
import os
import pickle

import pytest

from repro.harness import (FigureArtifactCache, ResultCache, SweepExecutor,
                           TuningParams, point_key, sweep_grid)
from repro.harness import cache as cache_mod
from repro.harness.index import INDEX_FILENAME, CacheIndex
from repro.harness.runner import RunResult
from repro.harness.sweep import SweepPoint

SCALE = 0.08

POINTS = sweep_grid((("BFS", "KRON"), ("SSSP", "KRON")),
                    ("CDP", "CDP+T"), scale=SCALE,
                    params=TuningParams(threshold=16))


def _filled_cache(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    SweepExecutor(cache=cache).run(POINTS)
    return cache


def make_point(threshold):
    return SweepPoint("BFS", "KRON", "CDP+T",
                      TuningParams(threshold=threshold), scale=SCALE)


def make_result(threshold):
    return RunResult("BFS", "KRON", "CDP+T",
                     TuningParams(threshold=threshold), total_time=100,
                     breakdown={"parent": 60, "child": 40},
                     device_launches=3, host_agg_launches=0,
                     launch_queue_wait=5)


def _blobs(cache):
    """{path: (bytes, mtime_ns)} for every result and figure blob."""
    found = {}
    for root, _, names in os.walk(cache.cache_dir):
        for name in names:
            if name.endswith((".json", ".pkl")):
                path = os.path.join(root, name)
                with open(path, "rb") as handle:
                    found[path] = (handle.read(), os.stat(path).st_mtime_ns)
    return found


def _contents(blobs):
    return {path: data for path, (data, _) in blobs.items()}


def _delete_index_files(cache):
    cache.index.close()
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(cache.index.path + suffix)
        except OSError:
            pass


class TestWriteThrough:
    def test_executor_run_populates_the_index(self, tmp_path):
        cache = _filled_cache(tmp_path)
        rows = cache.index.entries()
        assert len(rows) == len(POINTS)
        assert {row["kind"] for row in rows} == {"result"}
        assert {row["key"] for row in rows} \
            == {point_key(p) for p in POINTS}
        for row in rows:
            # The executor measures per-point sim wall time into the store.
            assert row["sim_cost_seconds"] is not None
            assert row["sim_cost_seconds"] >= 0
            assert row["bytes"] > 0
            assert row["hits"] == 0
            assert row["cache_version"] == cache_mod.CACHE_VERSION
            assert row["spec"]["benchmark"] in ("BFS", "SSSP")

    def test_hit_bumps_index_only(self, tmp_path):
        """A hit never rewrites a blob, result or figure: the count
        accumulates in the index (an atomic SQL increment) alone."""
        cache = _filled_cache(tmp_path)
        figures = FigureArtifactCache(cache.cache_dir)
        figures.put("fig9", {"scale": "0.25"}, {"rows": [1]})
        before = _contents(_blobs(cache))
        cache.get(POINTS[0])
        cache.get(POINTS[0])
        figures.get("fig9", {"scale": "0.25"})
        assert _contents(_blobs(cache)) == before
        assert cache.index.get(point_key(POINTS[0]))["hits"] == 2
        figure_row, = [r for r in cache.index.entries()
                       if r["kind"] == "figure"]
        assert figure_row["hits"] == 1

    def test_new_blobs_carry_no_meta_hits(self, tmp_path):
        cache = _filled_cache(tmp_path)
        figures = FigureArtifactCache(cache.cache_dir)
        figures.put("fig9", {"scale": "0.25"}, {"rows": []})
        path = os.path.join(cache.cache_dir,
                            point_key(POINTS[0]) + ".json")
        with open(path) as handle:
            meta = json.load(handle)["meta"]
        with open(figures._path("fig9", {"scale": "0.25"}), "rb") as handle:
            figure_meta = pickle.load(handle)["meta"]
        for block in (meta, figure_meta):
            assert "hits" not in block
            assert set(block) == {"sim_cost_seconds", "created",
                                  "cache_version"}

    def test_hit_resurrects_missing_index_row(self, tmp_path):
        """bump_hit falls back to a full record when the row is gone
        (e.g. a fresh index), rebuilding it from the blob's meta with
        this one hit — earlier counts died with the old row."""
        cache = _filled_cache(tmp_path)
        cache.get(POINTS[0])
        cache.get(POINTS[0])
        # An older v4 blob may carry a meta.hits field; it is ignored,
        # not resumed.
        path = os.path.join(cache.cache_dir,
                            point_key(POINTS[0]) + ".json")
        with open(path) as handle:
            payload = json.load(handle)
        payload["meta"]["hits"] = 5
        with open(path, "w") as handle:
            json.dump(payload, handle)
        cache.index.clear()
        assert cache.get(POINTS[0]) is not None
        row = cache.index.get(point_key(POINTS[0]))
        assert row["hits"] == 1
        assert row["sim_cost_seconds"] is not None
        assert row["spec"] == POINTS[0].spec()

    def test_direct_put_records_supplied_cost(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.put(make_point(8), make_result(8), sim_cost=1.5)
        row = cache.index.get(point_key(make_point(8)))
        assert row["sim_cost_seconds"] == 1.5

    def test_figure_entries_share_the_index(self, tmp_path):
        root = str(tmp_path / "cache")
        results = ResultCache(root)
        figures = FigureArtifactCache(root)
        figures.put("fig9", {"scale": "0.25"}, {"rows": [1, 2, 3]})
        assert figures.get("fig9", {"scale": "0.25"}) \
            == {"rows": [1, 2, 3]}
        rows = [r for r in results.index.entries() if r["kind"] == "figure"]
        assert len(rows) == 1
        assert rows[0]["hits"] == 1
        assert rows[0]["spec"] == {"figure": "fig9",
                                   "spec": {"scale": "0.25"}}

    def test_index_file_invisible_to_cache_accounting(self, tmp_path):
        cache = _filled_cache(tmp_path)
        assert os.path.exists(cache.index.path)
        info = cache.info()
        assert info.entries == len(POINTS)
        assert info.tmp_files == 0
        sizes = sum(os.path.getsize(os.path.join(cache.cache_dir, n))
                    for n in os.listdir(cache.cache_dir)
                    if n.endswith(".json"))
        assert info.total_bytes == sizes


class TestRebuild:
    def test_reindex_keeps_live_hit_counts(self, tmp_path):
        """Reindexing over a readable index keeps the hit counts of
        every blob that still exists and drops rows whose blob is gone,
        without rewriting a blob."""
        cache = _filled_cache(tmp_path)
        cache.get(POINTS[0])
        cache.get(POINTS[0])
        cache.get(POINTS[1])
        gone = os.path.join(cache.cache_dir, point_key(POINTS[1]) + ".json")
        os.remove(gone)
        before = _contents(_blobs(cache))
        assert cache.reindex() == len(POINTS) - 1
        assert _contents(_blobs(cache)) == before
        hits = {row["key"]: row["hits"] for row in cache.index.entries()}
        assert point_key(POINTS[1]) not in hits
        assert hits[point_key(POINTS[0])] == 2
        assert sorted(hits.values()) == [0] * (len(POINTS) - 2) + [2]

    def test_reindex_after_index_deleted_restores_blob_facts(self,
                                                              tmp_path):
        """Delete index.sqlite and rebuild from the blobs: every creation
        fact matches the live index; hit counts, stored only in the
        index, start again at 0."""
        cache = _filled_cache(tmp_path)
        cache.get(POINTS[0])
        cache.get(POINTS[0])
        cache.get(POINTS[1])
        want = {row["key"]: row for row in cache.index.entries()}
        _delete_index_files(cache)

        rebuilt = ResultCache(cache.cache_dir)      # fresh connection
        assert rebuilt.reindex() == len(POINTS)
        got = {row["key"]: row for row in rebuilt.index.entries()}
        assert set(got) == set(want)
        for key, row in got.items():
            for field in ("kind", "spec", "bytes", "sim_cost_seconds",
                          "cache_version"):
                assert row[field] == want[key][field], \
                    "reindex diverged on %s of %s" % (field, key)
            assert row["created"] == pytest.approx(want[key]["created"])
            assert row["hits"] == 0

    def test_reindex_covers_figures(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = ResultCache(root)
        figures = FigureArtifactCache(root)
        figures.put("fig9", {"scale": "0.25"}, {"rows": []})
        figures.get("fig9", {"scale": "0.25"})
        assert cache.reindex() == 1
        row, = cache.index.entries()
        assert row["kind"] == "figure"
        assert row["spec"] == {"figure": "fig9", "spec": {"scale": "0.25"}}
        assert row["hits"] == 1                     # kept from the live index
        _delete_index_files(cache)
        rebuilt = ResultCache(root)
        assert rebuilt.reindex() == 1
        row, = rebuilt.index.entries()
        assert (row["kind"], row["hits"]) == ("figure", 0)

    def test_reindex_recovers_from_garbage_index_file(self, tmp_path):
        cache = _filled_cache(tmp_path)
        _delete_index_files(cache)
        with open(cache.index.path, "w") as handle:
            handle.write("this is not a sqlite database")
        rebuilt = ResultCache(cache.cache_dir)
        assert rebuilt.reindex() == len(POINTS)
        assert len(rebuilt.index.entries()) == len(POINTS)

    def test_broken_index_never_fails_the_cache(self, tmp_path):
        """Best-effort contract: with garbage where index.sqlite should
        be, stores and hits still succeed (errors are swallowed)."""
        root = str(tmp_path / "cache")
        os.makedirs(root)
        with open(os.path.join(root, INDEX_FILENAME), "w") as handle:
            handle.write("garbage")
        cache = ResultCache(root)
        assert cache.put(make_point(8), make_result(8), sim_cost=1.0)
        assert cache.get(make_point(8)) == make_result(8)
        assert cache.index.entries() == []      # unusable, not fatal

    def test_reindex_skips_unreadable_blobs(self, tmp_path):
        cache = _filled_cache(tmp_path)
        bad = os.path.join(cache.cache_dir, "0" * 64 + ".json")
        with open(bad, "w") as handle:
            handle.write("{truncated")
        assert cache.reindex() == len(POINTS)


class TestQueries:
    def _indexed(self, tmp_path, costs):
        cache = ResultCache(str(tmp_path / "cache"))
        for threshold, cost in costs.items():
            cache.put(make_point(threshold), make_result(threshold),
                      sim_cost=cost)
        return cache

    def test_top_by_hits_and_cost(self, tmp_path):
        cache = self._indexed(tmp_path, {4: 0.5, 8: 2.0, 16: 1.0})
        cache.get(make_point(16))
        cache.get(make_point(16))
        cache.get(make_point(4))
        by_hits = cache.index.top(by="hits")
        assert [r["hits"] for r in by_hits] == [2, 1, 0]
        assert by_hits[0]["key"] == point_key(make_point(16))
        by_cost = cache.index.top(by="cost")
        assert [r["sim_cost_seconds"] for r in by_cost] == [2.0, 1.0, 0.5]

    def test_top_respects_limit_and_rejects_unknown_by(self, tmp_path):
        cache = self._indexed(tmp_path, {4: 0.5, 8: 2.0, 16: 1.0})
        assert len(cache.index.top(by="bytes", limit=2)) == 2
        with pytest.raises(ValueError):
            cache.index.top(by="alphabetical")

    def test_stats_dict_rolls_up_by_kind(self, tmp_path):
        cache = self._indexed(tmp_path, {4: 0.5, 8: 2.0})
        figures = FigureArtifactCache(cache.cache_dir)
        figures.put("fig9", {"scale": "0.25"}, {"rows": []})
        stats = cache.index.stats_dict()
        assert stats["entries"] == 3
        assert stats["by_kind"]["result"]["entries"] == 2
        assert stats["by_kind"]["result"]["sim_cost_seconds"] \
            == pytest.approx(2.5)
        assert stats["by_kind"]["figure"]["entries"] == 1
        assert stats["path"] == cache.index.path

    def test_costs_by_key_skips_unknown(self, tmp_path):
        cache = self._indexed(tmp_path, {4: 1.5, 8: None})
        costs = cache.index.costs_by_key()
        assert costs == {point_key(make_point(4)): 1.5}


class TestEviction:
    def test_cost_policy_keeps_expensive_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        for threshold, cost in ((4, 0.1), (8, 5.0), (16, 3.0), (32, 0.2)):
            cache.put(make_point(threshold), make_result(threshold),
                      sim_cost=cost)
        report = cache.prune(max_entries=2, policy="cost")
        assert report.removed_entries == 2
        assert report.policy == "cost"
        surviving = {row["key"] for row in cache.index.entries()}
        assert surviving == {point_key(make_point(8)),
                             point_key(make_point(16))}
        assert cache.get(make_point(8)) is not None
        assert cache.get(make_point(4)) is None    # evicted (cheap)

    def test_unknown_policy_raises(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        with pytest.raises(ValueError):
            cache.prune(max_entries=1, policy="random")

    def test_dry_run_reports_without_removing(self, tmp_path):
        cache = _filled_cache(tmp_path)
        report = cache.prune(max_entries=1, dry_run=True)
        assert report.dry_run is True
        assert report.removed_entries == len(POINTS) - 1
        assert "would prune" in report.format()
        assert len(cache) == len(POINTS)            # nothing touched
        assert len(cache.index.entries()) == len(POINTS)

    def test_prune_without_limits_leaves_blobs_untouched(self, tmp_path):
        """prune() never rewrites a survivor: bytes and mtimes (the LRU
        order) stay exactly as they were, and so do the index's hit
        counts."""
        cache = _filled_cache(tmp_path)
        FigureArtifactCache(cache.cache_dir).put("fig9", {"scale": "0.25"},
                                                 {"rows": []})
        cache.get(POINTS[0])
        for age, path in enumerate(sorted(_blobs(cache))):
            stamp = 1_000_000 + age         # distinct, long past
            os.utime(path, (stamp, stamp))
        before = _blobs(cache)
        report = cache.prune()
        assert report.removed_entries == 0
        assert _blobs(cache) == before
        assert cache.index.get(point_key(POINTS[0]))["hits"] == 1

    def test_prune_removes_index_rows(self, tmp_path):
        cache = _filled_cache(tmp_path)
        cache.prune(max_entries=1)
        assert len(cache.index.entries()) == 1
        assert len(cache) == 1

    def test_clear_empties_the_index(self, tmp_path):
        cache = _filled_cache(tmp_path)
        cache.clear()
        assert cache.index.entries() == []
        assert cache.index.stats_dict()["entries"] == 0

    def test_corruption_drop_removes_index_row(self, tmp_path):
        cache = _filled_cache(tmp_path)
        key = point_key(POINTS[0])
        with open(os.path.join(cache.cache_dir, key + ".json"),
                  "w") as handle:
            handle.write("{broken")
        assert cache.get(POINTS[0]) is None
        assert cache.index.get(key) is None


class TestPutCleanupRace:
    def test_put_survives_tmp_swept_by_concurrent_prune(self, tmp_path,
                                                        monkeypatch):
        """Regression: put's cleanup used an exists()-then-remove pair, so
        a concurrent prune sweeping the .tmp in between raised from the
        finally block. The quiet unconditional remove must swallow it."""
        cache = ResultCache(str(tmp_path / "cache"))
        real_replace = os.replace

        def replace_and_sweep(src, dst):
            real_replace(src, dst)      # leaves src gone, like a prune won
            raise_if = os.path.exists(src)
            assert not raise_if

        monkeypatch.setattr(cache_mod.os, "replace", replace_and_sweep)
        assert cache.put(make_point(8), make_result(8)) is True
        assert cache.get(make_point(8)) == make_result(8)

    def test_put_cleanup_swallows_oserror(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"))
        real_remove = os.remove

        def hostile_remove(path):
            if path.endswith(".tmp"):
                raise OSError("swept by a concurrent prune")
            return real_remove(path)

        monkeypatch.setattr(cache_mod.os, "remove", hostile_remove)
        assert cache.put(make_point(8), make_result(8)) is True
        figures = FigureArtifactCache(cache.cache_dir)
        assert figures.put("fig9", {"scale": "0.25"}, {"rows": []}) is True
