"""Sweep engine tests: serial/parallel equivalence across every backend,
per-point error attribution, cache behavior, corruption recovery, and
executor-routed tuning."""

import json
import multiprocessing
import os
import sys
import threading

import pytest

from repro.benchmarks import get_benchmark
from repro.harness import (BACKENDS, PointFailure, ResultCache, RunResult,
                           SweepExecutor, SweepPoint, SweepPointError,
                           TuningParams, figure11, figure12, point_key,
                           quick_tune, run_sweep, run_variant, sweep_grid,
                           tune)

from . import conftest
from repro.harness import figures as figures_mod
from repro.harness import sweep as sweep_mod
from repro.sim.config import DeviceConfig

SCALE = 0.08

#: A small fig9-style grid: two pairs x three variants.
PAIRS = (("BFS", "KRON"), ("SSSP", "KRON"))
LABELS = ("No CDP", "CDP", "CDP+T+C+A")
PARAMS = TuningParams(threshold=16, coarsen_factor=4, granularity="block")


def small_grid():
    return sweep_grid(PAIRS, LABELS, scale=SCALE, params=PARAMS)


@pytest.fixture(scope="module")
def serial_results():
    return SweepExecutor(jobs=1).run(small_grid())


@pytest.fixture(name="worker_fleet", scope="module")
def worker_fleet_fixture():
    """Two in-process worker daemons backing the ``remote`` backend."""
    with conftest.worker_fleet() as servers:
        yield [server.address for server in servers]


def make_executor(backend, worker_fleet, jobs=3, **kwargs):
    """SweepExecutor on *backend*; the remote one gets the test fleet
    (remote rejects jobs>1 — its parallelism is one chunk per worker)."""
    if backend == "remote":
        return SweepExecutor(backend=backend, workers=worker_fleet,
                             **kwargs)
    return SweepExecutor(jobs=jobs, backend=backend, **kwargs)


class TestSerialParallelEquivalence:
    def test_parallel_results_identical(self, serial_results):
        parallel = SweepExecutor(jobs=3).run(small_grid())
        assert parallel == serial_results

    def test_matches_direct_run_variant(self, serial_results):
        point = small_grid()[2]     # BFS/KRON CDP+T+C+A
        bench = get_benchmark(point.benchmark)
        data = bench.build_dataset(point.dataset, point.scale)
        direct = run_variant(bench, data, point.label, point.params,
                             point.device_config)
        assert serial_results[2] == direct

    def test_ordering_follows_input(self, serial_results):
        labels = [(r.benchmark, r.label) for r in serial_results]
        assert labels == [(b, l) for b, _ in PAIRS for l in LABELS]

    def test_run_sweep_convenience(self, serial_results, tmp_path):
        results, stats = run_sweep(small_grid(), jobs=2,
                                   cache_dir=str(tmp_path / "cache"))
        assert results == serial_results
        assert stats.simulated == len(serial_results)


class TestBackends:
    def test_default_backend_tracks_jobs(self):
        assert SweepExecutor(jobs=1).backend.name == "serial"
        assert SweepExecutor(jobs=4).backend.name == "process"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            SweepExecutor(jobs=2, backend="quantum")

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            SweepExecutor(on_error="ignore")
        with pytest.raises(ValueError, match="on_error"):
            SweepExecutor().run([], on_error="Raise")

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_backend_parity(self, serial_results, backend, worker_fleet):
        with make_executor(backend, worker_fleet) as executor:
            assert executor.backend.name == backend
            assert executor.run(small_grid()) == serial_results

    def test_chunked_submission_preserves_order(self, serial_results):
        with SweepExecutor(jobs=2, backend="process",
                           chunk_size=2) as executor:
            assert executor.run(small_grid()) == serial_results

    def test_run_sweep_accepts_backend(self, serial_results):
        results, stats = run_sweep(small_grid(), jobs=2, backend="process")
        assert results == serial_results
        assert stats.simulated == len(serial_results)


_REAL_SIMULATE = sweep_mod._simulate_point


def _fail_cdp(point):
    """Patched simulator: dies on every plain-CDP point."""
    if point.label == "CDP":
        raise ValueError("injected failure")
    return _REAL_SIMULATE(point)


class TestErrorAttribution:
    @pytest.mark.parametrize("backend", (
        "serial",
        # Pool workers only see the monkeypatched simulator via fork.
        pytest.param("process", marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="needs fork to inherit the patched simulator")),
    ))
    def test_failure_names_the_point(self, monkeypatch, backend):
        monkeypatch.setattr(sweep_mod, "_simulate_point", _fail_cdp)
        with SweepExecutor(jobs=2, backend=backend) as executor:
            with pytest.raises(SweepPointError) as exc_info:
                executor.run(small_grid())
        error = exc_info.value
        assert error.point.label == "CDP"
        assert error.point.describe() in str(error)
        assert "injected failure" in str(error)
        assert error.error == "ValueError"

    def test_continue_past_failures(self, monkeypatch, serial_results):
        monkeypatch.setattr(sweep_mod, "_simulate_point", _fail_cdp)
        executor = SweepExecutor(on_error="continue")
        results = executor.run(small_grid())
        assert len(results) == len(serial_results)
        for result, expected, point in zip(results, serial_results,
                                           small_grid()):
            if point.label == "CDP":
                assert isinstance(result, PointFailure)
                assert result.point == point
                assert "injected failure" in result.describe()
                assert isinstance(result.to_error(), SweepPointError)
            else:
                assert result == expected
        assert executor.stats.failed == 2

    def test_stats_buckets_partition_points(self, monkeypatch,
                                            serial_results, tmp_path):
        """hits + simulated + failed must equal points (failures used to
        be double-counted into simulated)."""
        cache_dir = str(tmp_path / "cache")
        SweepExecutor(cache=cache_dir).run(small_grid()[:1])  # one No-CDP hit
        monkeypatch.setattr(sweep_mod, "_simulate_point", _fail_cdp)
        executor = SweepExecutor(cache=cache_dir, on_error="continue")
        executor.run(small_grid())
        stats = executor.stats
        assert (stats.points, stats.hits, stats.simulated,
                stats.failed) == (6, 1, 3, 2)

    def test_figures_and_tuners_force_raise(self, monkeypatch):
        """A continue-mode executor must not leak PointFailure objects
        into figure/tuner result handling — those paths force a raise
        that still names the failed point."""
        monkeypatch.setattr(sweep_mod, "_simulate_point", _fail_cdp)
        bench = get_benchmark("BFS")
        data = bench.build_dataset("KRON", SCALE)
        executor = SweepExecutor(on_error="continue")
        with pytest.raises(SweepPointError, match="BFS/KRON CDP"):
            figures_mod._run_point(bench, data, "CDP", None, None,
                                   executor, SCALE)
        with pytest.raises(SweepPointError):
            tune(bench, data, "CDP", strategy="guided",
                 executor=executor, scale=SCALE)

    def test_dataset_memo_eviction_is_thread_safe(self, monkeypatch,
                                                  serial_results):
        """``repro serve``'s miss workers are threads, each with its own
        serial executor, sharing one dataset memo; a tiny memo limit
        forces constant concurrent eviction, which must never corrupt
        results or raise."""
        monkeypatch.setattr(sweep_mod, "_DATASET_MEMO_LIMIT", 1)
        monkeypatch.setattr(sweep_mod, "_DATASET_MEMO", {})
        outcomes = []

        def miss_worker():
            try:
                outcomes.append(SweepExecutor().run(small_grid()))
            except Exception as exc:        # reported by the assert below
                outcomes.append(exc)

        threads = [threading.Thread(target=miss_worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [serial_results] * 4

    def test_run_level_override(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_simulate_point", _fail_cdp)
        executor = SweepExecutor()     # default on_error="raise"
        results = executor.run(small_grid(), on_error="continue")
        assert sum(isinstance(r, PointFailure) for r in results) == 2

    def test_successes_cached_even_when_raising(self, monkeypatch,
                                                tmp_path):
        """One failed point must not throw away the rest of the batch's
        simulations: successes are stored before the error is raised."""
        cache_dir = str(tmp_path / "cache")
        monkeypatch.setattr(sweep_mod, "_simulate_point", _fail_cdp)
        with pytest.raises(SweepPointError):
            SweepExecutor(cache=cache_dir).run(small_grid())
        monkeypatch.setattr(sweep_mod, "_simulate_point", _REAL_SIMULATE)
        healed = SweepExecutor(cache=cache_dir)
        healed.run(small_grid())
        assert healed.stats.simulated == 2      # only the failed points
        assert healed.stats.hits == 4

    def test_failed_points_are_not_cached(self, monkeypatch, tmp_path):
        cache_dir = str(tmp_path / "cache")
        monkeypatch.setattr(sweep_mod, "_simulate_point", _fail_cdp)
        broken = SweepExecutor(cache=cache_dir, on_error="continue")
        broken.run(small_grid())
        assert broken.stats.failed == 2
        monkeypatch.setattr(sweep_mod, "_simulate_point", _REAL_SIMULATE)
        # The failed points must re-simulate — only successes were stored.
        healed = SweepExecutor(cache=cache_dir)
        healed.run(small_grid())
        assert healed.stats.simulated == 2
        assert healed.stats.hits == 4
        assert healed.stats.failed == 0


class TestFigureParityAcrossBackends:
    """figure11/figure12 on a tiny grid: every backend must reproduce the
    serial figures bit-for-bit."""

    TINY = 0.05

    @pytest.fixture(scope="class")
    def fig11_serial(self):
        return figure11("BFS", "KRON", scale=self.TINY)

    @pytest.fixture(scope="class")
    def fig12_tiny(self):
        patcher = pytest.MonkeyPatch()
        patcher.setattr(figures_mod, "FIG12_BENCHMARKS", ("BFS",))
        yield figure12(scale=self.TINY)
        patcher.undo()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_figure11_parity(self, fig11_serial, backend, worker_fleet):
        with make_executor(backend, worker_fleet, jobs=2) as executor:
            fig = figure11("BFS", "KRON", scale=self.TINY,
                           executor=executor)
        assert fig.series == fig11_serial.series
        assert fig.thresholds == fig11_serial.thresholds

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_figure12_parity(self, fig12_tiny, backend, worker_fleet):
        with make_executor(backend, worker_fleet, jobs=2) as executor:
            fig = figure12(scale=self.TINY, executor=executor)
        assert fig.speedups == fig12_tiny.speedups
        assert fig.best_params == fig12_tiny.best_params


class TestResultCache:
    def test_miss_then_hit(self, serial_results, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = SweepExecutor(jobs=1, cache=cache_dir)
        assert cold.run(small_grid()) == serial_results
        assert (cold.stats.hits, cold.stats.simulated) == (0, 6)
        warm = SweepExecutor(jobs=1, cache=cache_dir)
        assert warm.run(small_grid()) == serial_results
        assert (warm.stats.hits, warm.stats.simulated) == (6, 0)

    def test_warm_run_never_invokes_simulator(self, serial_results, tmp_path,
                                              monkeypatch):
        cache_dir = str(tmp_path / "cache")
        SweepExecutor(jobs=1, cache=cache_dir).run(small_grid())

        def banned(point):
            raise AssertionError("simulator invoked on a warm run: %s"
                                 % point.describe())

        monkeypatch.setattr(sweep_mod, "_simulate_point", banned)
        warm = SweepExecutor(jobs=2, cache=cache_dir)
        assert warm.run(small_grid()) == serial_results
        assert warm.stats.simulated == 0

    def test_invalidation_on_param_change(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        base = SweepPoint("BFS", "KRON", "CDP+T",
                          TuningParams(threshold=16), scale=SCALE)
        SweepExecutor(jobs=1, cache=cache_dir).run([base])
        changed = SweepPoint("BFS", "KRON", "CDP+T",
                             TuningParams(threshold=32), scale=SCALE)
        executor = SweepExecutor(jobs=1, cache=cache_dir)
        executor.run([changed])
        assert executor.stats.simulated == 1
        assert executor.stats.hits == 0

    def test_key_covers_every_spec_axis(self):
        base = SweepPoint("BFS", "KRON", "CDP+T",
                          TuningParams(threshold=16), scale=SCALE)
        variations = (
            SweepPoint("SSSP", "KRON", "CDP+T",
                       TuningParams(threshold=16), scale=SCALE),
            SweepPoint("BFS", "CNR", "CDP+T",
                       TuningParams(threshold=16), scale=SCALE),
            SweepPoint("BFS", "KRON", "CDP",
                       TuningParams(threshold=16), scale=SCALE),
            SweepPoint("BFS", "KRON", "CDP+T",
                       TuningParams(threshold=8), scale=SCALE),
            SweepPoint("BFS", "KRON", "CDP+T",
                       TuningParams(threshold=16), scale=SCALE / 2),
            SweepPoint("BFS", "KRON", "CDP+T", TuningParams(threshold=16),
                       DeviceConfig(num_sms=4), SCALE),
        )
        keys = {point_key(p) for p in variations}
        assert point_key(base) not in keys
        assert len(keys) == len(variations)

    def test_corrupted_entry_recovers(self, serial_results, tmp_path):
        cache_dir = str(tmp_path / "cache")
        point = small_grid()[1]
        SweepExecutor(jobs=1, cache=cache_dir).run([point])
        path = os.path.join(cache_dir, point_key(point) + ".json")
        with open(path, "w") as handle:
            handle.write("{not json at all")
        executor = SweepExecutor(jobs=1, cache=cache_dir)
        assert executor.run([point]) == [serial_results[1]]
        assert executor.stats.simulated == 1
        # The entry is repaired: a third run is a pure hit.
        with open(path) as handle:
            json.load(handle)
        again = SweepExecutor(jobs=1, cache=cache_dir)
        again.run([point])
        assert again.stats.hits == 1

    def test_point_histogram_observes_each_points_sim_cost(self,
                                                           tmp_path):
        """repro_sweep_point_seconds gets one observation per simulated
        point, of that point's own measured sim time (the cost the index
        records), not a share of the batch's wall time."""
        histogram = sweep_mod._POINT_SECONDS
        cache = ResultCache(str(tmp_path / "cache"))
        points = small_grid()[:2]
        # The registry is process-global, so assert deltas, not totals.
        count0 = histogram.count(backend="serial")
        sum0 = histogram.sum(backend="serial")
        SweepExecutor(jobs=1, cache=cache).run(points)
        costs = [cache.index.get(point_key(point))["sim_cost_seconds"]
                 for point in points]
        assert histogram.count(backend="serial") == count0 + 2
        assert histogram.sum(backend="serial") - sum0 \
            == pytest.approx(sum(costs), rel=1e-9)

    def test_result_roundtrip_is_exact(self, serial_results):
        for result in serial_results:
            assert RunResult.from_dict(result.to_dict()) == result

    def test_results_with_outputs_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        bench = get_benchmark("BFS")
        data = bench.build_dataset("KRON", SCALE)
        result = run_variant(bench, data, "CDP", keep_outputs=True)
        point = SweepPoint("BFS", "KRON", "CDP", scale=SCALE)
        assert cache.put(point, result) is False
        assert len(cache) == 0


class TestGridBuilder:
    def test_masks_unused_params(self):
        points = small_grid()
        by_label = {p.label: p.params for p in points[:3]}
        assert by_label["No CDP"] == TuningParams()
        assert by_label["CDP"] == TuningParams()
        assert by_label["CDP+T+C+A"] == PARAMS

    def test_group_blocks_masked_unless_multiblock(self):
        shared = TuningParams(threshold=16, granularity="block",
                              group_blocks=16)
        point, = sweep_grid([("BFS", "KRON")], ("CDP+T+A",), scale=SCALE,
                            params=shared)
        assert point.params.group_blocks == 8     # block ignores groups
        shared_mb = TuningParams(threshold=16, granularity="multiblock",
                                 group_blocks=16)
        point_mb, = sweep_grid([("BFS", "KRON")], ("CDP+T+A",), scale=SCALE,
                               params=shared_mb)
        assert point_mb.params.group_blocks == 16

    def test_params_for_override(self):
        points = sweep_grid(PAIRS, ("CDP+T",), scale=SCALE,
                            params_for=lambda b, d, l:
                            TuningParams(threshold=64))
        assert all(p.params.threshold == 64 for p in points)


class TestExecutorRoutedTuning:
    @pytest.fixture(scope="class")
    def bfs(self):
        bench = get_benchmark("BFS")
        return bench, bench.build_dataset("KRON", SCALE)

    def test_tune_matches_serial(self, bfs):
        bench, data = bfs
        serial = tune(bench, data, "CDP+T", strategy="guided")
        swept = tune(bench, data, "CDP+T", strategy="guided",
                     executor=SweepExecutor(jobs=2), scale=SCALE)
        assert swept.best == serial.best
        assert swept.best_time == serial.best_time
        assert swept.evaluated == serial.evaluated

    def test_tune_uses_cache(self, bfs, tmp_path):
        bench, data = bfs
        cache_dir = str(tmp_path / "cache")
        first = SweepExecutor(jobs=1, cache=cache_dir)
        tune(bench, data, "CDP+T", strategy="guided",
             executor=first, scale=SCALE)
        second = SweepExecutor(jobs=1, cache=cache_dir)
        tune(bench, data, "CDP+T", strategy="guided",
             executor=second, scale=SCALE)
        assert second.stats.simulated == 0
        assert second.stats.hits == first.stats.simulated

    def test_quick_tune_matches_serial(self, bfs):
        bench, data = bfs
        serial = quick_tune(bench, data, "CDP+T+C+A")
        swept = quick_tune(bench, data, "CDP+T+C+A",
                           executor=SweepExecutor(jobs=2), scale=SCALE)
        assert swept.best == serial.best
        assert swept.best_time == serial.best_time
        assert swept.evaluated == serial.evaluated
