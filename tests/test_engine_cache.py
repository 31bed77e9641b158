"""Compiled-kernel cache tests (repro.engine.cache).

Covers the memoization contract (same source + config structure + cost
model → one compile, whatever the tuning values), instantiation isolation
(cached artifacts never share mutable state, and each Module binds its
own values), key sensitivity (source, transform structure, cost model,
and the shared version token all discriminate), one parse per source, one
``compile()`` per distinct generated function, the CACHE_VERSION
invalidation contract with the on-disk result cache, LRU bounding, and the
metrics counter the serve endpoint exports.
"""

import sys
import threading
from dataclasses import replace
from types import CodeType

import pytest

from repro.engine import (CompiledKernelCache, KERNEL_CACHE,
                          codegen_cache_key, compiled_module,
                          generate_module_source)
from repro.engine.cache import DEFAULT_CAPACITY, FUNCTIONS_PER_ENTRY
from repro.engine.codegen import MODULE_HEADER
from repro.harness import ResultCache, SweepExecutor, TuningParams, point_key
from repro.harness import cache as result_cache_mod
from repro.harness.metrics import REGISTRY
from repro.harness.sweep import SweepPoint
from repro.sim.config import DeviceConfig
from repro.sim.costmodel import CostModel
from repro.transforms import OptConfig
from tests.conftest import BFS_LIKE_SRC

SIMPLE_SRC = """
__global__ void scale(int *data, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        data[tid] = data[tid] * 2;
    }
}
"""


class TestMemoization:
    def test_hit_returns_same_artifact(self):
        cache = CompiledKernelCache()
        first = cache.get_or_compile(SIMPLE_SRC)
        second = cache.get_or_compile(SIMPLE_SRC)
        assert first is second
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1,
                                 "capacity": cache.capacity}

    def test_distinct_sources_do_not_collide(self):
        cache = CompiledKernelCache()
        a = cache.get_or_compile(SIMPLE_SRC)
        b = cache.get_or_compile(BFS_LIKE_SRC)
        assert a is not b
        assert len(cache) == 2

    def test_transform_config_discriminates(self):
        cache = CompiledKernelCache()
        plain = cache.get_or_compile(BFS_LIKE_SRC)
        thresholded = cache.get_or_compile(BFS_LIKE_SRC,
                                           OptConfig(threshold=64))
        aggregated = cache.get_or_compile(BFS_LIKE_SRC,
                                          OptConfig(aggregate="block"))
        assert plain is not thresholded
        assert thresholded is not aggregated
        assert cache.stats()["misses"] == 3
        # ... and the transform actually ran: the artifact carries meta.
        assert thresholded.meta is not None
        assert plain.meta is None

    def test_cost_model_discriminates(self):
        cache = CompiledKernelCache()
        default = cache.get_or_compile(SIMPLE_SRC)
        heavy = cache.get_or_compile(SIMPLE_SRC,
                                     cost_model=CostModel(mem=100))
        assert default is not heavy
        assert cache.stats()["misses"] == 2

    def test_modules_from_one_artifact_share_no_state(self):
        cache = CompiledKernelCache()
        m1 = cache.module(SIMPLE_SRC)
        m2 = cache.module(SIMPLE_SRC)
        assert m1.artifact is m2.artifact
        assert m1.namespace is not m2.namespace
        m1.namespace["_parity_probe"] = object()
        assert "_parity_probe" not in m2.namespace

    def test_lru_bound_evicts_oldest(self):
        cache = CompiledKernelCache(capacity=2)
        sources = [SIMPLE_SRC.replace("* 2", "* %d" % k) for k in (3, 5, 7)]
        for src in sources:
            cache.get_or_compile(src)
        assert len(cache) == 2
        # Oldest (k=3) was evicted: recompiling it is a miss.
        misses = cache.stats()["misses"]
        cache.get_or_compile(sources[0])
        assert cache.stats()["misses"] == misses + 1
        # Newest (k=7) survived.
        hits = cache.stats()["hits"]
        cache.get_or_compile(sources[2])
        assert cache.stats()["hits"] == hits + 1

    def test_thread_safety_single_entry(self):
        cache = CompiledKernelCache()
        artifacts = []

        def worker():
            artifacts.append(cache.get_or_compile(BFS_LIKE_SRC))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 1
        assert len({id(a) for a in artifacts}) == 1


class TestStructureKey:
    """Configs that differ only in tuning values share one artifact; each
    Module of it binds its own values."""

    MULTIBLOCK = OptConfig(threshold=32, coarsen_factor=4,
                           aggregate="multiblock", group_blocks=4)
    AGG_THRESHOLD = OptConfig(threshold=32, aggregate="block",
                              agg_threshold=8)

    @pytest.mark.parametrize("base, change", [
        (MULTIBLOCK, {"threshold": 64}),
        (MULTIBLOCK, {"coarsen_factor": 8}),
        (MULTIBLOCK, {"group_blocks": 2}),
        (AGG_THRESHOLD, {"agg_threshold": 16})],
        ids=["threshold", "coarsen_factor", "group_blocks", "agg_threshold"])
    def test_tuning_values_share_one_artifact(self, base, change):
        cache = CompiledKernelCache()
        first = cache.get_or_compile(BFS_LIKE_SRC, base)
        assert cache.get_or_compile(BFS_LIKE_SRC,
                                    replace(base, **change)) is first
        assert cache.stats()["misses"] == 1

    @pytest.mark.parametrize("base, change", [
        (MULTIBLOCK, {"threshold": None}),
        (MULTIBLOCK, {"coarsen_factor": None}),
        (MULTIBLOCK, {"aggregate": "block"}),
        (MULTIBLOCK, {"aggregate": "grid"}),
        (AGG_THRESHOLD, {"aggregate": "warp"}),
        (AGG_THRESHOLD, {"agg_threshold": None})],
        ids=["T-off", "C-off", "block", "grid", "warp", "agg_threshold-unset"])
    def test_structural_differences_compile_apart(self, base, change):
        cache = CompiledKernelCache()
        first = cache.get_or_compile(BFS_LIKE_SRC, base)
        assert cache.get_or_compile(BFS_LIKE_SRC,
                                    replace(base, **change)) is not first
        assert cache.stats()["misses"] == 2

    def test_each_module_binds_its_callers_values(self):
        cache = CompiledKernelCache()
        small, large = (cache.module(BFS_LIKE_SRC, replace(
            self.MULTIBLOCK, threshold=threshold, group_blocks=group))
            for threshold, group in ((16, 2), (64, 8)))
        assert small.artifact is large.artifact
        for module, threshold, group in ((small, 16, 2), (large, 64, 8)):
            assert module.namespace["_THRESHOLD"] == threshold
            assert module.namespace["_CFACTOR"] == 4
            assert module.namespace["_AGG_GRANULARITY"] == group
            assert module.meta.macros == {"_THRESHOLD": threshold,
                                          "_CFACTOR": 4,
                                          "_AGG_GRANULARITY": group}
            assert [spec.group_blocks for spec in module.meta.agg_specs] \
                == [group]

    def test_source_parses_once_until_clear(self, monkeypatch):
        from repro.engine import cache as cache_mod
        real_parse = cache_mod.parse
        parses = []

        def counting_parse(source):
            parses.append(source)
            return real_parse(source)

        monkeypatch.setattr(cache_mod, "parse", counting_parse)
        cache = CompiledKernelCache()
        for config in (None, OptConfig(threshold=64),
                       OptConfig(aggregate="grid")):
            cache.get_or_compile(BFS_LIKE_SRC, config)
        assert len(parses) == 1
        cache.clear()
        assert len(cache) == 0
        cache.get_or_compile(BFS_LIKE_SRC, OptConfig(threshold=64))
        assert len(parses) == 2

    def test_concurrent_modules_of_one_artifact_keep_their_values(
            self, monkeypatch):
        """Threads run Modules of one artifact with different thresholds
        at once; each gets its single-threaded result."""
        from repro.benchmarks import get_benchmark
        from repro.harness import run_variant

        kernels = CompiledKernelCache()
        monkeypatch.setattr("repro.engine.cache.KERNEL_CACHE", kernels)
        bench = get_benchmark("BFS")
        data = bench.build_dataset("KRON", 0.05)
        thresholds = (2, 8, 64, 4096)

        def run(threshold):
            return run_variant(bench, data, "CDP+T",
                               TuningParams(threshold=threshold),
                               keep_outputs=True)

        alone = {t: run(t) for t in thresholds}
        assert alone[2].device_launches > alone[4096].device_launches == 0
        together = {}
        start = threading.Barrier(len(thresholds))

        def worker(threshold):
            start.wait(timeout=30)
            together[threshold] = run(threshold)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in thresholds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert kernels.stats()["misses"] == 1
        for t in thresholds:
            assert together[t].to_dict() == alone[t].to_dict()
            assert together[t].outputs.keys() == alone[t].outputs.keys()
            for name, values in alone[t].outputs.items():
                assert (together[t].outputs[name] == values).all()


def _functions_of(artifact):
    """{function name: the code object of the chunk that defines it}."""
    return {const.co_name: code for code in artifact.code
            for const in code.co_consts if isinstance(const, CodeType)}


class TestFunctionMemo:
    """Each distinct generated function compiles once per cache."""

    THRESHOLD = OptConfig(threshold=64)
    AGGREGATE = OptConfig(threshold=64, aggregate="block")

    def test_structures_share_the_code_of_a_common_function(self):
        cache = CompiledKernelCache()
        plain = _functions_of(cache.get_or_compile(BFS_LIKE_SRC))
        thresholded = _functions_of(
            cache.get_or_compile(BFS_LIKE_SRC, self.THRESHOLD))
        aggregated = _functions_of(
            cache.get_or_compile(BFS_LIKE_SRC, self.AGGREGATE))
        # Thresholding and block aggregation rewrite the parent only.
        assert plain["b_child"] is thresholded["b_child"] \
            is aggregated["b_child"]
        assert thresholded["f_child_serial"] is aggregated["f_child_serial"]
        assert plain["b_parent"] is not thresholded["b_parent"]
        # A barrier kernel's generator and block function are one chunk.
        assert aggregated["k_parent"] is aggregated["b_parent"]
        # child, parent, child_serial, the new parent, child_agg and the
        # barrier parent, plus the header.
        assert cache.function_count() == 7

    def test_every_artifact_shares_one_header(self):
        cache = CompiledKernelCache()
        headers = {id(cache.get_or_compile(source, config).code[0])
                   for source in (SIMPLE_SRC, BFS_LIKE_SRC)
                   for config in (None, self.THRESHOLD)
                   if config is None or source is BFS_LIKE_SRC}
        assert len(headers) == 1

    def test_clear_compiles_every_function_again(self):
        cache = CompiledKernelCache()
        before = cache.get_or_compile(BFS_LIKE_SRC, self.AGGREGATE)
        cache.clear()
        assert cache.function_count() == 0
        after = cache.get_or_compile(BFS_LIKE_SRC, self.AGGREGATE)
        assert after.python_source == before.python_source
        assert len(after.code) == len(before.code)
        assert not {id(code) for code in before.code} & \
            {id(code) for code in after.code}

    def test_memo_stays_within_its_bound(self):
        assert CompiledKernelCache().function_capacity == \
            FUNCTIONS_PER_ENTRY * DEFAULT_CAPACITY
        cache = CompiledKernelCache(capacity=1)
        assert cache.function_capacity == FUNCTIONS_PER_ENTRY
        sources = [BFS_LIKE_SRC.replace("+ 255) / 256", "+ %d) / %d"
                                        % (k - 1, k)) for k in (32, 64, 128)]
        for source in sources:
            for config in (None, self.THRESHOLD):
                artifact = cache.get_or_compile(source, config)
                assert cache.function_count() <= cache.function_capacity
        # The last artifact's chunks are the most recently used ones.
        assert cache.function_count() == FUNCTIONS_PER_ENTRY
        assert len(artifact.code) == FUNCTIONS_PER_ENTRY

    def test_concurrent_structures_of_one_source(self, monkeypatch):
        """Four threads compile four structures of one source through one
        fresh cache at once; each gets its single-threaded Module."""
        from repro.benchmarks import get_benchmark
        from repro.harness import run_variant

        bench = get_benchmark("BFS")
        data = bench.build_dataset("KRON", 0.05)
        points = (
            ("CDP+T", TuningParams(threshold=16)),
            ("CDP+C", TuningParams(coarsen_factor=4)),
            ("CDP+T+A", TuningParams(threshold=16, granularity="block")),
            ("CDP+T+C+A", TuningParams(threshold=16, coarsen_factor=4,
                                       granularity="multiblock")))

        def run(label, params):
            return run_variant(bench, data, label, params, keep_outputs=True)

        monkeypatch.setattr("repro.engine.cache.KERNEL_CACHE",
                            CompiledKernelCache())
        alone = {label: run(label, params) for label, params in points}
        sources = {label: bench.module_for("cdp", config).python_source
                   for label, config in (
                       (label, variant_to_config(label, params))
                       for label, params in points)}
        kernels = CompiledKernelCache()
        monkeypatch.setattr("repro.engine.cache.KERNEL_CACHE", kernels)
        together = {}
        start = threading.Barrier(len(points))

        def worker(label, params):
            start.wait(timeout=30)
            together[label] = run(label, params)

        threads = [threading.Thread(target=worker, args=point)
                   for point in points]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert kernels.stats()["misses"] == len(points)
        artifacts = {label: kernels.get_or_compile(
            bench.cdp_source(), variant_to_config(label, params))
            for label, params in points}
        assert len({id(artifact.code[0])
                    for artifact in artifacts.values()}) == 1
        for label, _ in points:
            assert artifacts[label].python_source == sources[label]
            assert together[label].to_dict() == alone[label].to_dict()
            assert together[label].outputs.keys() == \
                alone[label].outputs.keys()
            for name, values in alone[label].outputs.items():
                assert (together[label].outputs[name] == values).all()

    @pytest.mark.parametrize("config", [None, THRESHOLD, AGGREGATE],
                             ids=["plain", "T", "T+A"])
    def test_chunks_join_to_the_module_source(self, config):
        from repro.benchmarks import all_benchmarks

        cache = CompiledKernelCache()
        for bench in all_benchmarks():
            artifact = cache.get_or_compile(bench.cdp_source(), config)
            chunks, kernel_info = generate_module_source(
                artifact.program,
                artifact.meta.macros if artifact.meta else (),
                artifact.cost_model)
            assert "\n".join(chunks) == artifact.python_source
            assert chunks[0] == MODULE_HEADER
            assert kernel_info == artifact.kernel_info
            assert len(chunks) == len(artifact.code)
            functions = [f for f in artifact.program.functions()
                         if f.body is not None]
            assert len(chunks) == 1 + len(functions)
            for chunk, func in zip(chunks[1:], functions):
                assert chunk.startswith("def ") and chunk.endswith("\n")
                prefix = "b_" if func.is_kernel else "f_"
                assert "def %s%s(" % (prefix, func.name) in chunk


def variant_to_config(label, params):
    from repro.harness.variants import variant_to_run
    return variant_to_run(label, params)[1]


class TestVersionToken:
    def test_key_embeds_config_and_versions(self, monkeypatch):
        config = OptConfig(threshold=32)
        key = codegen_cache_key(SIMPLE_SRC, config)
        assert config.structure in key
        assert config not in key
        from repro import __version__
        assert (__version__, result_cache_mod.CACHE_VERSION) in key
        monkeypatch.setattr(result_cache_mod, "CACHE_VERSION",
                            result_cache_mod.CACHE_VERSION + 1)
        assert codegen_cache_key(SIMPLE_SRC, config) != key

    def test_cache_version_bump_invalidates_both_caches(self, tmp_path,
                                                        monkeypatch):
        """One CACHE_VERSION bump must drop result-cache entries AND
        compiled-kernel entries together (the invalidation contract)."""
        point = SweepPoint("BFS", "KRON", "CDP+T", TuningParams(threshold=16),
                           DeviceConfig(), 0.05)
        disk = ResultCache(str(tmp_path / "cache"))
        kernels = CompiledKernelCache()
        monkeypatch.setattr("repro.engine.cache.KERNEL_CACHE", kernels)
        old_key = point_key(point)

        SweepExecutor(cache=disk).run([point])
        assert disk.get(point) is not None
        compiles_before = kernels.stats()["misses"]
        assert compiles_before > 0

        monkeypatch.setattr(result_cache_mod, "CACHE_VERSION",
                            result_cache_mod.CACHE_VERSION + 1)
        # Result cache: the point now maps to a different key — stale
        # entries are unreachable.
        assert point_key(point) != old_key
        assert disk.get(point) is None
        # Compiled-kernel cache: same sources must recompile (miss), not
        # serve pre-bump artifacts.
        SweepExecutor(cache=disk).run([point])
        assert kernels.stats()["misses"] > compiles_before


class TestProcessWideWiring:
    def test_compiled_module_routes_through_global_cache(self):
        before = KERNEL_CACHE.stats()
        compiled_module(SIMPLE_SRC)
        compiled_module(SIMPLE_SRC)
        after = KERNEL_CACHE.stats()
        assert after["misses"] >= before["misses"]
        assert after["hits"] > before["hits"]

    def test_lookup_counter_exported_to_registry(self):
        compiled_module(SIMPLE_SRC)     # ensures at least one lookup
        assert "repro_codegen_cache_lookups_total" in REGISTRY.names()
        rendered = REGISTRY.render()
        assert 'repro_codegen_cache_lookups_total{outcome="hit"}' in rendered \
            or 'repro_codegen_cache_lookups_total{outcome="miss"}' in rendered

    def test_run_variant_cold_then_warm(self, monkeypatch):
        """The harness path (run_variant → bench.run → module_for) hits
        the codegen cache on the second identical point, and the cache
        is invisible to the result."""
        from repro.benchmarks import get_benchmark
        from repro.harness import run_variant

        kernels = CompiledKernelCache()
        monkeypatch.setattr("repro.engine.cache.KERNEL_CACHE", kernels)
        bench = get_benchmark("BFS")
        data = bench.build_dataset("KRON", 0.05)
        cold = run_variant(bench, data, "CDP+T", TuningParams(threshold=16))
        stats_cold = kernels.stats()
        assert stats_cold["misses"] > 0
        warm = run_variant(bench, data, "CDP+T", TuningParams(threshold=16))
        stats_warm = kernels.stats()
        assert stats_warm["misses"] == stats_cold["misses"]
        assert stats_warm["hits"] > stats_cold["hits"]
        assert warm == cold
