"""In-process compiled-kernel cache: miniCUDA → executable artifact, once.

Every sweep point, remote worker chunk, and serve miss used to re-lex,
re-parse, re-transform, and re-transpile the benchmark's kernel sources
before simulating anything — a fixed per-point floor that dominates small
points. This cache memoizes the whole compile pipeline per

    (kernel source, transform config, cost model, code version)

— the ``function_cache`` idiom of JIT compilers — so repeated points only
pay artifact *instantiation* (``exec`` of a cached code object into a
fresh namespace), never recompilation. Instantiation keeps runs isolated:
two Modules built from one artifact share no mutable state, so the cache
is safe under the serve miss scheduler's worker threads.

The key deliberately embeds the same version token as the on-disk result
cache (``repro.__version__`` plus ``harness.cache.CACHE_VERSION``): one
``CACHE_VERSION`` bump invalidates result entries *and* compiled kernels
together, so a stale compiled kernel can never serve new semantics (the
invalidation contract in ``docs/architecture.md``).

Hit/miss traffic is exported through the process metrics registry as
``repro_codegen_cache_lookups_total{outcome}`` (scraped via the query
service's ``GET /metrics``) and per-instance via :meth:`stats` — the
repository benchmark (``perfbench/``) reads both.
"""

import hashlib
import threading
from collections import OrderedDict

from .module import Module, compile_artifact

__all__ = ["CompiledKernelCache", "KERNEL_CACHE", "compiled_module",
           "codegen_cache_key", "DEFAULT_CAPACITY"]

#: Entries kept per cache. A sweep touches one source per benchmark times
#: the distinct transform configs of its grid; 256 covers the dense
#: Fig. 11 threshold axes across all seven benchmarks with headroom.
DEFAULT_CAPACITY = 256

_LOOKUPS = None
_LOCK = threading.Lock()


def _lookup_counter():
    """The shared ``repro_codegen_cache_lookups_total`` counter.

    Resolved lazily: importing :mod:`repro.harness` at module import time
    would cycle (harness → sweep → benchmarks → engine.cache), and by
    first lookup the interpreter has long finished loading both packages.
    """
    global _LOOKUPS
    if _LOOKUPS is None:
        from ..harness.metrics import REGISTRY
        with _LOCK:
            if _LOOKUPS is None:
                _LOOKUPS = REGISTRY.counter(
                    "repro_codegen_cache_lookups_total",
                    "Compiled-kernel cache lookups by outcome",
                    ("outcome",))
    return _LOOKUPS


def _version_token():
    """(code version, result-cache version): the same pair the on-disk
    result cache keys by, read at call time so a ``CACHE_VERSION`` bump
    (or a test monkeypatching it) invalidates compiled kernels too."""
    from .. import __version__
    from ..harness import cache as result_cache
    return (__version__, result_cache.CACHE_VERSION)


def codegen_cache_key(source, config=None, cost_model=None):
    """Memo key for one compile: source digest + transform config +
    cost model + the shared version token.

    ``config`` is the :class:`~repro.transforms.OptConfig` applied before
    codegen (None for untransformed source); both it and
    :class:`~repro.sim.costmodel.CostModel` are frozen dataclasses, so
    the key is hashable and two effectively-identical compiles collide.
    """
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return (digest, config, cost_model, _version_token())


class CompiledKernelCache:
    """Bounded LRU memo of :class:`~repro.engine.module.ModuleArtifact`.

    Thread-safe; a racing duplicate compile is wasted work but harmless
    (compilation is deterministic, and ``setdefault`` keeps one winner).
    """

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self.capacity = max(1, int(capacity))
        self.hits = 0
        self.misses = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def get_or_compile(self, source, config=None, cost_model=None):
        """The :class:`~repro.engine.module.ModuleArtifact` for *source*
        under *config*/*cost_model*, compiling (and transforming) on miss.
        """
        key = codegen_cache_key(source, config, cost_model)
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if artifact is not None:
            _lookup_counter().inc(outcome="hit")
            return artifact
        artifact = self._compile(source, config, cost_model)
        with self._lock:
            self.misses += 1
            artifact = self._entries.setdefault(key, artifact)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        _lookup_counter().inc(outcome="miss")
        return artifact

    @staticmethod
    def _compile(source, config, cost_model):
        if config is None:
            return compile_artifact(source, None, cost_model)
        from ..transforms import transform
        result = transform(source, config)
        return compile_artifact(result.program, result.meta, cost_model)

    def module(self, source, config=None, cost_model=None):
        """A fresh :class:`~repro.engine.module.Module` (private namespace,
        zeroed globals) over the cached artifact for *source*."""
        return Module.from_artifact(
            self.get_or_compile(source, config, cost_model))

    def clear(self):
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def stats(self):
        """JSON-able hit/miss/size snapshot (the repository benchmark and
        the engine tests read this)."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries),
                    "capacity": self.capacity}


#: Process-wide cache every benchmark compile routes through
#: (:meth:`repro.benchmarks.common.Benchmark.module_for`). Worker
#: processes each warm their own copy, exactly like the dataset memo.
KERNEL_CACHE = CompiledKernelCache()


def compiled_module(source, config=None, cost_model=None):
    """Compile *source* (with optional transform *config*) through the
    process-wide :data:`KERNEL_CACHE` and return a fresh Module."""
    return KERNEL_CACHE.module(source, config, cost_model)
