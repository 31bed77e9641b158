"""In-process compiled-kernel cache: miniCUDA → executable artifact, once.

Every sweep point and serve miss used to re-lex, re-parse, re-transform,
and re-transpile the benchmark's kernel sources before simulating
anything — a fixed per-point floor that dominates small points. This
cache memoizes the whole compile pipeline per

    (kernel source, transform structure, cost model, code version)

— the ``function_cache`` idiom of JIT compilers, which compile once per
type signature and pass values as arguments. The structure
(:attr:`~repro.transforms.OptConfig.structure`: which passes run, the
aggregation granularity, whether an aggregation threshold is set) is
all a transformed program depends on; the tuning values ``threshold``,
``coarsen_factor``, ``group_blocks`` and ``agg_threshold`` are macros
the generated code reads as module globals, so a new value only pays
artifact *instantiation* (``exec`` of a cached code object into a fresh
namespace that binds the caller's values), never recompilation. Each
source is parsed once per cache, too: the Program is kept beside its
artifacts, and a transform clones it. Instantiation keeps runs isolated:
two Modules built from one artifact share no mutable state, so the cache
is safe under the serve miss scheduler's worker threads.

Within a compile, each generated function is ``compile()``d once per
cache: the cache keeps a bounded LRU memo of code objects keyed by each
chunk's exact text (the imports, or one function: see
:func:`~repro.engine.codegen.generate_module_source`), and an artifact
holds the tuple of its chunks' code objects. Structures of one source
mostly differ in their parents, so they share their children's code: a
tune-tca pass of the repository benchmark generates 138 function chunks
in 39 structures, but only 74 distinct ones. Like numbapro's
``_device_functions``, the memo holds compiled functions one by one, not
one per translation unit. :meth:`CompiledKernelCache.clear` empties it
with the entries, so a cleared cache compiles every function again.

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

from ..minicuda import parse
from .module import Module, compile_artifact, compile_chunk

__all__ = ["CompiledKernelCache", "KERNEL_CACHE", "compiled_module",
           "codegen_cache_key", "DEFAULT_CAPACITY", "FUNCTIONS_PER_ENTRY"]

#: Entries kept per cache, and parsed sources kept. An entry is one
#: structure of one source, and a benchmark has 29: No CDP, CDP, T, C,
#: T+C, and each of those four T/C choices with aggregation at six
#: settings (warp or block, each with or without an aggregation
#: threshold; multi-block; grid). 256 hold all 203 of the seven
#: benchmarks, with room for other sources.
DEFAULT_CAPACITY = 256

#: Function code objects kept per entry of capacity: the memo of a cache
#: holds at most ``FUNCTIONS_PER_ENTRY * capacity`` chunks (1,024 by
#: default). The 203 structures of the seven benchmarks have 833 chunks,
#: about four each, of which 239 are distinct.
FUNCTIONS_PER_ENTRY = 4

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
    """Memo key for one compile: source digest + the structure of the
    transform config + cost model + the shared version token.

    ``config`` is the :class:`~repro.transforms.OptConfig` applied before
    codegen (None for untransformed source). The key holds its
    :attr:`~repro.transforms.OptConfig.structure` and never its tuning
    values, so configs that differ only in those share one compile.
    :class:`~repro.sim.costmodel.CostModel` is a frozen dataclass, so the
    key is hashable.
    """
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    structure = config.structure if config is not None else None
    return (digest, structure, cost_model, _version_token())


class CompiledKernelCache:
    """Bounded LRU memo of :class:`~repro.engine.module.ModuleArtifact`,
    plus the parsed Program of each source it compiled and the code
    object of each function it generated (at most
    :attr:`function_capacity` of them).

    Thread-safe; a racing duplicate compile (or parse) is wasted work but
    harmless (both are deterministic, and ``setdefault`` keeps one winner).
    """

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self.capacity = max(1, int(capacity))
        self.function_capacity = FUNCTIONS_PER_ENTRY * self.capacity
        self.hits = 0
        self.misses = 0
        self._entries = OrderedDict()
        self._programs = OrderedDict()   # source digest -> Program
        self._functions = OrderedDict()  # chunk text -> code object
        self._lock = threading.Lock()

    def get_or_compile(self, source, config=None, cost_model=None):
        """The :class:`~repro.engine.module.ModuleArtifact` for *source*
        under the structure of *config* and *cost_model*, compiling (and
        transforming) on miss.
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
        artifact = self._compile(self._program(key[0], source), config,
                                 cost_model)
        with self._lock:
            self.misses += 1
            artifact = self._keep(self._entries, key, artifact,
                                  self.capacity)
        _lookup_counter().inc(outcome="miss")
        return artifact

    def _program(self, digest, source):
        """*source* parsed, once per cache: :func:`~repro.transforms.transform`
        clones its input and codegen only reads it, so one Program serves
        every compile of the source."""
        with self._lock:
            program = self._programs.get(digest)
            if program is not None:
                self._programs.move_to_end(digest)
                return program
        program = parse(source)
        with self._lock:
            return self._keep(self._programs, digest, program,
                              self.capacity)

    def _function_code(self, text):
        """The code object of one chunk of generated source (a function,
        or the module header), compiled once per exact text."""
        with self._lock:
            code = self._functions.get(text)
            if code is not None:
                self._functions.move_to_end(text)
                return code
        code = compile_chunk(text)
        with self._lock:
            return self._keep(self._functions, text, code,
                              self.function_capacity)

    @staticmethod
    def _keep(entries, key, value, capacity):
        """Store *value* under *key* in LRU *entries*, holding at most
        *capacity*, unless a racing thread already did; returns the stored
        value. Caller holds the lock."""
        value = entries.setdefault(key, value)
        entries.move_to_end(key)
        while len(entries) > capacity:
            entries.popitem(last=False)
        return value

    def _compile(self, program, config, cost_model):
        if config is None:
            return compile_artifact(program, None, cost_model,
                                    self._function_code)
        from ..transforms import transform
        result = transform(program, config)
        return compile_artifact(result.program, result.meta, cost_model,
                                self._function_code)

    def module(self, source, config=None, cost_model=None):
        """A fresh :class:`~repro.engine.module.Module` (private namespace,
        zeroed globals) over the cached artifact for *source*, bound to
        *config*'s tuning values."""
        artifact = self.get_or_compile(source, config, cost_model)
        meta = config.bind(artifact.meta) if config is not None else None
        return Module.from_artifact(artifact, meta)

    def clear(self):
        """Drop every entry, parsed source and function code object
        (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()
            self._programs.clear()
            self._functions.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def function_count(self):
        """How many function code objects the memo holds."""
        with self._lock:
            return len(self._functions)

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
