"""Parallel sweep engine for the evaluation's dense run grids.

Figures 9-12, Table 1, and the autotuner are all sweeps over
(benchmark × dataset × variant × tuning params). This module executes such
a grid as a declarative list of :class:`SweepPoint`\\ s, fanned out over a
pluggable :class:`Backend` with deterministic result ordering, with an
optional persistent :class:`~repro.harness.cache.ResultCache` so repeated
runs skip already-simulated points.

Backends (``backend=`` on :class:`SweepExecutor`, ``--backend`` on the
CLI):

* ``serial`` — in-process loop; the default for ``jobs <= 1``;
* ``process`` — a ``multiprocessing`` pool (fork where available); the
  default for ``jobs > 1``;
* ``thread`` — a ``concurrent.futures.ThreadPoolExecutor``; the simulator
  is GIL-bound pure Python so this rarely speeds anything up, but it
  shares the in-process dataset memo and needs no pickling;
* ``remote`` — shard chunks over ``repro worker serve`` daemons on other
  machines (:mod:`repro.harness.remote`; needs ``workers=`` /
  ``--workers``).

Work is submitted in chunks (``chunk_size=``, auto-sized by default) and
every worker failure is attributed to the point that died: the raised
:class:`SweepPointError` carries ``SweepPoint.describe()`` and the worker
traceback instead of an anonymous pool stack. With ``on_error="continue"``
the executor runs past failures and returns a :class:`PointFailure` in the
failed point's slot.

Points are specified by *names* (benchmark, dataset, scale) rather than
live objects so they pickle cheaply; each worker rebuilds the benchmark and
dataset locally (dataset construction is seeded, hence deterministic) and
memoizes them across the points it serves. The simulator itself is
single-threaded and deterministic, so a parallel sweep returns RunResults
identical to a serial one — the test suite enforces this across every
backend.
"""

import concurrent.futures
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field

from ..benchmarks import get_benchmark
from ..errors import ReproError
from ..sim.config import DeviceConfig
from .cache import ResultCache
from .metrics import REGISTRY
from .runner import run_variant
from .variants import TuningParams, mask_params

__all__ = [
    "SweepPoint", "SweepExecutor", "SweepStats", "SweepPointError",
    "PointFailure", "Backend", "BACKENDS", "run_sweep", "sweep_grid",
]


@dataclass(frozen=True)
class SweepPoint:
    """One (benchmark, dataset, variant, params, device, scale) cell."""

    benchmark: str
    dataset: str
    label: str = "CDP"
    params: TuningParams = field(default_factory=TuningParams)
    device_config: DeviceConfig = field(default_factory=DeviceConfig)
    scale: float = 0.25

    def spec(self):
        """Canonical JSON-able description (the cache key input and the
        remote backend's wire form; invert with :meth:`from_spec`)."""
        return {
            "benchmark": self.benchmark,
            "dataset": self.dataset,
            "label": self.label,
            "params": asdict(self.params),
            "device_config": asdict(self.device_config),
            "scale": repr(float(self.scale)),
        }

    @classmethod
    def from_spec(cls, spec):
        """Rebuild a point from a :meth:`spec` payload (exact roundtrip).

        >>> point = SweepPoint("BFS", "KRON", "CDP+T",
        ...                    TuningParams(threshold=16))
        >>> SweepPoint.from_spec(point.spec()) == point
        True
        """
        return cls(benchmark=spec["benchmark"], dataset=spec["dataset"],
                   label=spec["label"],
                   params=TuningParams(**spec["params"]),
                   device_config=DeviceConfig(**spec["device_config"]),
                   scale=float(spec["scale"]))

    def describe(self):
        """Human-readable one-liner used in failure attribution.

        >>> SweepPoint("BFS", "KRON", "CDP+T",
        ...            TuningParams(threshold=16)).describe()
        'BFS/KRON CDP+T [T=16] @0.25'
        """
        return "%s/%s %s [%s] @%g" % (self.benchmark, self.dataset,
                                      self.label, self.params.describe(),
                                      self.scale)


def sweep_grid(pairs, labels, scale=0.25, params=None, params_for=None,
               device_config=None):
    """Expand a declarative (pairs × labels) grid into SweepPoints.

    *params_for*, if given, is a ``(bench, dataset, label) -> TuningParams``
    callable; otherwise every point shares *params*, canonicalized per
    label by :func:`~repro.harness.variants.mask_params` (so e.g. a plain
    CDP point keys and displays identically whatever threshold or group
    size the grid carries).

    >>> points = sweep_grid([("BFS", "KRON")], ["CDP", "CDP+T"],
    ...                     params=TuningParams(threshold=16))
    >>> [p.describe() for p in points]
    ['BFS/KRON CDP [-] @0.25', 'BFS/KRON CDP+T [T=16] @0.25']
    """
    device_config = device_config or DeviceConfig()
    params = params or TuningParams()
    points = []
    for bench_name, dataset_name in pairs:
        for label in labels:
            if params_for is not None:
                point_params = params_for(bench_name, dataset_name, label)
            else:
                point_params = mask_params(label, params)
            points.append(SweepPoint(bench_name, dataset_name, label,
                                     point_params, device_config, scale))
    return points


# -- errors -------------------------------------------------------------------

class SweepPointError(ReproError):
    """A worker died simulating one point; names the point, not the pool."""

    def __init__(self, point, error, message, worker_traceback=""):
        self.point = point
        self.error = error
        self.worker_traceback = worker_traceback
        super().__init__("sweep point failed: %s: %s: %s"
                         % (point.describe(), error, message))


@dataclass
class PointFailure:
    """Failed-point placeholder returned when ``on_error="continue"``.

    Occupies the failed point's slot in the result list so ordering is
    preserved; carries the same attribution a raised
    :class:`SweepPointError` would.
    """

    point: SweepPoint
    error: str                # exception type name, e.g. "ReproError"
    message: str
    worker_traceback: str = ""

    def describe(self):
        return "%s: %s: %s" % (self.point.describe(), self.error,
                               self.message)

    def to_error(self):
        return SweepPointError(self.point, self.error, self.message,
                               self.worker_traceback)


# -- worker-side execution ----------------------------------------------------

#: Per-process (benchmark, dataset) memo — points of one sweep usually share
#: a handful of datasets, and construction is deterministic, so reuse is
#: both safe and a large constant-factor win. The thread backend shares it
#: across worker threads, so lookup/insert/evict hold a lock (dataset
#: construction itself runs outside it; a racing duplicate build is
#: wasteful but deterministic, hence harmless).
_DATASET_MEMO = {}
_DATASET_MEMO_LIMIT = 8
_DATASET_MEMO_LOCK = threading.Lock()


def _bench_and_data(benchmark, dataset, scale):
    key = (benchmark, dataset, scale)
    with _DATASET_MEMO_LOCK:
        entry = _DATASET_MEMO.get(key)
    if entry is None:
        bench = get_benchmark(benchmark)
        entry = (bench, bench.build_dataset(dataset, scale))
        with _DATASET_MEMO_LOCK:
            while (key not in _DATASET_MEMO
                    and len(_DATASET_MEMO) >= _DATASET_MEMO_LIMIT):
                _DATASET_MEMO.pop(next(iter(_DATASET_MEMO)))
            entry = _DATASET_MEMO.setdefault(key, entry)
    return entry


def _simulate_point(point):
    """Compile + execute + time one point (tests patch this to count/ban
    simulator invocations)."""
    bench, data = _bench_and_data(point.benchmark, point.dataset, point.scale)
    return run_variant(bench, data, point.label, point.params,
                       point.device_config)


def _safe_worker(point):
    """Run one point, trapping any failure into a picklable tagged tuple.

    Exceptions (and their tracebacks) are formatted worker-side because
    neither pickles reliably across process boundaries; the executor turns
    the tuple back into a :class:`SweepPointError`/:class:`PointFailure`
    attributed to this exact point. BaseExceptions (KeyboardInterrupt,
    SystemExit) propagate so a sweep stays interruptible.

    Successes carry the measured simulation wall time as a third
    element — the executor hands it to the cache store path so the
    metadata index learns per-point recompute costs.
    """
    try:
        started = time.perf_counter()
        result = _simulate_point(point)
        return ("ok", result, time.perf_counter() - started)
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc),
                traceback.format_exc())


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


# -- backends -----------------------------------------------------------------

def _auto_chunk(n_items, jobs):
    """Chunk size balancing dispatch overhead against load balance: about
    four chunks per worker, capped so small grids still spread out."""
    return max(1, min(32, n_items // max(1, jobs * 4) or 1))


class Backend:
    """Strategy for executing a batch of cache-miss points.

    ``map`` takes SweepPoints and returns one outcome tuple per point, in
    input order: ``("ok", RunResult, sim_seconds)`` or
    ``("error", type_name, message, traceback)`` (the :func:`_safe_worker`
    encoding). Pools are created lazily on the first batch and reused
    across batches until :meth:`close`.
    """

    name = None

    def __init__(self, jobs=1, chunk_size=None):
        self.jobs = max(1, int(jobs))
        self.chunk_size = chunk_size

    def _chunk(self, n_items):
        if self.chunk_size is not None:
            return max(1, int(self.chunk_size))
        return _auto_chunk(n_items, self.jobs)

    def map(self, points):
        raise NotImplementedError

    def close(self):
        pass


class SerialBackend(Backend):
    """In-process loop; no pool, no pickling, deterministic by construction."""

    name = "serial"

    def map(self, points):
        return [_safe_worker(point) for point in points]


class ProcessBackend(Backend):
    """``multiprocessing.Pool`` with chunked submission (PR 1's pool)."""

    name = "process"

    def __init__(self, jobs=1, chunk_size=None):
        super().__init__(jobs, chunk_size)
        self._pool = None

    def map(self, points):
        if self.jobs <= 1 or len(points) <= 1:
            return [_safe_worker(point) for point in points]
        if self._pool is None:
            self._pool = _pool_context().Pool(self.jobs)
        return self._pool.map(_safe_worker, points,
                              chunksize=self._chunk(len(points)))

    def close(self):
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None


class ThreadBackend(Backend):
    """``ThreadPoolExecutor``: shares the dataset memo, needs no pickling."""

    name = "thread"

    def __init__(self, jobs=1, chunk_size=None):
        super().__init__(jobs, chunk_size)
        self._executor = None

    def map(self, points):
        if self.jobs <= 1 or len(points) <= 1:
            return [_safe_worker(point) for point in points]
        if self._executor is None:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.jobs)
        return list(self._executor.map(_safe_worker, points,
                                       chunksize=self._chunk(len(points))))

    def close(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


#: Registry of backend names; ``repro.harness.remote`` adds ``remote`` when
#: it is imported (the ``repro.harness`` package always imports it).
BACKENDS = {cls.name: cls for cls in
            (SerialBackend, ProcessBackend, ThreadBackend)}


def make_backend(backend, jobs=1, chunk_size=None, workers=None,
                 worker_timeout=None):
    """Resolve a backend name (or pass through an instance).

    *workers* (host:port addresses) selects and configures the ``remote``
    backend, and *worker_timeout* bounds its per-chunk wait; giving
    either together with a different explicit *backend* name is an
    error. With ``backend=None`` the default is ``serial`` for
    ``jobs <= 1``, ``process`` otherwise, and ``remote`` whenever
    *workers* is set.
    """
    if isinstance(backend, Backend):
        if workers or worker_timeout is not None:
            raise ValueError("workers/worker_timeout only apply when the "
                             "backend is given by name; configure the "
                             "%s instance directly instead"
                             % type(backend).__name__)
        return backend
    if backend is None:
        if workers:
            backend = "remote"
        else:
            backend = "serial" if jobs <= 1 else "process"
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise ValueError("unknown sweep backend %r (have %s)"
                         % (backend, ", ".join(sorted(BACKENDS))))
    if backend == "remote":
        if not workers:
            raise ValueError("the remote backend needs worker addresses "
                             "(workers=[...] / --workers HOST:PORT,...); "
                             "start daemons with 'repro worker serve'")
        if jobs > 1:
            raise ValueError("jobs only applies to the local pool "
                             "backends; remote parallelism is one chunk "
                             "per worker, and worker-side parallelism is "
                             "set by 'repro worker serve --jobs'")
        kwargs = {} if worker_timeout is None else {"timeout": worker_timeout}
        return cls(workers, chunk_size=chunk_size, **kwargs)
    if workers or worker_timeout is not None:
        raise ValueError("worker addresses/timeouts only apply to the "
                         "remote backend (--backend remote), not %r"
                         % (backend,))
    return cls(jobs=jobs, chunk_size=chunk_size)


# -- the executor -------------------------------------------------------------

#: Point outcomes across every executor in the process (cache hit /
#: simulated / failed — mirrors :class:`SweepStats`), for ``GET /metrics``.
_POINTS_TOTAL = REGISTRY.counter(
    "repro_sweep_points_total",
    "Sweep points resolved by an executor, by outcome", ("outcome",))
_BATCHES_TOTAL = REGISTRY.counter(
    "repro_sweep_batches_total",
    "Miss batches dispatched to a sweep backend", ("backend",))
_POINT_SECONDS = REGISTRY.histogram(
    "repro_sweep_point_seconds",
    "Simulation wall time of each successfully simulated point, by "
    "backend (measured where the point ran, so pooled and remote points "
    "report their own time, not a share of the batch)",
    ("backend",))


@dataclass
class SweepStats:
    """Cumulative counters for one executor.

    ``hits + simulated + failed == points``: every point is either served
    from cache, simulated successfully, or failed in a worker.
    """

    points: int = 0
    hits: int = 0
    simulated: int = 0
    failed: int = 0

    def to_dict(self):
        """JSON-able counters (reported by the query service's
        ``/cache/info`` and per-request ``POST /sweep`` stats).

        >>> SweepStats(points=3, hits=1, simulated=2).to_dict()
        {'points': 3, 'hits': 1, 'simulated': 2, 'failed': 0}
        """
        return asdict(self)


class SweepExecutor:
    """Runs SweepPoints — optionally in parallel, optionally cached.

    ``run`` resolves cache hits first, dispatches only the misses to the
    configured :class:`Backend`, stores fresh results back, and returns
    results in the exact order of the input points. A fully-warm run never
    touches the simulator or spawns a pool.

    ``backend`` is a name from :data:`BACKENDS` (``serial``, ``process``,
    ``thread``, ``remote``) or an instance; unset, it is
    ``serial`` for ``jobs <= 1``, ``process`` otherwise, and ``remote``
    when ``workers=`` (host:port worker-daemon addresses) is given.
    Pool-backed backends are created lazily on the first miss batch and
    reused across ``run`` calls, so multi-grid drivers (figures, tuners)
    keep their workers — and the workers' dataset memos — alive. Call
    :meth:`close` (or use the executor as a context manager) to release
    the workers early; otherwise they end with the process.

    A worker failure raises :class:`SweepPointError` naming the point that
    died (``on_error="raise"``, the default); ``on_error="continue"`` runs
    the rest of the batch and returns a :class:`PointFailure` in the
    failed point's slot instead. Failed points are never cached.
    """

    def __init__(self, jobs=1, cache=None, backend=None, chunk_size=None,
                 on_error="raise", workers=None, worker_timeout=None):
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache)
        if on_error not in ("raise", "continue"):
            raise ValueError("on_error must be 'raise' or 'continue', "
                             "not %r" % (on_error,))
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.backend = make_backend(backend, jobs=self.jobs,
                                    chunk_size=chunk_size, workers=workers,
                                    worker_timeout=worker_timeout)
        self.on_error = on_error
        self.stats = SweepStats()

    def run(self, points, on_error=None):
        """Execute *points*; returns their results in input order.

        Cache hits are resolved first; only misses reach the backend.
        *on_error* overrides the executor default for this call (see the
        class docstring for the ``raise``/``continue`` contract).
        """
        on_error = self.on_error if on_error is None else on_error
        if on_error not in ("raise", "continue"):
            raise ValueError("on_error must be 'raise' or 'continue', "
                             "not %r" % (on_error,))
        points = list(points)
        self.stats.points += len(points)
        results = [None] * len(points)
        misses = []
        for index, point in enumerate(points):
            cached = self.cache.get(point) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
            else:
                misses.append(index)
        hits = len(points) - len(misses)
        self.stats.hits += hits
        if hits:
            _POINTS_TOTAL.inc(hits, outcome="hit")
        if misses:
            outcomes = self.backend.map([points[index] for index in misses])
            _BATCHES_TOTAL.inc(backend=self.backend.name)
            first_error = None
            # Store every success (and cache it) before raising, so a
            # single failed point does not throw away the rest of the
            # batch's simulations on the next run.
            for index, outcome in zip(misses, outcomes):
                point = points[index]
                if outcome[0] == "ok":
                    _, result, sim_cost = outcome
                    results[index] = result
                    self.stats.simulated += 1
                    _POINTS_TOTAL.inc(outcome="simulated")
                    if sim_cost is not None:    # a remote worker's null
                        _POINT_SECONDS.observe(sim_cost,
                                               backend=self.backend.name)
                    if self.cache is not None:
                        self.cache.put(point, result, sim_cost=sim_cost)
                else:
                    _, error, message, worker_tb = outcome
                    self.stats.failed += 1
                    _POINTS_TOTAL.inc(outcome="failed")
                    failure = PointFailure(point, error, message, worker_tb)
                    if first_error is None:
                        first_error = failure
                    results[index] = failure
            if first_error is not None and on_error == "raise":
                raise first_error.to_error()
        return results

    def run_one(self, point, on_error=None):
        """Shorthand for ``run([point])[0]``."""
        return self.run([point], on_error=on_error)[0]

    def close(self):
        """Release the backend's pool/connections (idempotent)."""
        self.backend.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def run_sweep(points, jobs=1, cache_dir=None, backend=None,
              on_error="raise", workers=None, worker_timeout=None):
    """Convenience wrapper: execute *points* and return
    ``(results, stats)``.

    :param points: iterable of :class:`SweepPoint`.
    :param jobs: worker count for the pool backends.
    :param cache_dir: optional persistent result-cache directory.
    :param backend: a :data:`BACKENDS` name or :class:`Backend` instance.
    :param on_error: ``"raise"`` (default) or ``"continue"``; see
        :class:`SweepExecutor`.
    :param workers: remote worker addresses (selects the ``remote``
        backend).
    :param worker_timeout: seconds to wait for one remote chunk before
        declaring its worker dead (remote backend only).
    :returns: ``(results, stats)`` — results in input order (a
        :class:`~repro.harness.runner.RunResult` or, under
        ``"continue"``, a :class:`PointFailure` per point) and the
        executor's :class:`SweepStats`.
    """
    cache = ResultCache(cache_dir) if cache_dir else None
    with SweepExecutor(jobs=jobs, cache=cache, backend=backend,
                       on_error=on_error, workers=workers,
                       worker_timeout=worker_timeout) as executor:
        return executor.run(points), executor.stats
