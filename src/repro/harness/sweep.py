"""Parallel sweep engine for the evaluation's dense run grids.

Figures 9-12, Table 1, and the autotuner are all sweeps over
(benchmark × dataset × variant × tuning params). This module executes such
a grid as a declarative list of :class:`SweepPoint`\\ s, in-process or
on a ``multiprocessing`` pool (``jobs > 1``), with deterministic result
ordering and an optional persistent
:class:`~repro.harness.cache.ResultCache` so repeated runs skip
already-simulated points.

Every worker failure is attributed to the point that died: the raised
:class:`SweepPointError` carries ``SweepPoint.describe()`` and the worker
traceback instead of an anonymous pool stack. With ``on_error="continue"``
the executor runs past failures and returns a :class:`PointFailure` in the
failed point's slot.

Points are specified by *names* (benchmark, dataset, scale) rather than
live objects so they pickle cheaply; each worker rebuilds the benchmark and
dataset locally (dataset construction is seeded, hence deterministic) and
memoizes them across the points it serves. The simulator itself is
single-threaded and deterministic, so a parallel sweep returns RunResults
identical to a serial one — the test suite enforces this for ``jobs=1``
against ``jobs=2``.
"""

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
    "PointFailure", "sweep_grid",
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
        """Canonical JSON-able description (the cache key input)."""
        return {
            "benchmark": self.benchmark,
            "dataset": self.dataset,
            "label": self.label,
            "params": asdict(self.params),
            "device_config": asdict(self.device_config),
            "scale": repr(float(self.scale)),
        }

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
#: both safe and a large constant-factor win. ``repro serve``'s miss
#: workers are threads that share it, so lookup/insert/evict hold a lock
#: (dataset construction itself runs outside it; a racing duplicate build
#: is wasteful but deterministic, hence harmless).
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


# -- the executor -------------------------------------------------------------

#: Point outcomes across every executor in the process (cache hit /
#: simulated / failed — mirrors :class:`SweepStats`), for ``GET /metrics``.
_POINTS_TOTAL = REGISTRY.counter(
    "repro_sweep_points_total",
    "Sweep points resolved by an executor, by outcome", ("outcome",))
_BATCHES_TOTAL = REGISTRY.counter(
    "repro_sweep_batches_total", "Miss batches dispatched by an executor")
_POINT_SECONDS = REGISTRY.histogram(
    "repro_sweep_point_seconds",
    "Simulation wall time of each successfully simulated point (measured "
    "where the point ran, so pooled points report their own time, not a "
    "share of the batch)")


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


def _check_on_error(on_error):
    if on_error not in ("raise", "continue"):
        raise ValueError("on_error must be 'raise' or 'continue', "
                         "not %r" % (on_error,))


class SweepExecutor:
    """Runs SweepPoints — in-process or on a process pool, optionally cached.

    ``run`` resolves cache hits first, simulates only the misses, stores
    fresh results back, and returns results in the exact order of the
    input points. A fully-warm run never touches the simulator or spawns
    a pool.

    A miss batch runs in-process when ``jobs <= 1`` or it holds one
    point, and otherwise on a ``multiprocessing`` pool of *jobs* workers
    (fork where available). The pool is created on the first such batch
    and reused across ``run`` calls, so multi-grid drivers (figures,
    tuners) keep their workers — and the workers' dataset memos — alive.
    Call :meth:`close` (or use the executor as a context manager) to
    release it early; otherwise it ends with the process.

    A worker failure raises :class:`SweepPointError` naming the point that
    died (``on_error="raise"``, the default); ``on_error="continue"`` runs
    the rest of the batch and returns a :class:`PointFailure` in the
    failed point's slot instead. Failed points are never cached.
    """

    def __init__(self, jobs=1, cache=None, on_error="raise"):
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache)
        _check_on_error(on_error)
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.on_error = on_error
        self.stats = SweepStats()
        self._pool = None

    def _simulate(self, points):
        """One :func:`_safe_worker` outcome per point, in input order."""
        if self.jobs <= 1 or len(points) <= 1:
            return [_safe_worker(point) for point in points]
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            self._pool = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn").Pool(self.jobs)
        # About four chunks per worker, capped so small grids still
        # spread out.
        chunk = min(32, len(points) // (self.jobs * 4) or 1)
        return self._pool.map(_safe_worker, points, chunksize=chunk)

    def run(self, points, on_error=None):
        """Execute *points*; returns their results in input order.

        Cache hits are resolved first; only misses are simulated.
        *on_error* overrides the executor default for this call (see the
        class docstring for the ``raise``/``continue`` contract).
        """
        on_error = self.on_error if on_error is None else on_error
        _check_on_error(on_error)
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
            outcomes = self._simulate([points[index] for index in misses])
            _BATCHES_TOTAL.inc()
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
                    _POINT_SECONDS.observe(sim_cost)
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
        """Release the pool, if one was created (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
