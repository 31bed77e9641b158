"""`repro serve`: a long-lived HTTP query service over the warm caches.

Every consumer of a paper result — Table 1 rows, Figure 9-12 points,
tuner outputs — used to shell out to ``repro figure``/``repro sweep``
even when the answer was already sitting warm in the
:class:`~repro.harness.cache.ResultCache`. This module fronts the caches
with a stdlib-only threaded HTTP server (``repro serve`` on the CLI) and
uses the sweep engine as its miss path, so results become queryable at
interactive latency.

Endpoints (the full reference with request/response examples lives in
``docs/serving.md``; :data:`ENDPOINTS` is the machine-readable list):

* ``GET /healthz`` — liveness, versions, uptime, request count;
* ``GET /cache/info`` — JSON :meth:`~repro.harness.cache.CacheInfo.to_dict`
  plus result/figure hit counters, cumulative executor stats, and the
  miss scheduler's queue counters;
* ``GET /metrics`` — the process-wide
  :data:`~repro.harness.metrics.REGISTRY` in Prometheus text exposition
  format (serve, queue, sweep, cache, and quota series);
* ``GET /point?benchmark=..&dataset=..&label=..&threshold=..`` — one
  sweep point. Params are canonicalized through
  :func:`~repro.harness.variants.mask_params`, so any URL describing the
  same *effective* configuration lands on the same cache key; a warm hit
  never touches the executor, a miss is scheduled on the
  :class:`~repro.harness.queue.RequestScheduler` and populates the cache;
* ``POST /sweep`` — a (pairs × variants) grid spec; per-point results
  with :class:`~repro.harness.sweep.PointFailure` entries surfaced as
  structured JSON under the documented ``on_error`` contract
  (``docs/sweep-engine.md``);
* ``GET /figure/<name>`` — read-through
  :class:`~repro.harness.cache.FigureArtifactCache`; structured JSON by
  default, ``?format=text`` for the formatted table;
* ``POST /shutdown`` — loopback-only graceful drain (the HTTP form of
  SIGTERM).

Results travel as :func:`~repro.harness.cache.encode_result` payloads —
the same encoding the disk cache uses, so both consumers share one
contract.

Concurrency model: the cache hit path is lock-free (content-addressed
files, atomically replaced — concurrent readers can never observe a torn
entry), so warm traffic scales with the server's thread pool. Miss-path
work for ``/point`` and ``/sweep`` flows through a bounded
priority-queue :class:`~repro.harness.queue.RequestScheduler`
(``--miss-workers`` executors sharing one cache; per-point in-flight
dedup; ``--max-pending`` backpressure mapped to 503). Requests may carry
a **priority class** and a **deadline**
(``X-Repro-Priority`` / ``X-Repro-Deadline-Ms`` headers, or the
``priority``/``deadline_ms`` body fields of ``POST /sweep``): higher
priorities run first (FIFO within a class), expired work is shed without
simulating and mapped to a structured 504 with ``"retry": true``, as is
a miss that outlives ``--request-timeout`` (the handler's bounded wait —
the simulation keeps running and lands in the cache for the retry).
Figure *builds* stay serialized behind one dedicated executor (a figure
is a whole tuning campaign, not a point), but warm figures answer
lock-free. Shutdown drains: queued and in-flight misses finish before
the process exits, so a killed service never tears a cache write.

Multi-tenant hardening: a :class:`~repro.harness.quota.QuotaManager`
(``--quota-rps``/``--quota-burst``/``--quota-max-inflight``, plus
per-client overrides from the api-keys file) meters the *miss* path per
client — over-quota misses 429 with a ``Retry-After`` header and
``"retry": true``; warm hits are never metered and never touch the
limiter lock. Client identity comes from the authenticated API key when
``--api-keys-file`` is set (missing/unknown keys 401 everywhere except
:data:`OPEN_ROUTES`), else the ``X-Repro-Client`` header, else the
remote address.
"""

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..benchmarks import get_benchmark
from ..errors import (AuthError, QueueError, QuotaExceededError, ReproError,
                      ServeError)
from ..sim.config import DeviceConfig
from .cache import (CACHE_VERSION, FigureArtifactCache, ResultCache,
                    encode_result, point_key)
from .figures import (figure9, figure10, figure11, figure12,
                      fixed_threshold_study, table1)
from .metrics import REGISTRY
from .queue import RequestScheduler
from .quota import ApiKeyAuth
from .sweep import (PointFailure, SweepExecutor, SweepPoint, SweepStats,
                    sweep_grid)
from .task import Provenance, parse_priority
from .variants import (ALL_GRANULARITIES, VARIANT_LABELS, TuningParams,
                       mask_params)

__all__ = ["ENDPOINTS", "QueryService", "ServeServer", "point_from_query"]

#: Every route the server registers, in documentation order.
#: ``docs/serving.md`` must document each entry verbatim (enforced by
#: ``tests/test_docs.py``).
ENDPOINTS = ("GET /healthz", "GET /cache/info", "GET /metrics",
             "GET /point", "POST /sweep", "GET /figure/<name>",
             "POST /shutdown")

#: Upper bound on one ``POST /sweep`` body; anything larger is a client
#: error, not a grid.
MAX_BODY = 16 * 1024 * 1024

#: Prometheus text exposition content type served by ``GET /metrics``.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default bound (seconds) on how long one HTTP handler waits for a miss
#: (``--request-timeout``); past it the request 504s with ``retry: true``
#: while the simulation continues toward the cache.
DEFAULT_REQUEST_TIMEOUT = 300.0

#: Routes that never require an API key even with ``--api-keys-file``
#: set: liveness probes and metric scrapers must not need credentials.
OPEN_ROUTES = ("/healthz", "/metrics")

#: Variant labels whose ``+`` arrived as a space because the client did
#: not URL-encode it (``+`` means space in a query string).
_LABEL_BY_SPACED = {label.replace("+", " "): label
                    for label in VARIANT_LABELS}

_POINT_KEYS = ("benchmark", "dataset", "label", "scale", "threshold",
               "coarsen", "aggregate", "group_blocks")

_SWEEP_KEYS = ("pairs", "variants", "scale", "params", "on_error",
               "priority", "deadline_ms")

_PARAM_KEYS = ("threshold", "coarsen", "aggregate", "group_blocks")

# -- serving metrics ----------------------------------------------------------

_REQUESTS = REGISTRY.counter(
    "repro_serve_requests_total",
    "HTTP requests by route and status code", ("route", "code"))
_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_serve_request_seconds",
    "End-to-end request latency by route", ("route",))
_POINT_CACHE = REGISTRY.counter(
    "repro_serve_point_cache_total",
    "GET /point requests by which path served them", ("state",))
_FIGURE_CACHE = REGISTRY.counter(
    "repro_serve_figure_cache_total",
    "GET /figure requests by which path served them", ("state",))


def _canonical_label(label):
    """Resolve a variant label from a query string, tolerating the
    ``+`` → space mangling of unencoded URLs.

    >>> _canonical_label("CDP T")
    'CDP+T'
    >>> _canonical_label("No CDP")
    'No CDP'
    >>> _canonical_label("KLAP (CDP A)")
    'KLAP (CDP+A)'
    """
    if label in VARIANT_LABELS:
        return label
    if label in _LABEL_BY_SPACED:
        return _LABEL_BY_SPACED[label]
    raise ServeError("unknown variant label %r (have %s)"
                     % (label, ", ".join(VARIANT_LABELS)))


def _parse_int(raw, name):
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ServeError("%s must be an integer, not %r" % (name, raw))


def _parse_float(raw, name):
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ServeError("%s must be a number, not %r" % (name, raw))


def _parse_granularity(raw):
    if raw is None or raw in ALL_GRANULARITIES:
        return raw
    raise ServeError("aggregate must be one of %s, not %r"
                     % (", ".join(ALL_GRANULARITIES), raw))


def _validate_pair(benchmark, dataset):
    """Resolve one benchmark/dataset pair; 400s on unknown names."""
    try:
        bench = get_benchmark(benchmark)
    except KeyError as exc:
        raise ServeError(exc.args[0])
    if dataset not in bench.dataset_names:
        raise ServeError("unknown dataset %r for %s (have %s)"
                         % (dataset, bench.name,
                            ", ".join(bench.dataset_names)))
    return bench.name


def _params_from(mapping, where):
    unknown = sorted(set(mapping) - set(_PARAM_KEYS))
    if unknown:
        raise ServeError("unknown %s parameter(s) %s (have %s)"
                         % (where, ", ".join(unknown),
                            ", ".join(_PARAM_KEYS)))
    kwargs = {}
    if mapping.get("threshold") is not None:
        kwargs["threshold"] = _parse_int(mapping["threshold"], "threshold")
    if mapping.get("coarsen") is not None:
        kwargs["coarsen_factor"] = _parse_int(mapping["coarsen"], "coarsen")
    kwargs["granularity"] = _parse_granularity(mapping.get("aggregate"))
    if mapping.get("group_blocks") is not None:
        kwargs["group_blocks"] = _parse_int(mapping["group_blocks"],
                                            "group_blocks")
    return TuningParams(**kwargs)


def point_from_query(query):
    """Build the canonical :class:`~repro.harness.sweep.SweepPoint` for a
    ``GET /point`` query-parameter mapping.

    Tuning params are canonicalized through
    :func:`~repro.harness.variants.mask_params`, so two URLs describing
    the same effective configuration (e.g. a plain ``CDP`` point with or
    without a stray ``threshold=``) resolve to the same point — and
    therefore the same cache key. Raises :class:`~repro.errors.ServeError`
    (HTTP 400) on unknown parameters, names, or labels.
    """
    unknown = sorted(set(query) - set(_POINT_KEYS))
    if unknown:
        raise ServeError("unknown /point parameter(s) %s (have %s)"
                         % (", ".join(unknown), ", ".join(_POINT_KEYS)))
    for required in ("benchmark", "dataset"):
        if not query.get(required):
            raise ServeError("/point needs a %r parameter" % required)
    label = _canonical_label(query.get("label", "CDP"))
    benchmark = _validate_pair(query["benchmark"], query["dataset"])
    scale = _parse_float(query.get("scale", "0.25"), "scale")
    tuning = {key: query[key] for key in _PARAM_KEYS if key in query}
    params = mask_params(label, _params_from(tuning, "/point"))
    return SweepPoint(benchmark, query["dataset"], label, params,
                      DeviceConfig(), scale)


def _priority_from(raw):
    """Wire priority -> int class; ServeError (HTTP 400) on garbage."""
    try:
        return parse_priority(raw)
    except ValueError as exc:
        raise ServeError(str(exc))


def _deadline_from(raw, where):
    """Wire ``deadline_ms`` -> absolute ``time.monotonic()`` deadline (or
    None); ServeError (HTTP 400) on garbage."""
    if raw is None or raw == "":
        return None
    try:
        millis = float(raw)
    except (TypeError, ValueError):
        raise ServeError("%s must be a number of milliseconds, not %r"
                         % (where, raw))
    if millis < 0:
        raise ServeError("%s must be >= 0, not %r" % (where, raw))
    return time.monotonic() + millis / 1000.0


def _failure_payload(failure):
    """Structured JSON for one :class:`~repro.harness.sweep.PointFailure`
    (the ``on_error`` contract of ``docs/sweep-engine.md``, over HTTP).
    Deadline sheds additionally carry ``"retry": true`` — the point is
    still computable, the caller's time budget just ran out."""
    payload = {"status": "error",
               "error": failure.error,
               "message": failure.message,
               "point": failure.point.spec(),
               "describe": failure.point.describe()}
    if failure.error == "DeadlineExceededError":
        payload["retry"] = True
    return payload


def _timeout_payload(describe, timeout):
    """Structured 504 body for a bounded miss wait that ran out; the
    simulation keeps running, so a retry picks up the cached result.
    *timeout* is the wait that actually expired — the tighter of the
    request deadline and ``--request-timeout`` — or None (defensive:
    an unbounded wait should never time out)."""
    waited = "its wait budget" if timeout is None else "%.3fs" % timeout
    return {"status": "error",
            "error": "TimeoutError",
            "message": "%s not done within %s; work continues toward "
                       "the cache — retry" % (describe, waited),
            "retry": True}


class _ArtifactMiss(Exception):
    """Internal: the optimistic figure pass found no cached artifact."""


class _ArtifactProbe:
    """Read-only view of a :class:`~repro.harness.cache.FigureArtifactCache`
    for the lock-free warm-figure pass: serves hits, aborts the build on
    a miss (so the probe never reaches executor work). The miss stays
    uncounted — the locked rebuild's own ``get`` is the authoritative
    one."""

    def __init__(self, inner):
        self._inner = inner

    def get(self, name, spec):
        artifact = self._inner.get(name, spec, count_miss=False)
        if artifact is None:
            raise _ArtifactMiss(name)
        return artifact


# -- figure registry ----------------------------------------------------------

def _strategy_from(query):
    strategy = query.get("strategy", "guided")
    if strategy not in ("guided", "exhaustive"):
        raise ServeError("strategy must be 'guided' or 'exhaustive', "
                         "not %r" % (strategy,))
    return strategy


def _fig11_args(query):
    benchmark = query.get("benchmark", "BFS")
    dataset = query.get("dataset", "KRON")
    return _validate_pair(benchmark, dataset), dataset


#: name -> (allowed query params, builder(query, executor, artifacts)).
#: The names match ``repro figure`` so the docs describe one vocabulary.
FIGURES = {
    "table1": (
        ("scale",),
        lambda query, executor, artifacts: table1(
            scale=_parse_float(query.get("scale", "1.0"), "scale"),
            artifacts=artifacts)),
    "fig9": (
        ("scale", "strategy"),
        lambda query, executor, artifacts: figure9(
            scale=_parse_float(query.get("scale", "0.25"), "scale"),
            strategy=_strategy_from(query), executor=executor,
            artifacts=artifacts)),
    "fig10": (
        ("scale", "strategy"),
        lambda query, executor, artifacts: figure10(
            scale=_parse_float(query.get("scale", "0.25"), "scale"),
            strategy=_strategy_from(query), executor=executor,
            artifacts=artifacts)),
    "fig11": (
        ("scale", "benchmark", "dataset"),
        lambda query, executor, artifacts: figure11(
            *_fig11_args(query),
            scale=_parse_float(query.get("scale", "0.25"), "scale"),
            executor=executor, artifacts=artifacts)),
    "fig12": (
        ("scale", "strategy"),
        lambda query, executor, artifacts: figure12(
            scale=_parse_float(query.get("scale", "0.25"), "scale"),
            strategy=_strategy_from(query), executor=executor,
            artifacts=artifacts)),
    "fixed-threshold": (
        ("scale", "strategy"),
        lambda query, executor, artifacts: fixed_threshold_study(
            scale=_parse_float(query.get("scale", "0.25"), "scale"),
            strategy=_strategy_from(query), executor=executor,
            artifacts=artifacts)),
}


# -- the service --------------------------------------------------------------

class QueryService:
    """The serving-path brain: caches + scheduler + executors, HTTP-free.

    All request semantics live here (the HTTP handler only routes and
    serializes), so tests and embedders can drive the service without a
    socket. Every public method returns ``(payload, http_status)``.

    ``miss_workers`` executors (sharing one cache) drain the bounded
    miss queue concurrently, one point per task, so they simulate
    in-process; one extra dedicated executor (:attr:`executor`) serves
    figure builds, whose grids use a pool when ``jobs > 1``, so a figure
    campaign and point misses never contend for one executor.
    ``max_pending`` bounds the queue — submissions past it are rejected
    with :class:`~repro.errors.QueueFullError` (HTTP 503).

    With ``cache_dir=None`` the service still works but every request
    takes the miss path — useful only for smoke tests; production
    serving wants a cache pre-warmed by ``repro sweep`` (the runbook in
    ``docs/serving.md``).
    """

    def __init__(self, cache_dir=".repro-cache", jobs=1, quiet=True,
                 miss_workers=2, max_pending=64,
                 request_timeout=DEFAULT_REQUEST_TIMEOUT,
                 quota=None, api_keys=None):
        self.cache_dir = str(cache_dir) if cache_dir else None
        #: Per-client admission control for the miss path (a
        #: :class:`~repro.harness.quota.QuotaManager`, or None = no
        #: quotas). Consulted only after the warm-cache pre-check misses,
        #: so warm hits never take a quota lock.
        self.quota = quota
        #: Optional API-key auth (a ``{key: ApiKey}`` map or a ready
        #: :class:`~repro.harness.quota.ApiKeyAuth`); when set, every
        #: route except :data:`OPEN_ROUTES` requires a valid
        #: ``X-Repro-Api-Key`` and the key's client name becomes the
        #: request's quota/provenance identity.
        if api_keys is not None and not isinstance(api_keys, ApiKeyAuth):
            api_keys = ApiKeyAuth(api_keys)
        self.auth = api_keys
        self.request_timeout = (None if request_timeout is None
                                or request_timeout <= 0
                                else float(request_timeout))
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.artifacts = FigureArtifactCache(cache_dir) if cache_dir else None
        miss_workers = max(1, int(miss_workers))

        def make_executor():
            return SweepExecutor(jobs=jobs, cache=self.cache,
                                 on_error="continue")

        #: The figure-path executor (also the one ``/healthz`` reports).
        self.executor = make_executor()
        #: One executor per scheduler worker; an executor is not safe for
        #: concurrent ``run`` calls, so concurrency means N executors.
        self.miss_executors = [make_executor() for _ in range(miss_workers)]
        self.scheduler = RequestScheduler(self.miss_executors,
                                          max_pending=max_pending)
        self.quiet = quiet
        self.started = time.time()
        self.requests = 0
        # Figure builds are whole campaigns driving self.executor; they
        # stay serialized. The warm-figure path never takes this lock.
        self._figure_lock = threading.Lock()
        self._count_lock = threading.Lock()

    # -- bookkeeping ----------------------------------------------------------

    def count_request(self):
        with self._count_lock:
            self.requests += 1

    def executor_stats(self):
        """Cumulative :class:`~repro.harness.sweep.SweepStats` aggregated
        across the figure executor and every miss worker (the
        ``executor`` block of ``GET /cache/info``)."""
        total = SweepStats()
        for executor in [self.executor] + self.miss_executors:
            stats = executor.stats
            total.points += stats.points
            total.hits += stats.hits
            total.simulated += stats.simulated
            total.failed += stats.failed
        return total

    # -- endpoints ------------------------------------------------------------

    def health(self):
        """``GET /healthz``."""
        return ({"status": "ok",
                 "version": __version__,
                 "cache_version": CACHE_VERSION,
                 "jobs": self.executor.jobs,
                 "cache_dir": self.cache_dir,
                 "miss_workers": self.scheduler.workers,
                 "request_timeout": self.request_timeout,
                 "auth": self.auth is not None,
                 "quota": self.quota is not None,
                 "uptime_seconds": round(time.time() - self.started, 3),
                 "requests": self.requests,
                 "endpoints": list(ENDPOINTS)}, 200)

    def cache_info(self):
        """``GET /cache/info``."""
        payload = {
            "cache_dir": self.cache_dir,
            "info": self.cache.info().to_dict() if self.cache else None,
            "results": ({"hits": self.cache.hits,
                         "misses": self.cache.misses}
                        if self.cache else None),
            "figures": ({"hits": self.artifacts.hits,
                         "misses": self.artifacts.misses}
                        if self.artifacts else None),
            "executor": self.executor_stats().to_dict(),
            "queue": self.scheduler.stats_dict(),
            "quota": (self.quota.stats_dict()
                      if self.quota is not None else None),
            "index": (self.cache.index.stats_dict()
                      if self.cache else None),
            "metrics": {"series": REGISTRY.series_count(),
                        "endpoint": "GET /metrics"},
            "jobs": self.executor.jobs,
        }
        return (payload, 200)

    def metrics(self):
        """``GET /metrics``: the Prometheus text exposition. Returned as
        ``(text, status)``; the handler serves it unserialized with
        :data:`METRICS_CONTENT_TYPE`."""
        return (REGISTRY.render(), 200)

    def _admit_misses(self, context, cost):
        """Charge *cost* cold points to the request's client before
        anything reaches the scheduler. Returns a lease to release when
        the miss wait ends (every exit path — result, failure, timeout —
        so the in-flight cap can never leak). Raises
        :class:`~repro.errors.QuotaExceededError` (HTTP 429) over quota;
        warm hits never get here."""
        if self.quota is None or cost <= 0:
            return None
        return self.quota.admit(context.get("client"), cost=cost)

    def _miss_wait_timeout(self, deadline, wait_deadline=None):
        """Seconds to block on a miss: the tighter of the request's
        deadline and the service's ``request_timeout`` budget (None =
        unbounded)."""
        bounds = []
        if wait_deadline is not None:
            bounds.append(wait_deadline)
        elif self.request_timeout is not None:
            bounds.append(time.monotonic() + self.request_timeout)
        if deadline is not None:
            bounds.append(deadline)
        if not bounds:
            return None
        return max(0.0, min(bounds) - time.monotonic())

    def lookup_point(self, query, context=None):
        """``GET /point``: warm answers straight from the cache
        (lock-free), misses through the request scheduler — which dedups
        concurrent requests for one masked spec into a single
        computation and populates the cache, so the second identical
        request is a hit.

        *context* carries the HTTP layer's ``X-Repro-Priority`` /
        ``X-Repro-Deadline-Ms`` / ``X-Repro-Request-Id`` headers plus the
        client address. An expired deadline sheds the miss (504,
        ``retry: true``); so does a miss that outlives the request
        timeout (the simulation keeps running toward the cache)."""
        context = context or {}
        priority = _priority_from(context.get("priority"))
        deadline = _deadline_from(context.get("deadline_ms"),
                                  "X-Repro-Deadline-Ms")
        point = point_from_query(query)
        # Optimistic lock-free pre-check; the executor's own get() is the
        # authoritative (counted) miss, so this one stays uncounted.
        result = (self.cache.get(point, count_miss=False)
                  if self.cache is not None else None)
        cache_state = "hit"
        if result is None:
            cache_state = "miss"
            # Quota gate: misses (and only misses) are metered, before
            # the scheduler sees the point. Over quota -> 429, nothing
            # queued.
            lease = self._admit_misses(context, cost=1)
            try:
                task = self.scheduler.submit(
                    point, priority=priority, deadline=deadline,
                    provenance=Provenance(
                        client=context.get("client"),
                        request_id=context.get("request_id"),
                        source="point"))
                timeout = self._miss_wait_timeout(deadline)
                try:
                    result = self.scheduler.result(task, timeout=timeout)
                except TimeoutError:
                    _POINT_CACHE.inc(state=cache_state)
                    return (dict(_timeout_payload(point.describe(),
                                                  timeout),
                                 point=point.spec()), 504)
            finally:
                if lease is not None:
                    lease.release()
        _POINT_CACHE.inc(state=cache_state)
        if isinstance(result, PointFailure):
            code = 504 if result.error == "DeadlineExceededError" else 500
            return (_failure_payload(result), code)
        return ({"point": point.spec(),
                 "key": point_key(point),
                 "cache": cache_state,
                 "result": encode_result(result)}, 200)

    def run_sweep(self, body, context=None):
        """``POST /sweep``: a grid spec; per-point results in grid order,
        failures as structured entries (``on_error="continue"``), or one
        500 naming the first failure (``on_error="raise"``). Warm points
        resolve lock-free; the misses are scheduled as one batch
        (deduplicated against in-flight work, FIFO within the request's
        priority class) and awaited together.

        ``priority``/``deadline_ms`` body fields (falling back to the
        ``X-Repro-*`` headers) apply to the whole batch. Deadline-shed
        misses surface as structured ``DeadlineExceededError`` entries
        and count in ``stats.shed``; if the whole request came up empty
        (no warm hits, every miss shed) — or the batch outlives the
        request timeout — the response is a 504 with ``retry: true``.
        Warm hits are served regardless of deadline."""
        context = context or {}
        if not isinstance(body, dict):
            raise ServeError("POST /sweep body must be a JSON object")
        unknown = sorted(set(body) - set(_SWEEP_KEYS))
        if unknown:
            raise ServeError("unknown /sweep key(s) %s (have %s)"
                             % (", ".join(unknown), ", ".join(_SWEEP_KEYS)))
        priority = _priority_from(body.get("priority",
                                           context.get("priority")))
        deadline = _deadline_from(body.get("deadline_ms",
                                           context.get("deadline_ms")),
                                  "deadline_ms")
        on_error = body.get("on_error", "continue")
        if on_error not in ("continue", "raise"):
            raise ServeError("on_error must be 'continue' or 'raise', "
                             "not %r" % (on_error,))
        pairs = []
        for item in body.get("pairs") or ():
            if isinstance(item, str):
                benchmark, _, dataset = item.partition(":")
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                benchmark, dataset = item
            else:
                raise ServeError("bad pairs entry %r (want 'BENCH:DATASET' "
                                 "or [bench, dataset])" % (item,))
            if not benchmark or not dataset:
                raise ServeError("bad pairs entry %r (want 'BENCH:DATASET' "
                                 "or [bench, dataset])" % (item,))
            pairs.append((_validate_pair(benchmark, dataset), dataset))
        if not pairs:
            raise ServeError("POST /sweep needs a non-empty 'pairs' list")
        variants = [_canonical_label(label)
                    for label in body.get("variants") or ()]
        if not variants:
            raise ServeError("POST /sweep needs a non-empty 'variants' list")
        scale = _parse_float(body.get("scale", 0.25), "scale")
        params_body = body.get("params") or {}
        if not isinstance(params_body, dict):
            raise ServeError("'params' must be a JSON object")
        params = _params_from(params_body, "/sweep params")
        points = sweep_grid(pairs, variants, scale=scale, params=params)
        results = [None] * len(points)
        miss_indices = []
        for index, point in enumerate(points):
            cached = (self.cache.get(point, count_miss=False)
                      if self.cache is not None else None)
            if cached is not None:
                results[index] = cached
            else:
                miss_indices.append(index)
        stats = {"points": len(points),
                 "hits": len(points) - len(miss_indices),
                 "simulated": 0, "failed": 0, "shed": 0}
        if miss_indices:
            wait_deadline = (None if self.request_timeout is None
                             else time.monotonic() + self.request_timeout)
            # Quota gate: each cold point costs one token, charged as
            # one batch before anything is enqueued — over quota the
            # whole request is 429 and the scheduler never sees it.
            lease = self._admit_misses(context, cost=len(miss_indices))
            try:
                tasks = self.scheduler.submit_all(
                    [points[index] for index in miss_indices],
                    priority=priority, deadline=deadline,
                    provenance=Provenance(
                        client=context.get("client"),
                        request_id=context.get("request_id"),
                        source="sweep"))
                for index, task in zip(miss_indices, tasks):
                    timeout = self._miss_wait_timeout(deadline,
                                                      wait_deadline)
                    try:
                        results[index] = self.scheduler.result(task,
                                                               timeout)
                    except TimeoutError:
                        # Report the wait that actually expired, not
                        # request_timeout: the request deadline may have
                        # been the tighter bound, and with
                        # --request-timeout 0 the budget is None entirely.
                        return (_timeout_payload(
                            "sweep (%d points)" % len(points),
                            timeout), 504)
            finally:
                if lease is not None:
                    lease.release()
            for index in miss_indices:
                result = results[index]
                if not isinstance(result, PointFailure):
                    stats["simulated"] += 1
                elif result.error == "DeadlineExceededError":
                    stats["shed"] += 1
                else:
                    stats["failed"] += 1
        entries = [_failure_payload(result)
                   if isinstance(result, PointFailure)
                   else {"status": "ok", "result": encode_result(result)}
                   for result in results]
        if miss_indices and stats["shed"] == len(miss_indices) \
                and stats["hits"] == 0:
            # Nothing useful came back — every point expired before
            # running — so say so at the top level. Any warm hit keeps
            # the request a 200 with per-point shed entries instead.
            return ({"error": "DeadlineExceededError",
                     "message": "deadline expired before any of the %d "
                                "cold points ran" % len(miss_indices),
                     "retry": True, "points": len(points),
                     "results": entries, "stats": stats}, 504)
        failures = [r for r in results if isinstance(r, PointFailure)]
        if failures and on_error == "raise":
            return (_failure_payload(failures[0]), 500)
        return ({"points": len(points), "results": entries,
                 "stats": stats}, 200)

    def figure(self, name, query):
        """``GET /figure/<name>``: read-through the figure artifact
        cache; a miss rebuilds the figure through the dedicated figure
        executor (grid points still resolve against the result cache
        first). Structured JSON by default; ``?format=text`` returns the
        formatted table (the pre-PR-5 shape)."""
        if name not in FIGURES:
            return ({"error": "NotFound",
                     "message": "unknown figure %r" % (name,),
                     "figures": sorted(FIGURES)}, 404)
        response_format = query.pop("format", "json")
        if response_format not in ("json", "text"):
            raise ServeError("format must be 'json' or 'text', not %r"
                             % (response_format,))
        allowed, build = FIGURES[name]
        unknown = sorted(set(query) - set(allowed))
        if unknown:
            raise ServeError("unknown /figure/%s parameter(s) %s (have %s)"
                             % (name, ", ".join(unknown),
                                ", ".join(allowed)))
        started = time.perf_counter()
        # Optimistic lock-free pass: a probe view of the artifact cache
        # serves a warm hit immediately (never touching the executor) and
        # aborts the build on a miss, so warm figures stay interactive
        # while a slow cold build holds the figure lock.
        cache_state = "hit"
        result = None
        if self.artifacts is not None:
            try:
                result = build(query, None, _ArtifactProbe(self.artifacts))
            except _ArtifactMiss:
                result = None
        if result is None:
            cache_state = "miss"
            with self._figure_lock:
                result = build(query, self.executor, self.artifacts)
        _FIGURE_CACHE.inc(state=cache_state)
        payload = {"figure": name,
                   "cache": cache_state,
                   "elapsed_seconds":
                       round(time.perf_counter() - started, 6)}
        if response_format == "text":
            payload["text"] = result.format()
        else:
            payload["data"] = result.to_dict()
            payload["provenance"] = {
                "version": __version__,
                "cache_version": CACHE_VERSION,
                "jobs": self.executor.jobs,
                "query": dict(query),
            }
        return (payload, 200)

    def log(self, message):
        if not self.quiet:
            print("repro serve: %s" % message, flush=True)

    def close(self, drain=True, timeout=None):
        """Drain the scheduler (or abandon the queue with
        ``drain=False``), then release every executor's pool.
        Idempotent."""
        self.scheduler.close(drain=drain, timeout=timeout)
        self.executor.close()
        for executor in self.miss_executors:
            executor.close()


# -- the HTTP front-end -------------------------------------------------------

class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service = None

    def request_shutdown(self):
        """Stop ``serve_forever`` from a handler thread without
        deadlocking (``shutdown()`` blocks until the serve loop exits, so
        it must run off-thread)."""
        threading.Thread(target=self.shutdown, daemon=True).start()


class _ServeHandler(BaseHTTPRequestHandler):
    """Thin routing/serialization shell around :class:`QueryService`."""

    server_version = "repro-serve/" + __version__
    protocol_version = "HTTP/1.1"
    # A reply leaves as two writes (headers, then body). With Nagle's
    # algorithm on, the body of a reply on a kept-alive connection waits
    # for the client's delayed ACK, about 40 ms.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):       # noqa: A002 (stdlib name)
        service = self.server.service
        if service is not None and not service.quiet:
            service.log("%s %s" % (self.address_string(), format % args))

    def _send_bytes(self, code, blob, content_type, extra_headers=()):
        if code >= 400:
            # An errored request may have an unread body; never reuse
            # the connection in that state.
            self.close_connection = True
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(blob)))
            for name, value in extra_headers:
                self.send_header(name, value)
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(blob)
        except OSError:
            pass                                # client hung up mid-reply

    def _send(self, code, payload, extra_headers=()):
        blob = (json.dumps(payload, indent=2, sort_keys=True) + "\n") \
            .encode("utf-8")
        self._send_bytes(code, blob, "application/json", extra_headers)

    def _read_json_body(self):
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ServeError("bad Content-Length header")
        if length <= 0:
            raise ServeError("POST needs a JSON body (Content-Length > 0)")
        if length > MAX_BODY:
            raise ServeError("body too large (%d bytes; limit %d)"
                             % (length, MAX_BODY))
        blob = self.rfile.read(length)
        try:
            return json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServeError("body is not valid JSON: %s" % exc)

    def _api_key(self):
        """The presented API key: ``X-Repro-Api-Key``, falling back to
        ``Authorization: Bearer <key>``."""
        key = self.headers.get("X-Repro-Api-Key")
        if key:
            return key
        authorization = self.headers.get("Authorization") or ""
        scheme, _, value = authorization.partition(" ")
        if scheme.lower() == "bearer":
            return value.strip()
        return None

    def _request_context(self):
        """Per-request scheduling context for the service layer: the
        ``X-Repro-*`` headers (priority class, deadline budget, request
        id) plus the client identity — the raw material for
        :class:`~repro.harness.task.Task` provenance and the quota
        layer. The identity is the authenticated API key's client name
        when auth is on, else the ``X-Repro-Client`` header, else the
        remote address."""
        identity = getattr(self, "_identity", None)
        if identity is not None:
            client = identity.client
        else:
            client = (self.headers.get("X-Repro-Client")
                      or self.client_address[0])
        return {"client": client,
                "request_id": self.headers.get("X-Repro-Request-Id"),
                "priority": self.headers.get("X-Repro-Priority"),
                "deadline_ms": self.headers.get("X-Repro-Deadline-Ms")}

    def _loopback_only(self):
        host = self.client_address[0]
        if host not in ("127.0.0.1", "::1", "::ffff:127.0.0.1"):
            return ({"error": "Forbidden",
                     "message": "POST /shutdown is loopback-only "
                                "(got %s)" % host}, 403)
        return None

    def _shutdown(self):
        """``POST /shutdown``: acknowledge, then stop the serve loop —
        the owner's ``close()`` drains the miss queue before the
        process exits (``docs/serving.md`` runbook). The actual
        ``shutdown()`` fires *after* the response is written (see
        ``_route``), so the acknowledging client always gets its 200
        before the listener dies."""
        service = self.server.service
        forbidden = self._loopback_only()
        if forbidden is not None:
            return forbidden
        service.log("shutdown requested by %s" % (self.client_address,))
        return ({"status": "draining",
                 "queue": service.scheduler.stats_dict()}, 200)

    def _route(self, method):
        service = self.server.service
        service.count_request()
        route = None
        shutdown_after_send = False
        extra_headers = ()
        started = time.perf_counter()
        self._identity = None
        try:
            split = urlsplit(self.path)
            path = split.path.rstrip("/") or "/"
            query = {key: values[-1] for key, values in
                     parse_qs(split.query, keep_blank_values=True).items()}
            # Auth gate: with --api-keys-file set, every route except
            # the open ones (liveness, metrics scrape) needs a valid
            # key; the key's client name becomes the request identity.
            if service.auth is not None and path not in OPEN_ROUTES:
                self._identity = service.auth.authenticate(self._api_key())
            if path == "/healthz":
                route = "/healthz"
                payload, code = self._only("GET", method, service.health)
            elif path == "/cache/info":
                route = "/cache/info"
                payload, code = self._only("GET", method, service.cache_info)
            elif path == "/metrics":
                route = "/metrics"
                payload, code = self._only("GET", method, service.metrics)
                if code == 200:
                    # Text exposition, not JSON: bypass _send.
                    _REQUESTS.inc(route=route, code=str(code))
                    _REQUEST_SECONDS.observe(
                        time.perf_counter() - started, route=route)
                    self._send_bytes(code, payload.encode("utf-8"),
                                     METRICS_CONTENT_TYPE)
                    return
            elif path == "/point":
                route = "/point"
                payload, code = self._only("GET", method,
                                           lambda: service.lookup_point(
                                               query,
                                               self._request_context()))
            elif path == "/sweep":
                route = "/sweep"
                payload, code = self._only(
                    "POST", method,
                    lambda: service.run_sweep(self._read_json_body(),
                                              self._request_context()))
            elif path.startswith("/figure/"):
                route = "/figure"
                name = path[len("/figure/"):]
                payload, code = self._only("GET", method,
                                           lambda: service.figure(name,
                                                                  query))
            elif path == "/shutdown":
                route = "/shutdown"
                payload, code = self._only("POST", method, self._shutdown)
                shutdown_after_send = code == 200
            else:
                payload, code = ({"error": "NotFound",
                                  "message": "no route for %r" % path,
                                  "endpoints": list(ENDPOINTS)}, 404)
        except ServeError as exc:
            payload, code = ({"error": "ServeError",
                              "message": str(exc)}, 400)
        except AuthError as exc:
            payload, code = ({"error": "AuthError",
                              "message": str(exc)}, 401)
        except QuotaExceededError as exc:
            # The *service* had room; this client is over its
            # allocation. Retry-After tells it when the bucket refills.
            payload, code = ({"error": "QuotaExceededError",
                              "message": str(exc),
                              "retry": True,
                              "reason": exc.reason}, 429)
            extra_headers = (
                ("Retry-After",
                 str(max(1, math.ceil(exc.retry_after)))),)
        except QueueError as exc:
            # Well-formed but unservable right now: back off and retry.
            payload, code = ({"error": type(exc).__name__,
                              "message": str(exc),
                              "retry": True}, 503)
        except ReproError as exc:
            payload, code = ({"error": type(exc).__name__,
                              "message": str(exc)}, 500)
        except Exception as exc:                 # keep the server alive
            payload, code = ({"error": type(exc).__name__,
                              "message": str(exc)}, 500)
        _REQUESTS.inc(route=route or "<other>", code=str(code))
        _REQUEST_SECONDS.observe(time.perf_counter() - started,
                                 route=route or "<other>")
        if shutdown_after_send:
            # The acknowledgement must reach the client before the
            # listener stops; never reuse this connection afterwards.
            self.close_connection = True
        self._send(code, payload, extra_headers)
        if shutdown_after_send:
            self.server.request_shutdown()

    def _only(self, allowed, method, call):
        if method != allowed:
            return ({"error": "MethodNotAllowed",
                     "message": "use %s (see docs/serving.md)"
                                % allowed}, 405)
        return call()

    def do_GET(self):
        self._route("GET")

    def do_POST(self):
        self._route("POST")


class ServeServer:
    """A ``repro serve`` daemon: :class:`QueryService` behind a threaded
    stdlib HTTP server.

    Binds ``host:port`` (port 0 picks an ephemeral port — read it back
    from :attr:`address`). Service configuration (``cache_dir``,
    ``jobs``, ``miss_workers``, ``max_pending``) is forwarded to
    :class:`QueryService` unless a ready-made *service* is given.
    :meth:`serve_forever` for the CLI, :meth:`start` for tests and
    embedding, :meth:`close` to drain the miss queue and release the
    socket and executors. ``POST /shutdown`` (loopback-only) stops
    :meth:`serve_forever` so the owner's ``close()`` runs the same
    graceful drain SIGTERM does.
    """

    def __init__(self, host="127.0.0.1", port=0, service=None, quiet=True,
                 **service_kwargs):
        if service is None:
            service = QueryService(quiet=quiet, **service_kwargs)
        self.service = service
        self._server = _ServeHTTPServer((host, port), _ServeHandler)
        self._server.service = service
        self._thread = None

    @property
    def address(self):
        """The bound ``(host, port)`` pair."""
        return self._server.server_address[:2]

    def serve_forever(self):
        """Serve until :meth:`close`, ``POST /shutdown``, or Ctrl-C."""
        self._server.serve_forever(poll_interval=0.1)

    def start(self):
        """Serve on a daemon thread (for tests/embedding); returns
        :attr:`address`."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self.address

    def close(self, drain=True, timeout=None):
        """Stop accepting connections, drain in-flight misses (unless
        ``drain=False``), and release the socket and the executors."""
        if self._thread is not None and self._thread.is_alive():
            self._server.shutdown()
            self._thread.join(timeout=5.0)
        self._server.server_close()
        self.service.close(drain=drain, timeout=timeout)
