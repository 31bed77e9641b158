"""The HTTP query service (repro serve / repro.harness.serve).

Covers the acceptance contract of the serving path: warm ``/point`` and
``/figure`` requests answer without a single executor submission, a cold
``/point`` populates the ResultCache so the second request is a hit,
concurrent cold requests for one masked spec share exactly one
simulation (scheduler dedup) while distinct specs overlap across the
miss workers, a saturated queue answers 503, ``POST /shutdown`` drains,
``GET /metrics`` scrapes as valid Prometheus text, ``POST /sweep``
surfaces PointFailures as structured JSON under the ``on_error``
contract, and concurrent readers never observe torn cache entries or
leak ``.tmp`` files.
"""

import http.client
import json
import re
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

import repro.harness.figures as figures_mod
import repro.harness.sweep as sweep_mod
from repro.errors import ReproError
from repro.harness.serve import (ENDPOINTS, METRICS_CONTENT_TYPE,
                                 QueryService, ServeServer,
                                 point_from_query)

SCALE = "0.08"
POINT = ("/point?benchmark=BFS&dataset=KRON&label=CDP%%2BT"
         "&threshold=16&scale=%s" % SCALE)


def fetch(server, path, data=None):
    """(status, decoded JSON body) for one request against *server*."""
    url = "http://%s:%d%s" % (*server.address, path)
    payload = json.dumps(data).encode() if data is not None else None
    try:
        with urllib.request.urlopen(
                urllib.request.Request(url, data=payload),
                timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def fetch_raw(server, path):
    """(status, content-type, text body) without JSON decoding."""
    url = "http://%s:%d%s" % (*server.address, path)
    try:
        with urllib.request.urlopen(url, timeout=60) as resp:
            return (resp.status, resp.headers.get("Content-Type"),
                    resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Content-Type"), \
            exc.read().decode("utf-8")


def banned(*args, **kwargs):
    raise AssertionError("executor submission on the warm hit path")


def ban_executors(monkeypatch, service):
    """Warm paths may simulate nothing: ban the figure executor's and
    every miss worker's miss batches."""
    for executor in [service.executor] + service.miss_executors:
        monkeypatch.setattr(executor, "_simulate", banned)


@pytest.fixture
def server(tmp_path):
    srv = ServeServer(cache_dir=str(tmp_path / "cache"))
    srv.start()
    yield srv
    srv.close()


class TestHealthAndRouting:
    def test_healthz(self, server):
        status, payload = fetch(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["endpoints"] == list(ENDPOINTS)
        assert payload["jobs"] == 1
        assert isinstance(payload["cache_version"], int)

    def test_unknown_route_404_lists_endpoints(self, server):
        status, payload = fetch(server, "/nope")
        assert status == 404
        assert payload["endpoints"] == list(ENDPOINTS)

    def test_wrong_method_405(self, server):
        assert fetch(server, "/sweep")[0] == 405            # GET
        assert fetch(server, "/healthz", data={})[0] == 405  # POST

    def test_unknown_figure_404(self, server):
        status, payload = fetch(server, "/figure/nope")
        assert status == 404
        assert "fig9" in payload["figures"]

    def test_sweep_bad_json_body_400(self, server):
        url = "http://%s:%d/sweep" % server.address
        req = urllib.request.Request(url, data=b"not json")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=60)
        assert info.value.code == 400

    def test_server_survives_errors(self, server):
        fetch(server, "/point?benchmark=NOPE&dataset=KRON")
        assert fetch(server, "/healthz")[0] == 200


class TestPoint:
    def test_cold_then_warm_hit_without_executor(self, server, monkeypatch):
        status, cold = fetch(server, POINT)
        assert status == 200
        assert cold["cache"] == "miss"
        assert cold["result"]["total_time"] > 0
        assert cold["point"]["label"] == "CDP+T"
        # The cold miss populated the cache: the second identical request
        # must be a hit that never reaches the executor or the simulator.
        ban_executors(monkeypatch, server.service)
        monkeypatch.setattr(sweep_mod, "_simulate_point", banned)
        status, warm = fetch(server, POINT)
        assert status == 200
        assert warm["cache"] == "hit"
        assert warm["result"] == cold["result"]
        assert warm["key"] == cold["key"]

    def test_warm_hits_on_one_connection_do_not_stall(self, server):
        # A reply leaves as two writes. With Nagle's algorithm on, the
        # body on a reused connection waits ~40 ms for the client's
        # delayed ACK, a timer that does not scale with CPU speed.
        assert fetch(server, POINT)[1]["cache"] == "miss"
        conn = http.client.HTTPConnection(*server.address, timeout=60)
        seconds = []
        try:
            for _ in range(10):
                start = time.perf_counter()
                conn.request("GET", POINT)
                reply = conn.getresponse()
                payload = json.loads(reply.read())
                seconds.append(time.perf_counter() - start)
                assert reply.status == 200 and payload["cache"] == "hit"
        finally:
            conn.close()
        assert statistics.median(seconds) < 0.020, seconds

    def test_unencoded_plus_label_normalized(self, server):
        assert fetch(server, POINT)[1]["cache"] == "miss"
        # "label=CDP+T" decodes to "CDP T"; the service canonicalizes it.
        spaced = POINT.replace("CDP%2BT", "CDP+T")
        status, payload = fetch(server, spaced)
        assert status == 200
        assert payload["point"]["label"] == "CDP+T"
        assert payload["cache"] == "hit"

    def test_mask_params_canonicalizes_url_specs(self, server, monkeypatch):
        base = "/point?benchmark=BFS&dataset=KRON&label=CDP&scale=" + SCALE
        status, cold = fetch(server, base)
        assert cold["cache"] == "miss"
        # CDP uses neither threshold nor coarsening: a URL carrying stray
        # values must land on the same (masked) cache key.
        ban_executors(monkeypatch, server.service)
        status, warm = fetch(server, base + "&threshold=999&coarsen=4")
        assert status == 200
        assert warm["cache"] == "hit"
        assert warm["key"] == cold["key"]
        assert warm["result"] == cold["result"]

    def test_validation_errors_are_400(self, server):
        cases = (
            "/point?dataset=KRON",                            # no benchmark
            "/point?benchmark=NOPE&dataset=KRON",             # bad benchmark
            "/point?benchmark=BFS&dataset=NOPE",              # bad dataset
            "/point?benchmark=BFS&dataset=KRON&label=XX",     # bad label
            "/point?benchmark=BFS&dataset=KRON&scale=x",      # bad scale
            "/point?benchmark=BFS&dataset=KRON&threshold=x",  # bad int
            "/point?benchmark=BFS&dataset=KRON&aggregate=x",  # bad gran
            "/point?benchmark=BFS&dataset=KRON&bogus=1",      # unknown key
        )
        for path in cases:
            status, payload = fetch(server, path)
            assert status == 400, path
            assert payload["error"] == "ServeError", path

    def test_simulator_failure_is_structured_500(self, server, monkeypatch):
        def boom(point):
            raise ReproError("synthetic failure")

        monkeypatch.setattr(sweep_mod, "_simulate_point", boom)
        status, payload = fetch(server, POINT)
        assert status == 500
        assert payload["status"] == "error"
        assert payload["error"] == "ReproError"
        assert payload["message"] == "synthetic failure"
        assert payload["point"]["benchmark"] == "BFS"


class TestSweep:
    BODY = {"pairs": ["BFS:KRON"], "variants": ["CDP", "CDP+T"],
            "params": {"threshold": 16}, "scale": float(SCALE)}

    def test_grid_cold_then_warm(self, server):
        status, cold = fetch(server, "/sweep", data=self.BODY)
        assert status == 200
        assert [entry["status"] for entry in cold["results"]] == ["ok", "ok"]
        assert cold["stats"] == {"points": 2, "hits": 0, "simulated": 2,
                                 "failed": 0, "shed": 0}
        status, warm = fetch(server, "/sweep", data=self.BODY)
        assert warm["stats"] == {"points": 2, "hits": 2, "simulated": 0,
                                 "failed": 0, "shed": 0}
        assert [e["result"] for e in warm["results"]] == \
            [e["result"] for e in cold["results"]]

    def test_pairs_accept_lists_and_mask_shares_keys(self, server):
        body = dict(self.BODY, pairs=[["BFS", "KRON"]])
        status, payload = fetch(server, "/sweep", data=body)
        assert status == 200
        # /point for the same effective config must now be a cache hit.
        status, point = fetch(server, POINT)
        assert point["cache"] == "hit"

    def test_point_failures_surface_structured(self, server, monkeypatch):
        real = sweep_mod._simulate_point

        def fail_cdp(point):
            if point.label == "CDP":
                raise ReproError("CDP died")
            return real(point)

        monkeypatch.setattr(sweep_mod, "_simulate_point", fail_cdp)
        status, payload = fetch(server, "/sweep", data=self.BODY)
        assert status == 200
        first, second = payload["results"]
        assert first["status"] == "error"
        assert first["error"] == "ReproError"
        assert first["message"] == "CDP died"
        assert first["point"]["label"] == "CDP"
        assert "CDP" in first["describe"]
        assert second["status"] == "ok"
        assert payload["stats"]["failed"] == 1

    def test_on_error_raise_maps_to_500(self, server, monkeypatch):
        def fail_all(point):
            raise ReproError("nothing works")

        monkeypatch.setattr(sweep_mod, "_simulate_point", fail_all)
        status, payload = fetch(server, "/sweep",
                                data=dict(self.BODY, on_error="raise"))
        assert status == 500
        assert payload["status"] == "error"
        assert payload["message"] == "nothing works"

    def test_body_validation_400(self, server):
        cases = (
            {},                                              # no pairs
            dict(self.BODY, pairs=["BFSKRON"]),              # bad pair
            dict(self.BODY, pairs=[]),                       # empty pairs
            dict(self.BODY, variants=[]),                    # empty variants
            dict(self.BODY, variants=["XX"]),                # bad label
            dict(self.BODY, params={"bogus": 1}),            # bad param
            dict(self.BODY, on_error="explode"),             # bad on_error
            dict(self.BODY, bogus=1),                        # unknown key
        )
        for body in cases:
            status, payload = fetch(server, "/sweep", data=body)
            assert status == 400, body
            assert payload["error"] == "ServeError", body


class TestFigure:
    PATH = "/figure/fig11?benchmark=BFS&dataset=KRON&scale=" + SCALE

    def test_read_through_artifact_cache(self, server, monkeypatch):
        status, cold = fetch(server, self.PATH)
        assert status == 200
        assert cold["cache"] == "miss"
        data = cold["data"]
        assert data["kind"] == "threshold-sweep"
        assert data["benchmark"] == "BFS" and data["dataset"] == "KRON"
        assert data["series"] and data["thresholds"][0] == "none"
        assert cold["provenance"]["version"]
        assert cold["provenance"]["jobs"] == 1
        # Warm fetch: neither the figure builder's direct runs nor the
        # executor may fire — the artifact cache answers alone.
        monkeypatch.setattr(figures_mod, "run_variant", banned)
        ban_executors(monkeypatch, server.service)
        monkeypatch.setattr(sweep_mod, "_simulate_point", banned)
        status, warm = fetch(server, self.PATH)
        assert status == 200
        assert warm["cache"] == "hit"
        assert warm["data"] == cold["data"]

    def test_format_text_is_backward_compatible(self, server, monkeypatch):
        status, as_json = fetch(server, self.PATH)
        assert status == 200 and "text" not in as_json
        ban_executors(monkeypatch, server.service)
        status, as_text = fetch(server, self.PATH + "&format=text")
        assert status == 200
        assert as_text["cache"] == "hit"
        assert "Figure 11" in as_text["text"]
        assert "data" not in as_text
        # Every speedup the table prints appears in the structured rows.
        for label, points in as_json["data"]["series"].items():
            for value in points.values():
                assert "%.2f" % value in as_text["text"]

    def test_bad_format_400(self, server):
        assert fetch(server, self.PATH + "&format=xml")[0] == 400

    def test_unknown_param_400(self, server):
        status, payload = fetch(server, "/figure/table1?strategy=guided")
        assert status == 400
        status, payload = fetch(server, self.PATH + "&strategy=guided")
        assert status == 400

    def test_bad_strategy_400(self, server):
        assert fetch(server, "/figure/fig12?strategy=nope")[0] == 400

    def test_table1_structured_rows(self, server):
        status, payload = fetch(server, "/figure/table1?scale=" + SCALE)
        assert status == 200
        rows = payload["data"]["rows"]
        assert payload["data"]["kind"] == "table1"
        assert any(row["benchmark"] == "BFS" for row in rows)
        assert all(set(row) == {"benchmark", "dataset", "size"}
                   for row in rows)

    def test_warm_requests_bypass_the_figure_lock(self, server):
        """Warm /point and /figure hits must stay interactive while a
        slow cold figure build holds the figure lock."""
        fetch(server, POINT)
        fetch(server, self.PATH)
        with server.service._figure_lock:   # a cold build in flight
            status, point = fetch(server, POINT)
            assert status == 200 and point["cache"] == "hit"
            status, figure = fetch(server, self.PATH)
            assert status == 200 and figure["cache"] == "hit"


class TestCacheInfo:
    def test_schema_and_counters(self, server):
        fetch(server, POINT)            # miss
        fetch(server, POINT)            # hit
        status, payload = fetch(server, "/cache/info")
        assert status == 200
        assert payload["info"]["result_entries"] == 1
        assert payload["info"]["result_bytes"] > 0
        # Exactly one logical miss and one hit: the optimistic pre-check
        # must not double-count the executor's authoritative miss.
        assert payload["results"] == {"hits": 1, "misses": 1}
        assert payload["figures"] == {"hits": 0, "misses": 0}
        assert payload["executor"]["simulated"] == 1
        assert payload["jobs"] == 1
        # The scheduler block: one miss scheduled, completed, no joins.
        queue = payload["queue"]
        assert queue["workers"] == 2 and queue["max_pending"] == 64
        assert queue["submitted"] == 1 and queue["completed"] == 1
        assert queue["dedup_joins"] == 0 and queue["rejected"] == 0
        assert queue["depth"] == 0 and queue["inflight"] == 0
        assert queue["draining"] is False
        assert payload["metrics"]["series"] > 0
        assert payload["metrics"]["endpoint"] == "GET /metrics"

    def test_cacheless_service(self, tmp_path):
        srv = ServeServer(cache_dir=None)
        srv.start()
        try:
            status, info = fetch(srv, "/cache/info")
            assert status == 200
            assert info["cache_dir"] is None and info["info"] is None
            status, point = fetch(srv, POINT)
            assert status == 200
            assert point["cache"] == "miss"
            # No cache: the "second" request is a miss too.
            assert fetch(srv, POINT)[1]["cache"] == "miss"
        finally:
            srv.close()


class TestConcurrentReaders:
    """Satellite: readers hammering a warm cache see no torn reads, and
    the PR 2 stale-.tmp sweeping can run under that load without
    disturbing them or leaving droppings behind."""

    def test_concurrent_point_and_info_reads(self, server):
        warm = {"pairs": ["BFS:KRON", "SSSP:KRON"],
                "variants": ["CDP", "CDP+T"],
                "params": {"threshold": 16}, "scale": float(SCALE)}
        status, seeded = fetch(server, "/sweep", data=warm)
        assert status == 200 and seeded["stats"]["failed"] == 0
        paths, expected = [], {}
        for bench in ("BFS", "SSSP"):
            for label in ("CDP", "CDP%2BT"):
                path = ("/point?benchmark=%s&dataset=KRON&label=%s"
                        "&threshold=16&scale=%s" % (bench, label, SCALE))
                status, payload = fetch(server, path)
                assert status == 200 and payload["cache"] == "hit"
                paths.append(path)
                expected[path] = payload["result"]

        cache = server.service.cache
        cache_dir = Path(cache.cache_dir)
        (cache_dir / "stranded.tmp").write_text("x")     # PR 2 sweep bait
        errors = []

        def reader(path):
            try:
                for _ in range(5):
                    status, payload = fetch(server, path)
                    if status != 200:
                        errors.append((path, status, payload))
                    elif payload["cache"] != "hit" \
                            or payload["result"] != expected[path]:
                        errors.append((path, "torn", payload))
                    status, info = fetch(server, "/cache/info")
                    if status != 200 or info["info"]["result_entries"] < 4:
                        errors.append(("/cache/info", status, info))
            except Exception as exc:             # noqa: BLE001
                errors.append((path, "exception", repr(exc)))

        def sweeper():
            try:
                for _ in range(5):
                    cache.prune(tmp_max_age=0)
            except Exception as exc:             # noqa: BLE001
                errors.append(("prune", "exception", repr(exc)))

        threads = [threading.Thread(target=reader, args=(path,))
                   for path in paths * 2] + \
                  [threading.Thread(target=sweeper)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[:3]
        assert not list(cache_dir.glob("*.tmp")), "stale .tmp survived"
        assert not list((cache_dir / "figures").glob("*.tmp"))
        # The four warm entries themselves must have survived the sweeps.
        assert len(list(cache_dir.glob("*.json"))) == 4


class TestConcurrentMisses:
    """The tentpole contract: concurrent cold requests for one masked
    spec share exactly one simulation; distinct cold specs overlap
    across the miss workers instead of serializing."""

    DISTINCT = ["/point?benchmark=BFS&dataset=KRON&label=CDP%%2BT"
                "&threshold=%d&scale=%s" % (threshold, SCALE)
                for threshold in (8, 32)]

    def test_same_spec_runs_exactly_once(self, server, monkeypatch):
        real = sweep_mod._simulate_point
        calls, call_lock = [], threading.Lock()
        entered, gate = threading.Event(), threading.Event()

        def slow(point):
            with call_lock:
                calls.append(point.describe())
            entered.set()
            assert gate.wait(30), "test gate never opened"
            return real(point)

        monkeypatch.setattr(sweep_mod, "_simulate_point", slow)
        responses = []

        def hit_it():
            responses.append(fetch(server, POINT))

        first = threading.Thread(target=hit_it)
        first.start()
        assert entered.wait(30), "first request never reached the simulator"
        # The point is now in flight: a second identical request must
        # join it, not enqueue a duplicate.
        second = threading.Thread(target=hit_it)
        second.start()
        deadline = time.time() + 30
        while server.service.scheduler.dedup_joins < 1:
            assert time.time() < deadline, "second request never joined"
            time.sleep(0.01)
        gate.set()
        first.join(timeout=30)
        second.join(timeout=30)
        assert len(calls) == 1, calls
        assert [status for status, _ in responses] == [200, 200]
        assert responses[0][1]["result"] == responses[1][1]["result"]
        assert {payload["cache"] for _, payload in responses} == {"miss"}
        assert server.service.scheduler.dedup_joins == 1
        assert server.service.executor_stats().simulated == 1

    def test_distinct_specs_overlap(self, server, monkeypatch):
        real = sweep_mod._simulate_point
        state = {"active": 0, "peak": 0}
        lock = threading.Lock()

        def slow(point):
            with lock:
                state["active"] += 1
                state["peak"] = max(state["peak"], state["active"])
            time.sleep(0.4)
            with lock:
                state["active"] -= 1
            return real(point)

        monkeypatch.setattr(sweep_mod, "_simulate_point", slow)
        results = {}

        def hit(path):
            results[path] = fetch(server, path)

        threads = [threading.Thread(target=hit, args=(path,))
                   for path in self.DISTINCT]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        wall = time.perf_counter() - started
        assert all(status == 200 for status, _ in results.values())
        # Two 0.4s simulations on two miss workers must beat the 0.8s
        # serialized sum — i.e. they actually ran concurrently.
        assert state["peak"] >= 2, "misses never overlapped"
        assert wall < 0.75, "wall %.2fs not better than serialized" % wall


class TestBackpressure:
    def test_full_queue_is_503(self, tmp_path, monkeypatch):
        entered, gate = threading.Event(), threading.Event()
        real = sweep_mod._simulate_point

        def slow(point):
            entered.set()
            assert gate.wait(30), "test gate never opened"
            return real(point)

        monkeypatch.setattr(sweep_mod, "_simulate_point", slow)
        srv = ServeServer(cache_dir=str(tmp_path / "cache"),
                          miss_workers=1, max_pending=1)
        srv.start()
        try:
            paths = ["/point?benchmark=BFS&dataset=KRON&label=CDP%%2BT"
                     "&threshold=%d&scale=%s" % (threshold, SCALE)
                     for threshold in (4, 8, 16)]
            threads = [threading.Thread(target=fetch, args=(srv, path))
                       for path in paths[:2]]
            threads[0].start()
            assert entered.wait(30)     # worker busy on the first point
            threads[1].start()          # second point fills the queue
            deadline = time.time() + 30
            while srv.service.scheduler.stats_dict()["depth"] < 1:
                assert time.time() < deadline, "queue never filled"
                time.sleep(0.01)
            status, payload = fetch(srv, paths[2])
            assert status == 503
            assert payload["error"] == "QueueFullError"
            assert payload["retry"] is True
            assert srv.service.scheduler.rejected == 1
            gate.set()
            for thread in threads:
                thread.join(timeout=60)
            # Rejected clients retry once the queue drains.
            status, payload = fetch(srv, paths[2])
            assert status == 200
        finally:
            gate.set()
            srv.close()


class TestMetricsEndpoint:
    SAMPLE_RE = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? '
        r'(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$')

    def test_prometheus_exposition(self, server):
        from repro.harness.serve import _POINT_CACHE

        # The registry is process-global, so assert deltas, not totals.
        hits0 = _POINT_CACHE.value(state="hit")
        misses0 = _POINT_CACHE.value(state="miss")
        fetch(server, POINT)            # miss
        fetch(server, POINT)            # hit
        status, content_type, text = fetch_raw(server, "/metrics")
        assert status == 200
        assert content_type == METRICS_CONTENT_TYPE
        for series in ("repro_serve_requests_total",
                       "repro_serve_request_seconds",
                       "repro_serve_point_cache_total",
                       "repro_queue_submitted_total",
                       "repro_queue_dedup_joins_total",
                       "repro_queue_depth",
                       "repro_queue_wait_seconds",
                       "repro_sweep_points_total",
                       "repro_sweep_point_seconds",
                       "repro_cache_lookups_total"):
            assert "# TYPE %s" % series in text, series
        # Every sample line is valid Prometheus text exposition.
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert self.SAMPLE_RE.match(line), line
        assert _POINT_CACHE.value(state="hit") == hits0 + 1
        assert _POINT_CACHE.value(state="miss") == misses0 + 1
        assert 'repro_serve_point_cache_total{state="hit"}' in text
        assert 'repro_serve_point_cache_total{state="miss"}' in text

    def test_histogram_buckets_are_cumulative(self, server):
        fetch(server, POINT)
        _, _, text = fetch_raw(server, "/metrics")
        buckets = [
            float(self.SAMPLE_RE.match(line).group(2))
            for line in text.splitlines()
            if line.startswith('repro_queue_wait_seconds_bucket')]
        assert buckets, "wait histogram missing"
        assert buckets == sorted(buckets), "buckets not cumulative"

    def test_wrong_method_405(self, server):
        assert fetch(server, "/metrics", data={})[0] == 405


class TestShutdown:
    def test_post_shutdown_drains_and_stops(self, tmp_path):
        srv = ServeServer(cache_dir=str(tmp_path / "cache"))
        srv.start()
        try:
            fetch(srv, POINT)           # give the drain something real
            status, payload = fetch(srv, "/shutdown", data={})
            assert status == 200
            assert payload["status"] == "draining"
            assert "queue" in payload
            srv._thread.join(timeout=10)
            assert not srv._thread.is_alive(), "serve loop did not stop"
        finally:
            srv.close()
        # close() drained: the scheduler refuses new work afterwards.
        assert srv.service.scheduler.stats_dict()["draining"] is True

    def test_get_shutdown_405(self, server):
        assert fetch(server, "/shutdown")[0] == 405


class TestGracefulDrain:
    def test_close_waits_for_inflight_miss(self, tmp_path, monkeypatch):
        """An in-flight miss finishes (and lands in the cache) before
        close() returns — shutdown never tears a computation."""
        real = sweep_mod._simulate_point
        entered = threading.Event()

        def slow(point):
            entered.set()
            time.sleep(0.5)
            return real(point)

        monkeypatch.setattr(sweep_mod, "_simulate_point", slow)
        srv = ServeServer(cache_dir=str(tmp_path / "cache"))
        srv.start()
        response = {}

        def hit():
            response["got"] = fetch(srv, POINT)

        thread = threading.Thread(target=hit)
        thread.start()
        assert entered.wait(30)
        srv.close()                     # must drain, not abandon
        thread.join(timeout=30)
        status, payload = response["got"]
        assert status == 200 and payload["cache"] == "miss"
        assert srv.service.scheduler.completed == 1
        assert srv.service.scheduler.failed == 0


class TestPointFromQuery:
    def test_canonical_point_roundtrip(self):
        point = point_from_query({"benchmark": "BFS", "dataset": "KRON",
                                  "label": "CDP+T", "threshold": "16",
                                  "scale": SCALE})
        assert point.describe() == "BFS/KRON CDP+T [T=16] @0.08"

    def test_masking_applied(self):
        bare = point_from_query({"benchmark": "BFS", "dataset": "KRON"})
        noisy = point_from_query({"benchmark": "BFS", "dataset": "KRON",
                                  "threshold": "64", "coarsen": "8",
                                  "group_blocks": "4"})
        assert bare == noisy                 # CDP masks all of them

    def test_service_close_is_idempotent(self, tmp_path):
        service = QueryService(cache_dir=str(tmp_path / "c"))
        service.close()
        service.close()


def fetch_with_headers(server, path, headers, data=None):
    """Like :func:`fetch`, with extra request headers."""
    url = "http://%s:%d%s" % (*server.address, path)
    payload = json.dumps(data).encode() if data is not None else None
    request = urllib.request.Request(url, data=payload, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestPriorityAndDeadline:
    def test_expired_deadline_sheds_without_simulating(self, server,
                                                       monkeypatch):
        """A cold point whose deadline already passed is 504'd without a
        single simulator call, and the shed is visible in /metrics."""
        monkeypatch.setattr(sweep_mod, "_simulate_point", banned)
        status, payload = fetch_with_headers(
            server, POINT, {"X-Repro-Deadline-Ms": "0"})
        assert status == 504
        assert payload["error"] == "DeadlineExceededError"
        assert payload["retry"] is True
        assert "point" in payload
        assert server.service.scheduler.shed == 1
        assert server.service.scheduler.completed == 0
        _, _, text = fetch_raw(server, "/metrics")
        assert 'repro_queue_shed_total{reason="expired-on-submit"}' in text

    def test_warm_hit_ignores_expired_deadline(self, server, monkeypatch):
        assert fetch(server, POINT)[0] == 200        # populate
        ban_executors(monkeypatch, server.service)
        status, payload = fetch_with_headers(
            server, POINT, {"X-Repro-Deadline-Ms": "0"})
        assert status == 200
        assert payload["cache"] == "hit"
        assert server.service.scheduler.shed == 0

    def test_priority_header_accepted(self, server):
        status, payload = fetch_with_headers(
            server, POINT, {"X-Repro-Priority": "high",
                            "X-Repro-Request-Id": "req-42"})
        assert status == 200
        assert payload["cache"] == "miss"

    def test_bad_priority_is_400(self, server):
        status, payload = fetch_with_headers(
            server, POINT, {"X-Repro-Priority": "urgent"})
        assert status == 400
        assert "priority" in payload["message"]

    def test_bad_deadline_is_400(self, server):
        for bad in ("-5", "soon"):
            status, payload = fetch_with_headers(
                server, POINT, {"X-Repro-Deadline-Ms": bad})
            assert status == 400
            assert "Deadline" in payload["message"]

    def test_request_timeout_bounds_miss_waits(self, tmp_path, monkeypatch):
        """Satellite: a miss slower than --request-timeout answers a
        structured 504 with retry:true; the task still finishes and
        lands in the cache, so the retry is warm."""
        entered, gate = threading.Event(), threading.Event()
        real = sweep_mod._simulate_point

        def slow(point):
            entered.set()
            assert gate.wait(30), "test gate never opened"
            return real(point)

        monkeypatch.setattr(sweep_mod, "_simulate_point", slow)
        srv = ServeServer(cache_dir=str(tmp_path / "cache"),
                          miss_workers=1, request_timeout=0.2)
        srv.start()
        try:
            status, payload = fetch(srv, POINT)
            assert status == 504
            assert payload["error"] == "TimeoutError"
            assert payload["retry"] is True
            gate.set()
            deadline = time.time() + 30
            while srv.service.scheduler.completed < 1:
                assert time.time() < deadline, "miss never completed"
                time.sleep(0.01)
            status, payload = fetch(srv, POINT)
            assert status == 200
            assert payload["cache"] == "hit"
        finally:
            gate.set()
            srv.close()

    def test_sweep_deadline_timeout_without_request_timeout(
            self, tmp_path, monkeypatch):
        """Regression: with --request-timeout 0 (unbounded budget) a
        deadline-bounded /sweep wait that expires mid-simulation must
        answer the structured 504 retry payload — it used to format None
        ('%.3f' % None → TypeError) and fall through to a generic 500.
        The payload must also report the wait that actually expired (the
        deadline), never the request-timeout budget."""
        entered, gate = threading.Event(), threading.Event()
        real = sweep_mod._simulate_point

        def slow(point):
            entered.set()
            assert gate.wait(30), "test gate never opened"
            return real(point)

        monkeypatch.setattr(sweep_mod, "_simulate_point", slow)
        srv = ServeServer(cache_dir=str(tmp_path / "cache"),
                          miss_workers=1, request_timeout=0)
        srv.start()
        try:
            status, payload = fetch(srv, "/sweep", data={
                "pairs": ["BFS:KRON"], "variants": ["CDP+T"],
                "params": {"threshold": 16}, "scale": float(SCALE),
                "deadline_ms": 1000})
            assert status == 504
            assert payload["error"] == "TimeoutError"
            assert payload["retry"] is True
            assert "not done within" in payload["message"]
        finally:
            gate.set()
            srv.close()

    def test_timeout_payload_guards_unbounded_wait(self):
        from repro.harness.serve import _timeout_payload
        payload = _timeout_payload("sweep (3 points)", None)
        assert payload["error"] == "TimeoutError"
        assert payload["retry"] is True
        assert "sweep (3 points)" in payload["message"]

    def test_sweep_all_misses_shed_is_504(self, server, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_simulate_point", banned)
        status, payload = fetch(server, "/sweep", data={
            "pairs": ["BFS:KRON"], "variants": ["CDP", "CDP+T"],
            "params": {"threshold": 16}, "scale": float(SCALE),
            "deadline_ms": 0})
        assert status == 504
        assert payload["error"] == "DeadlineExceededError"
        assert payload["retry"] is True
        assert payload["stats"]["shed"] == 2
        assert payload["stats"]["points"] == 2
        assert len(payload["results"]) == 2
        for entry in payload["results"]:
            assert entry["status"] == "error"
            assert entry["error"] == "DeadlineExceededError"
            assert entry["retry"] is True

    def test_sweep_partial_shed_stays_200(self, server, monkeypatch):
        """Warm points answer under an expired deadline; only the cold
        remainder sheds, so the request succeeds with stats.shed set."""
        warm = fetch(server, "/sweep", data={
            "pairs": ["BFS:KRON"], "variants": ["CDP"],
            "scale": float(SCALE)})
        assert warm[0] == 200
        monkeypatch.setattr(sweep_mod, "_simulate_point", banned)
        status, payload = fetch(server, "/sweep", data={
            "pairs": ["BFS:KRON"], "variants": ["CDP", "CDP+T"],
            "params": {"threshold": 16}, "scale": float(SCALE),
            "deadline_ms": 0})
        assert status == 200
        assert payload["stats"]["hits"] == 1
        assert payload["stats"]["shed"] == 1
        assert payload["stats"]["failed"] == 0
        statuses = [entry["status"] for entry in payload["results"]]
        assert sorted(statuses) == ["error", "ok"]

    def test_sweep_body_priority_and_bad_priority(self, server):
        status, payload = fetch(server, "/sweep", data={
            "pairs": ["BFS:KRON"], "variants": ["CDP"],
            "scale": float(SCALE), "priority": "low"})
        assert status == 200
        status, payload = fetch(server, "/sweep", data={
            "pairs": ["BFS:KRON"], "variants": ["CDP"],
            "scale": float(SCALE), "priority": "whenever"})
        assert status == 400

    def test_cache_info_reports_index_and_priority_blocks(self, server):
        fetch(server, POINT)            # miss -> store
        fetch(server, POINT)            # hit -> meta bump
        status, payload = fetch(server, "/cache/info")
        assert status == 200
        index = payload["index"]
        assert index["entries"] == 1
        assert index["by_kind"]["result"]["hits"] == 1
        assert index["by_kind"]["result"]["sim_cost_seconds"] >= 0
        queue = payload["queue"]
        assert queue["by_priority"] == {}
        assert queue["shed"] == 0

    def test_healthz_reports_request_timeout(self, server):
        status, payload = fetch(server, "/healthz")
        assert status == 200
        assert payload["request_timeout"] == pytest.approx(300.0)
