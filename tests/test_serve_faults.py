"""Fault injection against a live ``repro serve`` (chaos satellite).

The serving tier's failure contract, exercised end to end over HTTP:
an executor that crashes mid-``/point`` resolves the waiter with a
structured ``PointFailure`` 500 (never a hang, never a torn response),
a simulator that fails every point of a ``/sweep`` surfaces per-point
error entries under the ``on_error="continue"`` contract, the quota
layer's in-flight leases are released on every failure path (the cap
returns to zero, the tenant is not locked out by its own failed
requests), and the server still drains cleanly afterwards —
``submitted == completed``, nothing queued, nothing in flight.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.harness import sweep as sweep_mod
from repro.harness.quota import ClientQuota, QuotaManager
from repro.harness.serve import ServeServer

SCALE = "0.08"


def fetch(server, path, headers=None, data=None):
    url = "http://%s:%d%s" % (*server.address, path)
    payload = json.dumps(data).encode() if data is not None else None
    try:
        with urllib.request.urlopen(
                urllib.request.Request(url, data=payload,
                                       headers=headers or {}),
                timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def cold_point(threshold):
    return ("/point?benchmark=BFS&dataset=KRON&label=CDP%%2BT"
            "&threshold=%d&scale=%s" % (threshold, SCALE))


def crash(*args, **kwargs):
    raise RuntimeError("injected crash")


def make_quota():
    """Tight in-flight cap, loose rate: a leaked lease would lock the
    tenant out after two requests, which is exactly what the leak
    assertions watch for."""
    return QuotaManager(default=ClientQuota(rate=1000, burst=1000,
                                            max_inflight=2),
                        known=("alice",))


@pytest.fixture
def server(tmp_path):
    srv = ServeServer(cache_dir=str(tmp_path / "cache"),
                      quota=make_quota())
    srv.start()
    yield srv
    srv.close()


class TestExecutorCrashMidPoint:
    def crash_executors(self, server):
        for executor in server.service.miss_executors:
            executor.run_one = crash

    def test_structured_500_not_a_hang(self, server):
        self.crash_executors(server)
        status, payload = fetch(server, cold_point(16),
                                {"X-Repro-Client": "alice"})
        assert status == 500
        assert payload["status"] == "error"
        assert payload["error"] == "RuntimeError"
        assert "injected crash" in payload["message"]
        assert payload["point"]["benchmark"] == "BFS"

    def test_no_quota_lease_leak_on_crash(self, server):
        self.crash_executors(server)
        alice = {"X-Repro-Client": "alice"}
        # Past the max_inflight=2 cap if any crash leaked its lease.
        for threshold in (16, 24, 32, 40):
            status, payload = fetch(server, cold_point(threshold), alice)
            assert status == 500, payload
        _, info = fetch(server, "/cache/info")
        assert info["quota"]["clients"]["alice"]["inflight"] == 0

    def test_concurrent_waiters_all_resolve(self, server):
        self.crash_executors(server)
        statuses = []

        def one(threshold):
            # One identity per waiter: three requests sharing one would
            # meet the fixture's max_inflight=2 cap, not the crash.
            status, _ = fetch(server, cold_point(threshold),
                              {"X-Repro-Client": "waiter-%d" % threshold})
            statuses.append(status)

        threads = [threading.Thread(target=one, args=(t,))
                   for t in (16, 24, 32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == [500, 500, 500]

    def test_drains_clean_after_crashes(self, server):
        self.crash_executors(server)
        fetch(server, cold_point(16), {"X-Repro-Client": "alice"})
        _, info = fetch(server, "/cache/info")
        queue = info["queue"]
        assert queue["depth"] == 0 and queue["inflight"] == 0
        assert queue["submitted"] == queue["completed"]
        server.close()                   # graceful drain must not hang
        assert server.service.scheduler.stats_dict()["draining"]


class TestSimulatorFailsMidSweep:
    @pytest.fixture(autouse=True)
    def failing_simulator(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_simulate_point", crash)

    def test_sweep_surfaces_point_failures(self, server):
        body = {"pairs": ["BFS:KRON", "SSSP:KRON"], "variants": ["CDP+T"],
                "params": {"threshold": 16}, "scale": float(SCALE)}
        status, payload = fetch(server, "/sweep",
                                {"X-Repro-Client": "alice"}, body)
        assert status == 200             # on_error=continue: per-point
        assert payload["stats"]["failed"] == 2
        for entry in payload["results"]:
            assert entry["status"] == "error"
            assert entry["error"] == "RuntimeError"
            assert "injected crash" in entry["message"]
            assert entry["point"]["dataset"] == "KRON"

    def test_no_lease_leak_and_clean_drain(self, server):
        body = {"pairs": ["BFS:KRON"], "variants": ["CDP", "CDP+T"],
                "params": {"threshold": 24}, "scale": float(SCALE)}
        alice = {"X-Repro-Client": "alice"}
        for _ in range(3):               # 2 misses each: cap would bite
            status, payload = fetch(server, "/sweep", alice, body)
            assert status == 200, payload
            assert payload["stats"]["failed"] == 2
        _, info = fetch(server, "/cache/info")
        assert info["quota"]["clients"]["alice"]["inflight"] == 0
        queue = info["queue"]
        assert queue["submitted"] == queue["completed"]
        assert queue["depth"] == 0 and queue["inflight"] == 0
