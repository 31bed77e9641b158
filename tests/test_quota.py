"""Per-client quotas + API-key auth (repro.harness.quota + serve).

Covers the multi-tenant hardening contract: token-bucket admission
(refill math, burst caps, Retry-After arithmetic) and the in-flight
miss cap, per-client isolation (one tenant's storm never consumes
another's tokens), lease release on every exit path, the api-keys file
loader's fail-at-startup validation, constant-time key lookup, and the
HTTP mapping — 401 for missing/bad keys with ``/healthz``/``/metrics``
open, 429 with a ``Retry-After`` header for over-quota misses, warm
cache hits never metered (enforced structurally: the quota layer is
banned outright on the hit path) — plus bounded metric label
cardinality for client-supplied identities.
"""

import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import AuthError, QuotaExceededError, ReproError
from repro.harness.quota import (ApiKey, ApiKeyAuth, ClientQuota,
                                 METRIC_CLIENT_OTHER, QuotaManager,
                                 load_api_keys)
from repro.harness.serve import ServeServer

SCALE = "0.08"


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def manager(clock, **kwargs):
    return QuotaManager(clock=clock, **kwargs)


class TestClientQuota:
    def test_burst_defaults_to_twice_rate(self):
        assert ClientQuota(rate=5).burst == 10.0
        assert ClientQuota(rate=0.25).burst == 1.0     # floor of 1
        assert ClientQuota(rate=5, burst=3).burst == 3.0

    def test_unlimited(self):
        assert ClientQuota().unlimited
        assert not ClientQuota(rate=1).unlimited
        assert not ClientQuota(max_inflight=1).unlimited

    @pytest.mark.parametrize("bad", (
        {"rate": 0}, {"rate": -1}, {"burst": 0.5},
        {"max_inflight": 0}, {"max_inflight": -2}))
    def test_validation(self, bad):
        with pytest.raises(ReproError):
            ClientQuota(**bad)

    def test_merged_overrides_non_none_axes_only(self):
        default = ClientQuota(rate=10, burst=20, max_inflight=8)
        merged = default.merged(ClientQuota(rate=2))
        assert (merged.rate, merged.max_inflight) == (2.0, 8)
        assert default.merged(None) is default


class TestTokenBucket:
    def test_burst_then_rate_rejection_with_retry_after(self):
        clock = FakeClock()
        quotas = manager(clock, default=ClientQuota(rate=2, burst=2))
        quotas.admit("alice")
        quotas.admit("alice")
        with pytest.raises(QuotaExceededError) as info:
            quotas.admit("alice")
        assert info.value.reason == "rate"
        assert info.value.retry_after == pytest.approx(0.5)

    def test_refill_is_rate_times_elapsed_capped_at_burst(self):
        clock = FakeClock()
        quotas = manager(clock, default=ClientQuota(rate=4, burst=2))
        quotas.admit("alice")
        quotas.admit("alice")
        clock.advance(0.25)             # refills exactly one token
        quotas.admit("alice")
        with pytest.raises(QuotaExceededError):
            quotas.admit("alice")
        clock.advance(100.0)            # refill saturates at burst=2
        quotas.admit("alice")
        quotas.admit("alice")
        with pytest.raises(QuotaExceededError):
            quotas.admit("alice")

    def test_batch_cost_charged_atomically(self):
        clock = FakeClock()
        quotas = manager(clock, default=ClientQuota(rate=1, burst=4))
        with pytest.raises(QuotaExceededError) as info:
            quotas.admit("alice", cost=5)
        # Rejected whole: nothing was deducted, a cost-4 batch still fits.
        assert info.value.retry_after == pytest.approx(1.0)
        quotas.admit("alice", cost=4)

    def test_clients_are_isolated(self):
        clock = FakeClock()
        quotas = manager(clock, default=ClientQuota(rate=1, burst=1))
        quotas.admit("alice")
        with pytest.raises(QuotaExceededError):
            quotas.admit("alice")
        quotas.admit("bob")             # alice's storm spent nothing of bob's

    def test_tokens_are_rate_not_a_pool(self):
        # Releasing a lease returns the in-flight slot, never the token.
        clock = FakeClock()
        quotas = manager(clock, default=ClientQuota(rate=1, burst=1))
        lease = quotas.admit("alice")
        lease.release()
        with pytest.raises(QuotaExceededError):
            quotas.admit("alice")


class TestInflightCap:
    def test_cap_and_release(self):
        clock = FakeClock()
        quotas = manager(clock,
                         default=ClientQuota(rate=100, burst=100,
                                             max_inflight=2))
        leases = [quotas.admit("alice"), quotas.admit("alice")]
        with pytest.raises(QuotaExceededError) as info:
            quotas.admit("alice")
        assert info.value.reason == "inflight"
        assert info.value.retry_after > 0
        leases[0].release()
        assert quotas.inflight("alice") == 1
        quotas.admit("alice")

    def test_release_is_idempotent(self):
        clock = FakeClock()
        quotas = manager(clock, default=ClientQuota(max_inflight=2))
        lease = quotas.admit("alice")
        lease.release()
        lease.release()
        assert quotas.inflight("alice") == 0
        assert quotas.total_inflight() == 0

    def test_inflight_only_quota_skips_token_accounting(self):
        clock = FakeClock()
        quotas = manager(clock, default=ClientQuota(max_inflight=1))
        lease = quotas.admit("alice")
        with pytest.raises(QuotaExceededError):
            quotas.admit("alice")
        lease.release()
        quotas.admit("alice")


class TestQuotaManager:
    def test_unlimited_clients_get_the_free_lease(self):
        quotas = QuotaManager()         # all axes None
        lease = quotas.admit("anyone")
        lease.release()
        assert quotas.total_inflight() == 0
        assert quotas.stats_dict()["clients"] == {}

    def test_zero_cost_is_free(self):
        quotas = QuotaManager(default=ClientQuota(rate=1, burst=1))
        assert quotas.admit("alice", cost=0) is not None
        quotas.admit("alice", cost=1)   # the token is still there

    def test_metric_label_bounded_to_configured_clients(self):
        quotas = QuotaManager(default=ClientQuota(rate=1),
                              overrides={"alice": ClientQuota(rate=9)},
                              known=("bob",))
        assert quotas.metric_label("alice") == "alice"
        assert quotas.metric_label("bob") == "bob"
        assert quotas.metric_label("mallory-%d" % 10**9) \
            == METRIC_CLIENT_OTHER

    def test_stats_dict_shape(self):
        clock = FakeClock()
        quotas = manager(clock, default=ClientQuota(rate=2, burst=2))
        lease = quotas.admit("alice")
        stats = quotas.stats_dict()
        assert stats["default"] == {"rate": 2.0, "burst": 2.0,
                                    "max_inflight": None}
        assert stats["clients"]["alice"] == {
            "quota": {"rate": 2.0, "burst": 2.0, "max_inflight": None},
            "tokens": 1.0, "inflight": 1}
        lease.release()
        assert quotas.stats_dict()["clients"]["alice"]["inflight"] == 0


class TestLoadApiKeys:
    def test_string_and_object_entries(self, tmp_path):
        path = tmp_path / "keys.json"
        path.write_text(json.dumps({
            "k-probe": "probe",
            "k-alice": {"client": "alice", "rate": 20, "burst": 40},
            "k-batch": {"client": "batch", "max_inflight": 2}}))
        keys = load_api_keys(str(path))
        assert keys["k-probe"].client == "probe"
        assert keys["k-probe"].quota is None
        assert keys["k-alice"].quota.rate == 20.0
        assert keys["k-alice"].quota.burst == 40.0
        assert keys["k-batch"].quota.max_inflight == 2

    @pytest.mark.parametrize("payload", (
        "not json", "[]", "{}", '{"k": 42}', '{"k": {"rate": 1}}',
        '{"k": {"client": ""}}', '{"k": {"client": "a", "bogus": 1}}',
        '{"k": {"client": "a", "rate": -1}}', '{"": "a"}'))
    def test_malformed_files_fail_at_load(self, tmp_path, payload):
        path = tmp_path / "keys.json"
        path.write_text(payload)
        with pytest.raises(ReproError):
            load_api_keys(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            load_api_keys(str(tmp_path / "nope.json"))


class TestApiKeyAuth:
    def auth(self):
        return ApiKeyAuth({
            "k-alice": ApiKey("k-alice", "alice", ClientQuota(rate=5)),
            "k-alice2": ApiKey("k-alice2", "alice"),
            "k-bob": ApiKey("k-bob", "bob")})

    def test_authenticate(self):
        auth = self.auth()
        assert auth.authenticate("k-bob").client == "bob"
        for bad in ("", None, "k-alic", "k-alicee", "K-ALICE"):
            with pytest.raises(AuthError):
                auth.authenticate(bad)

    def test_clients_and_overrides(self):
        auth = self.auth()
        assert auth.clients == ["alice", "bob"]
        overrides = auth.quota_overrides()
        assert set(overrides) == {"alice"}
        assert overrides["alice"].rate == 5.0
        assert len(auth) == 3

    def test_needs_at_least_one_key(self):
        with pytest.raises(ReproError):
            ApiKeyAuth({})


# -- HTTP integration ---------------------------------------------------------

def fetch(server, path, headers=None, data=None):
    """(status, response headers, decoded JSON body)."""
    url = "http://%s:%d%s" % (*server.address, path)
    payload = json.dumps(data).encode() if data is not None else None
    try:
        with urllib.request.urlopen(
                urllib.request.Request(url, data=payload,
                                       headers=headers or {}),
                timeout=60) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def cold_point(threshold, scale=SCALE):
    return ("/point?benchmark=BFS&dataset=KRON&label=CDP%%2BT"
            "&threshold=%d&scale=%s" % (threshold, scale))


@pytest.fixture
def quota_server(tmp_path):
    quotas = QuotaManager(default=ClientQuota(rate=0.001, burst=1),
                          known=("alice", "bob"))
    srv = ServeServer(cache_dir=str(tmp_path / "cache"), quota=quotas)
    srv.start()
    yield srv
    srv.close()


@pytest.fixture
def tenant_server(tmp_path):
    """Two tenants side by side: a steady one with a generous bucket and
    a greedy one with a tight bucket and a two-miss in-flight cap."""
    quotas = QuotaManager(
        overrides={"steady": ClientQuota(rate=50, burst=100),
                   "greedy": ClientQuota(rate=1, burst=2, max_inflight=2)},
        known=("steady", "greedy"))
    srv = ServeServer(cache_dir=str(tmp_path / "cache"), miss_workers=2,
                      quota=quotas)
    srv.start()
    yield srv
    srv.close()


@pytest.fixture
def auth_server(tmp_path):
    keys = {"k-alice": ApiKey("k-alice", "alice",
                              ClientQuota(rate=0.001, burst=1)),
            "k-bob": ApiKey("k-bob", "bob")}
    auth = ApiKeyAuth(keys)
    quotas = QuotaManager(overrides=auth.quota_overrides(),
                          known=auth.clients)
    srv = ServeServer(cache_dir=str(tmp_path / "cache"), quota=quotas,
                      api_keys=auth)
    srv.start()
    yield srv
    srv.close()


class TestQuotaOverHttp:
    def test_over_quota_miss_gets_429_with_retry_after(self, quota_server):
        alice = {"X-Repro-Client": "alice"}
        status, _, payload = fetch(quota_server, cold_point(16), alice)
        assert status == 200 and payload["cache"] == "miss"
        status, headers, payload = fetch(quota_server, cold_point(32),
                                         alice)
        assert status == 429
        assert payload["error"] == "QuotaExceededError"
        assert payload["retry"] is True
        assert payload["reason"] == "rate"
        assert int(headers["Retry-After"]) >= 1

    def test_tenants_do_not_share_buckets(self, quota_server):
        status, _, _ = fetch(quota_server, cold_point(16),
                             {"X-Repro-Client": "alice"})
        assert status == 200
        status, _, _ = fetch(quota_server, cold_point(48),
                             {"X-Repro-Client": "alice"})
        assert status == 429
        # bob's bucket is untouched by alice's exhaustion
        status, _, _ = fetch(quota_server, cold_point(64),
                             {"X-Repro-Client": "bob"})
        assert status == 200

    def test_warm_hits_never_touch_the_quota_layer(self, quota_server,
                                                   monkeypatch):
        alice = {"X-Repro-Client": "alice"}
        status, _, _ = fetch(quota_server, cold_point(16), alice)
        assert status == 200

        def banned(*args, **kwargs):
            raise AssertionError("quota admission on the warm hit path")

        monkeypatch.setattr(quota_server.service.quota, "admit", banned)
        status, _, payload = fetch(quota_server, cold_point(16), alice)
        assert status == 200 and payload["cache"] == "hit"

    def test_429_leaves_nothing_queued_and_no_inflight_leak(
            self, quota_server):
        alice = {"X-Repro-Client": "alice"}
        status, _, _ = fetch(quota_server, cold_point(16), alice)
        status, _, _ = fetch(quota_server, cold_point(32), alice)
        assert status == 429
        _, _, info = fetch(quota_server, "/cache/info")
        assert info["queue"]["depth"] == 0
        for entry in info["quota"]["clients"].values():
            assert entry["inflight"] == 0

    def test_over_quota_sweep_batch_rejected_whole(self, quota_server):
        body = {"pairs": ["BFS:KRON", "SSSP:KRON"], "variants": ["CDP+T"],
                "params": {"threshold": 80}, "scale": float(SCALE)}
        status, headers, payload = fetch(
            quota_server, "/sweep", {"X-Repro-Client": "alice"}, body)
        assert status == 429 and "Retry-After" in headers
        _, _, info = fetch(quota_server, "/cache/info")
        assert info["queue"]["submitted"] == 0

    def test_health_and_metrics_surface_quota_state(self, quota_server):
        _, _, health = fetch(quota_server, "/healthz")
        assert health["quota"] is True and health["auth"] is False
        fetch(quota_server, cold_point(16), {"X-Repro-Client": "alice"})
        fetch(quota_server, cold_point(32), {"X-Repro-Client": "alice"})
        url = "http://%s:%d/metrics" % quota_server.address
        text = urllib.request.urlopen(url, timeout=60).read().decode()
        assert ('repro_quota_rejections_total{client="alice",reason="rate"}'
                in text)
        assert 'repro_quota_tokens{client="alice"}' in text

    def test_unknown_client_buckets_under_other_in_metrics(
            self, quota_server):
        evil = {"X-Repro-Client": "mallory-unbounded-identity"}
        fetch(quota_server, cold_point(96), evil)
        fetch(quota_server, cold_point(112), evil)
        url = "http://%s:%d/metrics" % quota_server.address
        text = urllib.request.urlopen(url, timeout=60).read().decode()
        assert "mallory-unbounded-identity" not in text
        assert 'repro_quota_rejections_total{client="other"' in text

    def test_two_tenants_isolated_under_concurrent_load(self, tenant_server):
        """While a greedy tenant's cold requests are throttled, a steady
        tenant's warm hits stay unthrottled and fast; afterwards every
        admitted miss has completed and every lease is released."""
        scale = "0.02"
        steady = {"X-Repro-Client": "steady"}
        greedy = {"X-Repro-Client": "greedy", "X-Repro-Priority": "low"}
        hot = [cold_point(threshold, scale) for threshold in (16, 32, 64)]
        for path in hot:
            assert fetch(tenant_server, path)[0] == 200

        def warm_hits(count, out):
            for index in range(count):
                started = time.perf_counter()
                status, _, payload = fetch(tenant_server,
                                           hot[index % len(hot)], steady)
                out.append((status, payload.get("cache"),
                             time.perf_counter() - started))

        def cold_requests(thresholds, out):
            # Distinct specs: no answer can be a warm hit, so each one
            # needs a token and the 12 requests outrun burst 2 + 1/s.
            for threshold in thresholds:
                status, headers, _ = fetch(
                    tenant_server, cold_point(threshold, scale), greedy)
                out.append((status, headers.get("Retry-After")))

        unloaded = []
        warm_hits(15, unloaded)
        assert all(answer[:2] == (200, "hit") for answer in unloaded)
        unloaded_p50 = statistics.median(answer[2] for answer in unloaded)

        loaded, throttled = [], []
        threads = [threading.Thread(target=warm_hits, args=(60, loaded))]
        threads += [threading.Thread(target=cold_requests,
                                     args=(range(300 + offset, 312, 3),
                                           throttled))
                    for offset in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        assert len(loaded) == 60 and len(throttled) == 12
        assert all(answer[:2] == (200, "hit") for answer in loaded)
        rejected = [answer for answer in throttled if answer[0] == 429]
        assert rejected, throttled
        assert all(retry_after is not None for _, retry_after in rejected)
        assert {status for status, _ in throttled} <= {200, 429}
        loaded_p50 = statistics.median(answer[2] for answer in loaded)
        assert loaded_p50 <= max(20 * unloaded_p50, 0.25), \
            (loaded_p50, unloaded_p50)

        _, _, info = fetch(tenant_server, "/cache/info")
        queue = info["queue"]
        assert queue["submitted"] == queue["completed"], queue
        assert queue["shed"] == queue["depth"] == queue["inflight"] == 0
        for entry in info["quota"]["clients"].values():
            assert entry["inflight"] == 0


class TestAuthOverHttp:
    def test_401_without_key_except_open_routes(self, auth_server):
        for path in ("/cache/info", cold_point(16)):
            status, _, payload = fetch(auth_server, path)
            assert status == 401
            assert payload["error"] == "AuthError"
        assert fetch(auth_server, "/healthz")[0] == 200
        url = "http://%s:%d/metrics" % auth_server.address
        assert urllib.request.urlopen(url, timeout=60).status == 200

    def test_valid_key_and_bearer_fallback(self, auth_server):
        assert fetch(auth_server, "/cache/info",
                     {"X-Repro-Api-Key": "k-bob"})[0] == 200
        assert fetch(auth_server, "/cache/info",
                     {"Authorization": "Bearer k-bob"})[0] == 200
        assert fetch(auth_server, "/cache/info",
                     {"X-Repro-Api-Key": "wrong"})[0] == 401

    def test_key_identity_feeds_the_quota_layer(self, auth_server):
        # alice's key carries a 1-burst quota; her identity comes from
        # the key, not any header she sends.
        key = {"X-Repro-Api-Key": "k-alice",
               "X-Repro-Client": "someone-else"}
        status, _, _ = fetch(auth_server, cold_point(16), key)
        assert status == 200
        status, _, payload = fetch(auth_server, cold_point(32), key)
        assert status == 429
        _, _, info = fetch(auth_server, "/cache/info",
                           {"X-Repro-Api-Key": "k-bob"})
        assert "alice" in info["quota"]["clients"]
        assert "someone-else" not in info["quota"]["clients"]

    def test_unquotad_key_is_not_throttled(self, auth_server):
        bob = {"X-Repro-Api-Key": "k-bob"}
        for threshold in (200, 208):
            status, _, _ = fetch(auth_server, cold_point(threshold), bob)
            assert status == 200
