#!/usr/bin/env python
"""The HTTP query service, end to end: start, query cold, query warm.

Starts `repro serve` in-process on an ephemeral port, issues the same
`/point` query cold (miss path: the sweep engine simulates and fills the
cache) and warm (hit path: answered from `ResultCache` without touching
the simulator), fetches a figure through the read-through artifact
cache, and prints the latency of each request — the point of the serving
path is the cold/warm gap.

The same service is started from the shell with
`python -m repro serve --port 8070 --cache-dir .repro-cache`; endpoint
reference and ops runbook in docs/serving.md.

Run:  python examples/query_service.py [scale]
      python examples/query_service.py 0.08
"""

import json
import sys
import tempfile
import threading
import time
import urllib.request

from repro.harness.serve import ServeServer


def fetch(base, path, data=None):
    """One JSON request; returns (payload, seconds)."""
    body = json.dumps(data).encode() if data is not None else None
    started = time.perf_counter()
    with urllib.request.urlopen(urllib.request.Request(base + path,
                                                       data=body),
                                timeout=300) as resp:
        payload = json.loads(resp.read())
    return payload, time.perf_counter() - started


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.08
    cache_dir = tempfile.mkdtemp(prefix="repro-serve-")
    server = ServeServer(cache_dir=cache_dir)
    host, port = server.start()
    base = "http://%s:%d" % (host, port)
    print("service up at %s (cache: %s)\n" % (base, cache_dir))

    health, elapsed = fetch(base, "/healthz")
    print("GET /healthz              %7.1f ms   jobs=%d"
          % (elapsed * 1e3, health["jobs"]))

    point = ("/point?benchmark=BFS&dataset=KRON&label=CDP%%2BT"
             "&threshold=16&scale=%g" % scale)
    cold, cold_s = fetch(base, point)
    print("GET /point (cold)         %7.1f ms   cache=%-4s cycles=%d"
          % (cold_s * 1e3, cold["cache"], cold["result"]["total_time"]))

    warm, warm_s = fetch(base, point)
    print("GET /point (warm)         %7.1f ms   cache=%-4s cycles=%d"
          % (warm_s * 1e3, warm["cache"], warm["result"]["total_time"]))
    assert warm["result"] == cold["result"]

    grid = {"pairs": ["BFS:KRON", "SSSP:KRON"],
            "variants": ["CDP", "CDP+T"],
            "params": {"threshold": 16}, "scale": scale}
    sweep, sweep_s = fetch(base, "/sweep", data=grid)
    print("POST /sweep (4 points)    %7.1f ms   %s"
          % (sweep_s * 1e3, sweep["stats"]))

    figure = "/figure/fig11?benchmark=BFS&dataset=KRON&scale=%g" % scale
    _, fig_cold_s = fetch(base, figure)
    fig, fig_warm_s = fetch(base, figure)
    print("GET /figure/fig11 (cold)  %7.1f ms" % (fig_cold_s * 1e3))
    print("GET /figure/fig11 (warm)  %7.1f ms   cache=%s"
          % (fig_warm_s * 1e3, fig["cache"]))

    # Two concurrent cold requests for one fresh spec: the scheduler
    # dedups them into a single simulation (docs/serving.md).
    dedup = point.replace("threshold=16", "threshold=64")
    outcomes = []

    def cold_hit():
        outcomes.append(fetch(base, dedup))

    threads = [threading.Thread(target=cold_hit) for _ in range(2)]
    dedup_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    dedup_s = time.perf_counter() - dedup_started
    assert outcomes[0][0]["result"] == outcomes[1][0]["result"]

    info, _ = fetch(base, "/cache/info")
    print("2x GET /point (same cold) %7.1f ms   simulated once, "
          "%d dedup join(s)" % (dedup_s * 1e3,
                                info["queue"]["dedup_joins"]))

    with urllib.request.urlopen(base + "/metrics", timeout=60) as resp:
        series = sum(1 for line in resp.read().decode().splitlines()
                     if line and not line.startswith("#"))
    print("GET /metrics              %7d Prometheus samples" % series)

    print("\ncache after the session: %d result entries, %d figure "
          "artifacts (%d bytes)"
          % (info["info"]["result_entries"],
             info["info"]["artifact_entries"],
             info["info"]["total_bytes"]))
    print("speedup warm over cold: %.0fx on /point, %.0fx on /figure"
          % (cold_s / max(warm_s, 1e-9),
             fig_cold_s / max(fig_warm_s, 1e-9)))
    server.close()


if __name__ == "__main__":
    main()
