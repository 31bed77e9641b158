"""The ``serve-mixed`` workload: open-loop Poisson ``GET /point`` traffic
against ``repro serve`` running in its own process.

Set-up is what an operator does: pre-warm a result cache with a sweep
over the hot pool (as ``repro sweep --cache-dir`` would), start ``repro
serve`` on it, wait for ``/healthz``, and send one request of each kind
so that lazy start-up work is done before the window. The load generator
is this one process with at most ``nproc`` sender threads, each with one
connection open at a time. Every request has a due time from a seeded
Poisson schedule and its latency is timed from that due time, so a
stalled sender charges its wait to the requests queued behind it.

Times are in reference-host units, as in the sweeps, but the server is
another process that no probe on this thread can follow: a probe process
(``hostprobe.py``) samples the host about every 50 ms beside the set-up
and beside the window, and scales ``setup_s`` and the latencies.

Most requests are warm hits on the hot pool; the rest are specs no
earlier request used, which queue, simulate, write a blob and insert an
index row. Every hit is compared with a ``run_variant`` result computed
in this process, and a seeded sample of the cold specs is recomputed
after the window and compared too.
"""

import http.client
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
import urllib.parse

from repro.benchmarks import FIG9_PAIRS, get_benchmark
from repro.engine.cache import KERNEL_CACHE
from repro.harness.cache import ResultCache
from repro.harness.runner import run_variant
from repro.harness.sweep import SweepExecutor, SweepPoint
from repro.harness.variants import TuningParams

from tracing import EXECUTOR_COUNTS, LAYER_SECONDS, add_rates
from util import (SRC, WORK, BenchError, calibrate, check_evidence, digest,
                  host_scale, median, parse_prometheus, peak_rss_mb,
                  percentile, prom_total, work_dir)

HERE = os.path.dirname(os.path.abspath(__file__))

SIZES = {
    "full": {"scale": 0.25, "hot_pairs": FIG9_PAIRS, "rate": 100.0,
             "miss_fraction": 0.03},
    "smoke": {"scale": 0.05, "hot_pairs": FIG9_PAIRS[:3], "rate": 20.0,
              "miss_fraction": 0.2},
}
#: The hot pool: every pair's CDP+T point at one threshold.
HOT_LABEL = "CDP+T"
HOT_THRESHOLD = 16
#: Cold specs are CDP+T points of one pair with a threshold no earlier
#: request used. All of these thresholds lie above the pair's largest
#: child launch, so every miss does the same simulated work and the miss
#: latency does not depend on which thresholds the seed drew.
MISS_PAIR = ("SSSP", "KRON")
MISS_THRESHOLDS = (1 << 20, 1 << 30)
MISS_WORKERS = 2
#: Per-client quota: misses take the admission path, far below refusal.
QUOTA_RPS = 100
#: Sender threads of the load generator (capped by nproc).
CONNECTIONS = min(4, os.cpu_count() or 1)
#: Cold specs recomputed in-process after the window.
RECHECKS = 3
SETUP_REPEATS = 3
HTTP_TIMEOUT = 60


class HostProbe:
    """``hostprobe.py`` running beside the server for the ``with`` block;
    :attr:`samples` holds its probe times afterwards."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "hostprobe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc_info):
        out, _ = self.proc.communicate("", timeout=60)
        self.samples = json.loads(out) if self.proc.returncode == 0 else []
        if not self.samples and exc_info[0] is None:
            raise BenchError("the host probe exited with %s"
                             % self.proc.returncode)


def hot_pool(config):
    return [SweepPoint(bench, dataset, HOT_LABEL,
                       TuningParams(threshold=HOT_THRESHOLD),
                       scale=config["scale"])
            for bench, dataset in config["hot_pairs"]]


def make_schedule(seed, seconds, config, hot):
    """``[(due_s, kind, point)]``: Poisson arrivals at the offered rate.
    Every ``1 / miss_fraction``-th arrival, from a seeded phase, is a
    never-seen cold spec; the rest are hits on random hot points.

    Spacing the misses evenly rather than drawing each one keeps their
    count fixed and stops two from landing together, which would make
    the hit tail depend on how the seed happened to cluster them.
    """
    rng = random.Random(seed)
    phase = rng.random()
    schedule, used, due = [], set(), 0.0
    while True:
        due += rng.expovariate(config["rate"])
        if due >= seconds:
            return schedule
        k = len(schedule)
        fraction = config["miss_fraction"]
        if int((k + 1) * fraction + phase) > int(k * fraction + phase):
            threshold = rng.randrange(*MISS_THRESHOLDS)
            while threshold in used:
                threshold = rng.randrange(*MISS_THRESHOLDS)
            used.add(threshold)
            schedule.append((due, "miss", miss_point(threshold, config)))
        else:
            schedule.append((due, "hit", hot[rng.randrange(len(hot))]))


def miss_point(threshold, config):
    return SweepPoint(MISS_PAIR[0], MISS_PAIR[1], HOT_LABEL,
                      TuningParams(threshold=threshold),
                      scale=config["scale"])


def point_path(point):
    query = {"benchmark": point.benchmark, "dataset": point.dataset,
             "label": point.label, "scale": repr(point.scale),
             "threshold": point.params.threshold}
    return "/point?" + urllib.parse.urlencode(query)


def reference(point):
    """The point's RunResult computed in this process."""
    bench = get_benchmark(point.benchmark)
    data = bench.build_dataset(point.dataset, point.scale)
    return run_variant(bench, data, point.label, point.params,
                       point.device_config).to_dict()


class Server:
    """One ``repro serve`` process. Its stdout (one line per request) goes
    to a log file: a pipe nobody reads fills up and hangs the server."""

    def __init__(self, cache_dir, span_dump=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        if span_dump is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                    span_dump]
        argv += ["serve", "--port", "0", "--cache-dir", cache_dir,
                 "--miss-workers", str(MISS_WORKERS),
                 "--quota-rps", str(QUOTA_RPS)]
        self.log_path = cache_dir + ".log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(argv, stdout=self._log,
                                     stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL, cwd=WORK,
                                     env=env)
        try:
            self.address = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _log_text(self):
        with open(self.log_path, "rb") as handle:
            return handle.read().decode("utf-8", "replace")

    def _wait_listening(self, timeout=60):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self._log_text()
            match = re.search(r"listening on http://([0-9.]+):(\d+)/", text)
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise BenchError("repro serve exited with %s: %s"
                                 % (self.proc.returncode, text[-2000:]))
            time.sleep(0.01)
        raise BenchError("repro serve did not start in %ds" % timeout)

    def request(self, method, path):
        conn = http.client.HTTPConnection(*self.address, timeout=HTTP_TIMEOUT)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def scrape(self):
        """(/metrics samples, /cache/info payload)."""
        status, text = self.request("GET", "/metrics")
        info_status, info = self.request("GET", "/cache/info")
        if status != 200 or info_status != 200:
            raise BenchError("metrics scrape failed: %s %s"
                             % (status, info_status))
        return parse_prometheus(text.decode("utf-8")), json.loads(info)

    def stop(self):
        """``POST /shutdown`` (the graceful drain), then wait for exit."""
        if self.proc.poll() is None:
            try:
                self.request("POST", "/shutdown")
            except (OSError, http.client.HTTPException, AttributeError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self._log.close()


def setup_once(hot, config, span_dump=None):
    """Pre-warm a fresh cache with the hot pool, start a server on it,
    wait until it answers ``/healthz``, then ask for one cold spec and
    every hot point once so that the server's lazy imports and the miss
    pair's dataset build happen before the window. Returns (server,
    cache_dir)."""
    cache_dir = work_dir("serve-cache-")
    KERNEL_CACHE.clear()
    cache = ResultCache(cache_dir)
    with SweepExecutor(jobs=1, cache=cache) as executor:
        executor.run(hot)
    cache.index.close()
    server = Server(cache_dir, span_dump)
    # The schedule draws thresholds below MISS_THRESHOLDS[1], so this
    # cold spec never recurs in the window.
    warmup = [miss_point(MISS_THRESHOLDS[1], config)] + hot
    for path in ["/healthz"] + [point_path(p) for p in warmup]:
        status, _ = server.request("GET", path)
        if status != 200:
            server.stop()
            raise BenchError("%s answered %s during set-up" % (path, status))
    return server, cache_dir


def teardown(server, cache_dir):
    server.stop()
    shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        os.remove(server.log_path)
    except OSError:
        pass


def drive_load(address, schedule):
    """Send every scheduled request at its due time from CONNECTIONS
    sender threads, one connection per request. Returns
    ([(status, body, late_s, latency_s)], seconds from the first due time
    to the last answer).

    Connections are not kept alive: ``repro serve`` writes a response's
    headers and body in two sends, and on a reused connection the body
    waits for the client's delayed ACK (Nagle), about 40 ms per request.
    That stall would cap two connections near 45 requests/s and hide
    every other serve-path cost.
    """
    paths = [point_path(point) for _, _, point in schedule]
    outcomes = [None] * len(schedule)
    tickets = itertools.count()
    origin = time.perf_counter() + 0.05

    def worker():
        while True:
            index = next(tickets)
            if index >= len(schedule):
                return
            due = origin + schedule[index][0]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            conn = http.client.HTTPConnection(*address, timeout=HTTP_TIMEOUT)
            try:
                conn.request("GET", paths[index],
                             headers={"Connection": "close"})
                response = conn.getresponse()
                status, body = response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                status, body = None, repr(exc).encode("utf-8")
            finally:
                conn.close()
            outcomes[index] = (status, body, sent - due,
                               time.perf_counter() - due)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, time.perf_counter() - origin


def run_phase(server, schedule, hot_refs, seed):
    """Drive the schedule against *server* and check every answer."""
    before = server.scrape()
    outcomes, elapsed = drive_load(server.address, schedule)
    after = server.scrape()
    rss_mb = peak_rss_mb(server.proc.pid)
    hit_ms, miss_ms, late_ms, results, misses = [], [], [], [], []
    failed = mismatches = 0
    for (_, kind, point), (status, body, late, latency) in zip(schedule,
                                                              outcomes):
        late_ms.append(late * 1e3)
        if status != 200:
            print("FAIL: %s -> %s %s" % (point.describe(), status,
                                         body[:200]))
            failed += 1
            results.append(None)
            continue
        payload = json.loads(body)
        results.append(payload["result"])
        if kind == "hit":
            hit_ms.append(latency * 1e3)
            if payload["result"] != hot_refs[point.benchmark,
                                             point.dataset]:
                print("FAIL: hit %s differs from its reference"
                      % point.describe())
                mismatches += 1
        else:
            miss_ms.append(latency * 1e3)
            misses.append((point, payload))
            if payload.get("cache") != "miss":
                print("FAIL: cold spec %s was answered as a %s"
                      % (point.describe(), payload.get("cache")))
                failed += 1
    check_started = time.perf_counter()
    rechecks = random.Random(seed).sample(misses, min(RECHECKS, len(misses)))
    for point, payload in rechecks:
        if reference(point) != payload["result"]:
            print("FAIL: cold spec %s differs from its recomputation"
                  % point.describe())
            mismatches += 1
    check_s = time.perf_counter() - check_started
    answered = [r for r in results if r is not None]
    return {
        "failed": failed + mismatches, "mismatches": mismatches,
        "attempted": len(schedule) + len(rechecks),
        "elapsed": elapsed, "ok": len(answered), "rss_mb": rss_mb,
        "hit_ms": hit_ms, "miss_ms": miss_ms, "late_ms": late_ms,
        "check_s": check_s, "before": before, "after": after,
        "counters": {
            "digest": digest(results),
            "sim.total_cycles": sum(r["total_time"] for r in answered),
            "sim.device_launches": sum(r["device_launches"]
                                       for r in answered),
            "engine.cache.misses": int(_delta(
                before, after, "repro_codegen_cache_lookups_total",
                outcome="miss")),
        },
    }


def _delta(before, after, name, **labels):
    return prom_total(after[0], name, **labels) \
        - prom_total(before[0], name, **labels)


def _mean_delta(before, after, name, **labels):
    count = _delta(before, after, name + "_count", **labels)
    return _delta(before, after, name + "_sum", **labels) / count \
        if count else 0.0


def _queue_delta(before, after, field):
    return after[1]["queue"][field] - before[1]["queue"][field]


def run(workload, seed, seconds, trace, size, import_s):
    """Run serve-mixed; returns (metrics, attempted, failed)."""
    config = SIZES[size]
    calib_start = calibrate()
    hot = hot_pool(config)
    if trace:
        return _traced(config, hot, seed, seconds, size, calib_start)
    setup_times = []
    repeats = 1 if size == "smoke" else SETUP_REPEATS
    with HostProbe() as setup_probe:
        for attempt in range(repeats):
            started = time.perf_counter()
            server, cache_dir = setup_once(hot, config)
            setup_times.append(time.perf_counter() - started)
            if attempt < repeats - 1:
                teardown(server, cache_dir)
    setup_s = import_s + median(setup_times)
    try:
        hot_refs = {(p.benchmark, p.dataset): reference(p) for p in hot}
        schedule = make_schedule(seed, seconds, config, hot)
        with HostProbe() as window_probe:
            phase = run_phase(server, schedule, hot_refs, seed)
    finally:
        teardown(server, cache_dir)
    calib_end = calibrate()
    scale = host_scale(window_probe.samples)
    failed = phase["failed"] + _evidence_failures(size, seed, seconds,
                                                  phase["counters"])
    print("serve-mixed: %d requests (%d hits, %d misses) at %.0f/s "
          "offered over %d connections; host probe %.3fs -> %.3fs, scales "
          "%.3f set-up %.3f window; raw: setup %.3fs, hit p50 %.3f ms, "
          "p99 %.2f ms, miss p50 %.2f ms; exact counters %s"
          % (len(schedule), len(phase["hit_ms"]), len(phase["miss_ms"]),
             config["rate"], CONNECTIONS, calib_start, calib_end,
             host_scale(setup_probe.samples), scale, setup_s,
             median(phase["hit_ms"]), percentile(phase["hit_ms"], 99),
             median(phase["miss_ms"]), phase["counters"]))
    metrics = {
        "setup_s": setup_s * host_scale(setup_probe.samples),
        "points_per_s": phase["ok"] / phase["elapsed"],
        "peak_rss_mb": phase["rss_mb"],
        "hit_p50_ms": median(phase["hit_ms"]) * scale,
        "hit_p99_ms": percentile(phase["hit_ms"], 99) * scale,
        "miss_p50_ms": median(phase["miss_ms"]) * scale,
    }
    return metrics, phase["attempted"], failed


def _evidence_failures(size, seed, seconds, counters):
    differing = check_evidence("serve-mixed/%s/seed=%d/window=%r"
                               % (size, seed, float(seconds)), counters)
    for name in differing:
        print("FAIL: %s differs from an earlier run with seed %d"
              % (name, seed))
    return len(differing)


def _traced(config, hot, seed, seconds, size, calib_start):
    """Half the window against a stock server, half against one with
    spans installed (``serve_traced.py``), on the same schedule; the two
    must return identical results."""
    window = seconds / 2.0
    schedule = make_schedule(seed, window, config, hot)
    hot_refs = {(p.benchmark, p.dataset): reference(p) for p in hot}
    phases = []
    span_dump = os.path.join(WORK, "serve-spans.json")
    for dump in (None, span_dump):
        server, cache_dir = setup_once(hot, config, dump)
        try:
            phases.append(run_phase(server, schedule, hot_refs, seed))
        finally:
            teardown(server, cache_dir)
    untraced, traced = phases
    with open(span_dump) as handle:
        spans = json.load(handle)
    failed = untraced["failed"] + traced["failed"]
    if traced["counters"] != untraced["counters"]:
        print("FAIL: traced and untraced servers answered differently")
        failed += 1
    counts = spans["counts"]
    failed += _evidence_failures(size, seed, window, dict(
        traced["counters"],
        **{name: counts.get(name, 0) for name in EXECUTOR_COUNTS}))
    before, after = traced["before"], traced["after"]
    seconds_in = spans["seconds"]

    def point_mean(phase):
        return _mean_delta(phase["before"], phase["after"],
                           "repro_sweep_point_seconds")

    hits = after[1]["results"]["hits"] - before[1]["results"]["hits"]
    lookups = hits + after[1]["results"]["misses"] \
        - before[1]["results"]["misses"]
    metrics = {name: seconds_in.get(span, 0.0)
               for name, span in LAYER_SECONDS.items()}
    metrics.update({
        "harness.sweep.self_s":
            spans["self_seconds"].get("harness.sweep.run", 0.0),
        # The server checks no outputs; the recomputed cold specs do.
        "harness.runner.check_s": traced["check_s"],
        "harness.runner.mismatches": traced["mismatches"],
        "engine.cache.hits": _delta(before, after,
                                    "repro_codegen_cache_lookups_total",
                                    outcome="hit"),
        "engine.cache.misses": traced["counters"]["engine.cache.misses"],
        "sim.total_cycles": counts.get("sim.total_cycles", 0),
        "sim.device_launches": counts.get("sim.device_launches", 0),
        "harness.serve.point_s_mean": _mean_delta(
            before, after, "repro_serve_request_seconds", route="/point"),
        "harness.queue.wait_s_mean": _mean_delta(before, after,
                                                 "repro_queue_wait_seconds"),
        "harness.queue.submitted": _queue_delta(before, after, "submitted"),
        "harness.queue.dedup_joins": _queue_delta(before, after,
                                                  "dedup_joins"),
        "harness.queue.rejected": _queue_delta(before, after, "rejected"),
        "harness.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "harness.index.ops": _delta(before, after,
                                    "repro_cache_index_ops_total"),
        "harness.index.errors": _delta(before, after,
                                       "repro_cache_index_errors_total"),
        "harness.sweep.point_s_mean": point_mean(traced),
        "loadgen.late_ms_p99": percentile(traced["late_ms"], 99),
        "loadgen.achieved_rps": len(schedule) / traced["elapsed"],
        "host.calib_s": (calib_start + calibrate()) / 2,
        "trace.overhead_frac": (point_mean(traced)
                                / max(point_mean(untraced), 1e-12) - 1.0),
    })
    for name in EXECUTOR_COUNTS + ("engine.codegen.source_bytes",):
        metrics[name] = counts.get(name, 0)
    add_rates(metrics)
    print("serve-mixed traced: %d requests per phase; server-side miss "
          "point %.1f ms untraced, %.1f ms traced; hit p50 %.2f ms / %.2f "
          "ms; miss p50 %.1f ms / %.1f ms"
          % (len(schedule), point_mean(untraced) * 1e3,
             point_mean(traced) * 1e3, median(untraced["hit_ms"]),
             median(traced["hit_ms"]), median(untraced["miss_ms"]),
             median(traced["miss_ms"])))
    return metrics, untraced["attempted"] + traced["attempted"], failed
