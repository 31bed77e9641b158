"""The sweep workloads, ``fig9-cdp`` and ``tune-tca``.

Both drive ``SweepExecutor(jobs=1).run`` — the entry point behind
``repro sweep`` and ``repro figure`` — over a fresh ``ResultCache`` and a
cold compiled-kernel cache in every pass. Points run one per ``run``
call, so each cold point's latency is observable. After each cold point,
seeded earlier points of the pass are asked for again from the cache,
which is how a repeated ``repro sweep`` is answered; those calls time
warm hits.

Points are generated here from the seed; the program only sees them.
Both workloads keep pair-major order (a pair's points run back to back),
as the figure drivers do, so the sweep engine's dataset memo behaves as
it does for users. Every seed runs the same point set in its own order,
so two seeds differ only in order and in host noise.

Every time reported is in reference-host seconds (:func:`util.host_scale`):
a short probe runs after each cold point and its warm lookups, which
scales those latencies, and all probes of a pass scale its throughput.
Raw figures are printed too.
"""

import os
import random
import shutil
import time

from repro.benchmarks import FIG9_PAIRS, get_benchmark
from repro.engine.cache import KERNEL_CACHE
from repro.harness.cache import ResultCache
from repro.harness.metrics import REGISTRY
from repro.harness.runner import run_variant
from repro.harness.sweep import PointFailure, SweepExecutor, SweepPoint
from repro.harness.tuning import threshold_candidates
from repro.harness.variants import (ALL_GRANULARITIES, KLAP_GRANULARITIES,
                                    TuningParams, mask_params)

from tracing import EXECUTOR_COUNTS, LAYER_SECONDS, Tracer, add_rates
from util import (WORK, calibrate, check_evidence, digest, host_scale,
                  median, parse_prometheus, peak_rss_mb, percentile, probe,
                  prom_total, work_dir)

#: Sizes per workload. ``smoke`` runs every code path in seconds.
SIZES = {
    "fig9-cdp": {"full": {"scale": 1.0, "pairs": FIG9_PAIRS},
                 "smoke": {"scale": 0.05, "pairs": FIG9_PAIRS[:2]}},
    "tune-tca": {"full": {"scale": 0.25, "pairs": FIG9_PAIRS},
                 "smoke": {"scale": 0.05, "pairs": FIG9_PAIRS[:2]}},
}

FIG9_LABELS = ("No CDP", "CDP")
#: The guided tuner's labels (Sec. VIII-C), in grid order within a pair.
TUNE_LABELS = ("CDP+T", "KLAP (CDP+A)", "CDP+T+C+A")
#: tune-tca runs every TUNE_STRIDE-th point of the 264-point grid in
#: grid order, which keeps the label mix: 66 points, about 10 s per pass
#: at scale 0.25, so a run holds several passes.
TUNE_STRIDE = 4
#: Warm lookups after each cold point (the hit samples).
WARM_PER_POINT = 40
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 5


def build_datasets(pairs, scale):
    """{(benchmark, dataset): (bench, data)} for every pair."""
    built = {}
    for bench_name, dataset_name in pairs:
        bench = get_benchmark(bench_name)
        built[(bench_name, dataset_name)] = (
            bench, bench.build_dataset(dataset_name, scale))
    return built


def tune_cells(datasets):
    """The guided tuner's candidate grid per (benchmark, dataset, label):
    coarse power-of-two thresholds up to the largest child launch (a CDP
    probe run per pair), coarsening factor 8, the non-warp granularities,
    8 blocks per multi-block group."""
    klap = [g for g in KLAP_GRANULARITIES if g != "warp"]
    ours = [g for g in ALL_GRANULARITIES if g != "warp"]
    cells = {}
    for (bench_name, dataset_name), (bench, data) in datasets.items():
        thresholds = threshold_candidates(bench, data, coarse=True)
        grids = {
            "CDP+T": [TuningParams(threshold=t) for t in thresholds],
            "KLAP (CDP+A)": [TuningParams(granularity=g) for g in klap],
            "CDP+T+C+A": [TuningParams(threshold=t, coarsen_factor=8,
                                       granularity=g, group_blocks=8)
                          for t in thresholds for g in ours],
        }
        for label, grid in grids.items():
            cells[(bench_name, dataset_name, label)] = [
                mask_params(label, params) for params in grid]
    return cells


def setup(workload, size):
    """What a user's figure or tuning run does before its sweep: build the
    datasets and, for tune-tca, probe every pair's child-launch sizes."""
    config = SIZES[workload][size]
    datasets = build_datasets(config["pairs"], config["scale"])
    cells = tune_cells(datasets) if workload == "tune-tca" else None
    return datasets, cells


def make_points(workload, size, seed, cells):
    """The seeded point list of one pass.

    fig9-cdp runs every pair's No CDP and CDP points; tune-tca every
    TUNE_STRIDE-th point of the tuner's grid. The seed orders the pairs
    and the points within each pair. A seeded subset would make the work
    of a pass depend on the seed, and points differ in cost tenfold.
    """
    config = SIZES[workload][size]
    scale = config["scale"]
    if workload == "fig9-cdp":
        by_pair = {pair: [SweepPoint(pair[0], pair[1], label, TuningParams(),
                                     scale=scale)
                          for label in FIG9_LABELS]
                   for pair in config["pairs"]}
    else:
        grid = [(pair, SweepPoint(pair[0], pair[1], label, params,
                                  scale=scale))
                for pair in config["pairs"] for label in TUNE_LABELS
                for params in cells[pair + (label,)]]
        by_pair = {}
        for pair, point in grid[::TUNE_STRIDE]:
            by_pair.setdefault(pair, []).append(point)
    rng = random.Random(seed)
    pairs = sorted(by_pair)
    rng.shuffle(pairs)
    points = []
    for pair in pairs:
        group = by_pair[pair]
        rng.shuffle(group)
        points.extend(group)
    return points


def warm_picks(seed, count):
    """For each cold point, the earlier points (itself included) asked for
    again right after it. Spreading the warm lookups through the pass
    samples the same host conditions as the cold points."""
    rng = random.Random(seed)
    return [[rng.randrange(index + 1) for _ in range(WARM_PER_POINT)]
            for index in range(count)]


def _add_totals(total, part):
    for group, values in part.items():
        bucket = total.setdefault(group, {})
        for name, value in values.items():
            bucket[name] = bucket.get(name, 0) + value


def run_pass(points, picks, tracer=None):
    """One cold pass with its interleaved warm lookups; returns the pass
    record. Its ``scale`` turns the pass's wall seconds into
    reference-host seconds. With a *tracer*, ``cold`` holds the span
    totals of the cold calls only."""
    KERNEL_CACHE.clear()
    kernel_before = KERNEL_CACHE.stats()
    before = parse_prometheus(REGISTRY.render()) if tracer else None
    cache_dir = work_dir("sweep-")
    cache = ResultCache(cache_dir)
    executor = SweepExecutor(jobs=1, cache=cache, on_error="continue")
    results, miss_s, probes, cold = [], [], [], {}
    miss_ref_s, hit_ref_s = [], []
    warm_mismatches = 0
    started = time.perf_counter()
    try:
        for point, picked in zip(points, picks):
            mark = tracer.mark() if tracer else None
            point_started = time.perf_counter()
            results.append(executor.run([point])[0])
            miss_s.append(time.perf_counter() - point_started)
            if tracer:
                _add_totals(cold, tracer.totals(mark))
            # Read the point back untimed: the first lookup after a
            # simulation runs about three times slower while the CPU
            # caches refill, which would make hit_p99_ms measure that.
            warm_mismatches += executor.run([point])[0] != results[-1]
            point_hit_s = []
            for index in picked:
                point_started = time.perf_counter()
                warm = executor.run([points[index]])[0]
                point_hit_s.append(time.perf_counter() - point_started)
                warm_mismatches += warm != results[index]
            # The point's own probe scales its latencies: it tracks the
            # host's speed over the last few milliseconds.
            probes.append(probe())
            scale = host_scale(probes[-1:])
            miss_ref_s.append(miss_s[-1] * scale)
            hit_ref_s += [s * scale for s in point_hit_s]
        wall_s = time.perf_counter() - started
        after = parse_prometheus(REGISTRY.render()) if tracer else None
        lookups = cache.hits + cache.misses
        kernel_after = KERNEL_CACHE.stats()
    finally:
        executor.close()
        cache.index.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    failures = [r for r in results if isinstance(r, PointFailure)]
    payloads = [r.to_dict() if not isinstance(r, PointFailure)
                else r.describe() for r in results]
    record = {
        "cold_s": sum(miss_s), "wall_s": wall_s, "miss_s": miss_s,
        "miss_ref_s": miss_ref_s, "hit_ref_s": hit_ref_s,
        "probes": probes, "scale": host_scale(probes), "results": payloads,
        "failures": [f.describe() for f in failures],
        "warm_mismatches": warm_mismatches,
        "counters": {
            "digest": digest(payloads),
            "sim.total_cycles": sum(p["total_time"] for p in payloads
                                    if isinstance(p, dict)),
            "sim.device_launches": sum(p["device_launches"] for p in payloads
                                       if isinstance(p, dict)),
            "engine.cache.misses": kernel_after["misses"]
            - kernel_before["misses"],
        },
        "engine.cache.hits": kernel_after["hits"] - kernel_before["hits"],
        "harness.cache.hit_ratio": cache.hits / lookups if lookups else 0.0,
        "cold": cold,
    }
    if tracer:
        # Warm lookups never reach a backend, so the point histogram
        # holds the cold points only.
        record["registry"] = {
            name: prom_total(after, metric) - prom_total(before, metric)
            for name, metric in (
                ("harness.index.ops", "repro_cache_index_ops_total"),
                ("harness.index.errors", "repro_cache_index_errors_total"),
                ("point_sum", "repro_sweep_point_seconds_sum"),
                ("point_count", "repro_sweep_point_seconds_count"))}
    return record


def timed_passes(points, picks, seconds, tracer=None):
    """Whole passes for about *seconds*: another pass starts while it is
    expected to end at most half a pass after the deadline."""
    deadline = time.perf_counter() + seconds
    passes = [run_pass(points, picks, tracer)]
    while time.perf_counter() + passes[-1]["wall_s"] / 2 <= deadline:
        passes.append(run_pass(points, picks, tracer))
    return passes


def _consistency_failures(passes, reference=None):
    """Passes over the same points must agree exactly: every failure,
    warm-hit mismatch, and pass that differs from the first counts."""
    reference = reference or passes[0]
    failed = 0
    for record in passes:
        failed += len(record["failures"]) + record["warm_mismatches"]
        failed += sum(a != b for a, b in zip(record["results"],
                                             reference["results"]))
        if record["counters"] != reference["counters"]:
            failed += 1
    return failed


def _evidence_failures(workload, size, seed, counters):
    differing = check_evidence("%s/%s/seed=%d" % (workload, size, seed),
                               counters)
    for name in differing:
        print("FAIL: %s differs from an earlier run with seed %d"
              % (name, seed))
    return len(differing)


def run(workload, seed, seconds, trace, size, import_s):
    """Run one sweep workload; returns (metrics, attempted, failed)."""
    calib_start = calibrate()
    setup_times = []
    for _ in range(1 if trace or size == "smoke" else SETUP_REPEATS):
        started = time.perf_counter()
        datasets, cells = setup(workload, size)
        setup_times.append(time.perf_counter() - started)
    setup_s = import_s + median(setup_times)
    points = make_points(workload, size, seed, cells)
    picks = warm_picks(seed, len(points))
    print("%s: %d points per pass, seed %d" % (workload, len(points), seed))
    if trace:
        metrics, attempted, failed = _traced(workload, size, seed, seconds,
                                             points, picks, datasets)
        metrics["host.calib_s"] = (calib_start + calibrate()) / 2
        return metrics, attempted, failed
    passes = timed_passes(points, picks, seconds)
    calib_end = calibrate()
    failed = _consistency_failures(passes)
    failed += _evidence_failures(workload, size, seed, passes[0]["counters"])
    attempted = sum(len(p["miss_s"]) + len(p["hit_ref_s"]) for p in passes)
    miss_ms = [s * 1e3 for p in passes for s in p["miss_ref_s"]]
    hit_ms = [s * 1e3 for p in passes for s in p["hit_ref_s"]]
    raw_rate = median([len(points) / p["cold_s"] for p in passes])
    print("%d passes, %d cold points, %d warm hits; host probe %.3fs -> "
          "%.3fs, pass scales %s; raw: setup %.3fs, %.3f points/s; exact "
          "counters %s"
          % (len(passes), len(miss_ms), len(hit_ms), calib_start, calib_end,
             " ".join("%.2f" % p["scale"] for p in passes), setup_s,
             raw_rate, passes[0]["counters"]))
    metrics = {
        # Set-up lasts too little for probes beside it to be steady; the
        # run's own probes give the host's speed over the same minute.
        "setup_s": setup_s * host_scale([s for p in passes
                                         for s in p["probes"]]),
        "points_per_s": median([len(points) / (p["cold_s"] * p["scale"])
                                for p in passes]),
        "peak_rss_mb": peak_rss_mb(),
        "hit_p50_ms": median(hit_ms),
        "hit_p99_ms": percentile(hit_ms, 99),
        "miss_p50_ms": median(miss_ms),
    }
    return metrics, attempted, failed


_EXACT_COUNTS = EXECUTOR_COUNTS + ("engine.codegen.source_bytes",
                                   "harness.runner.mismatches")


def _traced(workload, size, seed, seconds, points, picks, datasets):
    """An untraced phase, then a traced phase over the same points.

    The traced phase checks every point's driver outputs against its
    pair's No CDP outputs and must reproduce the untraced phase's
    RunResults exactly; the gap between the phases is tracing overhead.
    """
    references = {pair: run_variant(bench, data, "No CDP",
                                    keep_outputs=True).outputs
                  for pair, (bench, data) in datasets.items()}
    untraced = timed_passes(points, picks, seconds / 2.0)
    tracer = Tracer(references)
    tracer.install()
    try:
        traced = timed_passes(points, picks, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(WORK, "spans-%s.jsonl" % workload))
    failed = _consistency_failures(untraced)
    failed += _consistency_failures(traced, reference=untraced[0])
    colds = [p["cold"] for p in traced]
    count_sets = [{name: c["counts"].get(name, 0) for name in _EXACT_COUNTS}
                  for c in colds]
    if any(counts != count_sets[0] for counts in count_sets):
        print("FAIL: exact engine counters differ between traced passes")
        failed += 1
    counters = dict(traced[0]["counters"], **{
        name: count_sets[0][name] for name in EXECUTOR_COUNTS})
    failed += _evidence_failures(workload, size, seed, counters)
    mismatches = count_sets[0]["harness.runner.mismatches"]
    failed += sum(counts["harness.runner.mismatches"]
                  for counts in count_sets)
    checks = colds[0]["counts"].get("harness.runner.checks", 0)
    if checks != len(points):
        print("FAIL: %d of %d points had their outputs checked"
              % (checks, len(points)))
        failed += 1

    def per_pass(extract):
        """Median over traced passes, in reference-host seconds."""
        return median([extract(p) * p["scale"] for p in traced])

    metrics = {name: per_pass(lambda p, span=span:
                              p["cold"]["seconds"].get(span, 0.0))
               for name, span in LAYER_SECONDS.items()}
    for name in _EXACT_COUNTS:
        metrics[name] = count_sets[0][name]
    metrics["sim.total_cycles"] = counters["sim.total_cycles"]
    metrics["sim.device_launches"] = counters["sim.device_launches"]
    metrics["engine.cache.misses"] = counters["engine.cache.misses"]
    metrics["engine.cache.hits"] = traced[0]["engine.cache.hits"]
    add_rates(metrics)
    metrics["harness.sweep.self_s"] = per_pass(
        lambda p: p["cold"]["self_seconds"].get("harness.sweep.run", 0.0))
    metrics["harness.cache.hit_ratio"] = traced[0]["harness.cache.hit_ratio"]
    metrics["harness.index.ops"] = traced[0]["registry"]["harness.index.ops"]
    metrics["harness.index.errors"] = \
        traced[0]["registry"]["harness.index.errors"]
    metrics["harness.sweep.point_s_mean"] = per_pass(
        lambda p: p["registry"]["point_sum"]
        / max(p["registry"]["point_count"], 1))
    # No HTTP front end, queue or load generator on a sweep.
    for name in ("harness.serve.point_s_mean", "harness.queue.wait_s_mean",
                 "harness.queue.submitted", "harness.queue.dedup_joins",
                 "harness.queue.rejected", "loadgen.late_ms_p99",
                 "loadgen.achieved_rps"):
        metrics[name] = 0
    traced_cold = per_pass(lambda p: p["cold_s"]
                           - p["cold"]["seconds"].get("harness.runner.check",
                                                      0.0))
    metrics["trace.overhead_frac"] = (
        traced_cold / median([p["cold_s"] * p["scale"] for p in untraced])
        - 1.0)
    _print_shares(metrics, per_pass(lambda p: p["cold_s"]))
    print("%d untraced + %d traced passes; %d output checks, %d mismatches"
          % (len(untraced), len(traced), checks, mismatches))
    attempted = sum(len(p["miss_s"]) + len(p["hit_ref_s"])
                    for p in untraced + traced)
    return metrics, attempted, failed


def _print_shares(metrics, cold_s):
    """Each layer's share of a traced cold pass."""
    layers = {
        "execution (engine.executor)": metrics["engine.executor.drive_s"],
        "timing simulation (sim.scheduler)":
            metrics["sim.scheduler.simulate_s"],
        "breakdown (sim.metrics)": metrics["sim.metrics.breakdown_s"],
        "compile (transforms + engine.codegen + engine.module)":
            metrics["transforms.transform_s"]
            + metrics["engine.codegen.compile_s"]
            + metrics["engine.module.instantiate_s"],
        "datasets (sweep memo rebuilds)": metrics["datasets.build_s"],
        "result cache (harness.cache)": metrics["harness.cache.get_s"]
            + metrics["harness.cache.put_s"],
        "output checks (harness.runner)": metrics["harness.runner.check_s"],
    }
    print("traced cold pass %.3fs:" % cold_s)
    for name, seconds in layers.items():
        print("  share %-55s %5.1f%%" % (name, 100.0 * seconds / cold_s))
