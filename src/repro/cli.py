"""Command-line interface.

Mirrors the paper's artifact workflow (Appendix E): transform CUDA sources,
inspect the analyses, run benchmark variants, and regenerate the evaluation
figures. ``docs/reproducing.md`` lists the exact command per table/figure;
``docs/sweep-engine.md`` documents the sweep engine's parallelism, failure
contract and cache lifecycle.

Usage::

    python -m repro transform kernel.cu --threshold 128 --coarsen 8 \\
        --aggregate multiblock -o kernel_opt.cu
    python -m repro analyze kernel.cu
    python -m repro bench BFS KRON --variant CDP+T+C+A --threshold 32 \\
        --coarsen 8 --aggregate block
    python -m repro figure fig9 --scale 0.25
    python -m repro sweep --pairs BFS:KRON SSSP:KRON --variants CDP CDP+T \\
        --threshold 32 --jobs 4 --cache-dir .repro-cache
    python -m repro cache info --cache-dir .repro-cache
    python -m repro cache prune --cache-dir .repro-cache --max-bytes 1000000
    python -m repro serve --port 8070 --cache-dir .repro-cache  # HTTP service

``docs/serving.md`` documents the ``repro serve`` HTTP API.
"""

import argparse
import json
import os
import sys
import time

from .analysis import analyze_program, find_launch_sites, find_thread_count
from .benchmarks import FIG9_PAIRS, FIG12_BENCHMARKS, get_benchmark
from .errors import ReproError
from .harness import (VARIANT_LABELS, FigureArtifactCache,
                      PointFailure, ResultCache, SweepExecutor, TuningParams,
                      figure9, figure10, figure11, figure12,
                      fixed_threshold_study, require_params, run_variant,
                      sweep_grid, table1)
from .minicuda import parse
from .minicuda.printer import print_expr
from .transforms import GRANULARITIES, OptConfig, transform
from .transforms.base import meta_to_dict


def _add_opt_flags(parser):
    parser.add_argument("--threshold", type=int, default=None,
                        help="launch threshold (enables thresholding)")
    parser.add_argument("--coarsen", type=int, default=None,
                        help="coarsening factor (enables coarsening)")
    parser.add_argument("--aggregate", choices=GRANULARITIES, default=None,
                        help="aggregation granularity (enables aggregation)")
    parser.add_argument("--group-blocks", type=int, default=8,
                        help="blocks per group for multi-block aggregation")


def _config_from(args):
    return OptConfig(threshold=args.threshold,
                     coarsen_factor=args.coarsen,
                     aggregate=args.aggregate,
                     group_blocks=args.group_blocks,
                     agg_threshold=args.agg_threshold)


def cmd_transform(args):
    with open(args.source) as handle:
        source = handle.read()
    if args.promote:
        from .transforms import PromotionPass
        program = parse(source)
        promo_meta = PromotionPass().run(program)
        result = transform(program, _config_from(args))
        result.meta.merge(promo_meta)
    else:
        result = transform(source, _config_from(args))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(result.source)
        print("wrote %s" % args.output)
    else:
        print(result.source)
    if args.meta:
        with open(args.meta, "w") as handle:
            json.dump(meta_to_dict(result.meta), handle, indent=2)
        print("wrote %s" % args.meta)
    return 0


def cmd_analyze(args):
    with open(args.source) as handle:
        program = parse(handle.read())
    props = analyze_program(program)
    print("kernels:")
    for name, info in props.items():
        flags = []
        if info.uses_barrier:
            flags.append("barrier")
        if info.uses_shared_memory:
            flags.append("shared-memory")
        if info.uses_warp_primitives:
            flags.append("warp-primitives")
        print("  %-24s thresholdable=%-5s dims=%s %s" % (
            name, info.thresholdable,
            "".join(sorted(info.dims_used)) or "-",
            ("(" + ", ".join(flags) + ")") if flags else ""))
    sites = find_launch_sites(program)
    print("dynamic launch sites: %d" % len(sites))
    for site in sites:
        analysis = find_thread_count(site.launch.grid)
        count = (print_expr(analysis.count_expr)
                 if analysis.count_expr is not None else "<not found>")
        print("  %s -> %s   desired threads: %s (exact=%s)" % (
            site.parent.name, site.child_name, count, analysis.exact))
    return 0


def cmd_bench(args):
    bench = get_benchmark(args.benchmark)
    params = TuningParams(threshold=args.threshold,
                          coarsen_factor=args.coarsen,
                          granularity=args.aggregate,
                          group_blocks=args.group_blocks)
    try:
        require_params(args.variant, params)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 2
    data = bench.build_dataset(args.dataset, args.scale)
    result = run_variant(bench, data, args.variant, params)
    print("%s on %s (%s, params %s)" % (args.variant, bench.name,
                                        args.dataset, params.describe()))
    print("  simulated cycles : %d" % result.total_time)
    print("  dynamic launches : %d" % result.device_launches)
    print("  queue wait cycles: %d" % result.launch_queue_wait)
    total = max(sum(result.breakdown.values()), 1)
    for component, value in result.breakdown.items():
        print("  %-7s %10d cycles (%5.1f%%)"
              % (component, value, 100.0 * value / total))
    return 0


_FIGURES = {
    "table1": lambda args, executor, artifacts: table1(
        args.scale, artifacts=artifacts),
    "fig9": lambda args, executor, artifacts: figure9(
        scale=args.scale, strategy=args.strategy, executor=executor,
        artifacts=artifacts),
    "fig10": lambda args, executor, artifacts: figure10(
        scale=args.scale, strategy=args.strategy, executor=executor,
        artifacts=artifacts),
    "fig11": lambda args, executor, artifacts: figure11(
        args.benchmark or "BFS", args.dataset or "KRON",
        scale=args.scale, executor=executor, artifacts=artifacts),
    "fig12": lambda args, executor, artifacts: figure12(
        scale=args.scale, strategy=args.strategy, executor=executor,
        artifacts=artifacts),
    "fixed-threshold": lambda args, executor, artifacts:
        fixed_threshold_study(
            scale=args.scale, strategy=args.strategy, executor=executor,
            artifacts=artifacts),
}


def _add_sweep_flags(parser, default_cache=None):
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep engine (1 = "
                             "in-process; more = one process pool)")
    parser.add_argument("--cache-dir", default=default_cache,
                        help="persistent result-cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")


def _executor_from(args, force=False, on_error="raise"):
    """Build a SweepExecutor from the --jobs/--cache-dir/--no-cache
    flags, or None when they ask for plain serial, uncached execution."""
    cache_dir = None if args.no_cache else args.cache_dir
    if not force and args.jobs <= 1 and cache_dir is None:
        return None
    return SweepExecutor(jobs=args.jobs,
                         cache=ResultCache(cache_dir) if cache_dir else None,
                         on_error=on_error)


def cmd_figure(args):
    executor = _executor_from(args)
    cache_dir = None if args.no_cache else args.cache_dir
    artifacts = FigureArtifactCache(cache_dir) if cache_dir else None
    try:
        result = _FIGURES[args.name](args, executor, artifacts)
    finally:
        if executor is not None:
            executor.close()
    text = result.format()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print("wrote %s" % args.output)
    else:
        print(text)
    return 0


_SWEEP_GRIDS = {
    "fig9": FIG9_PAIRS,
    "fig12": tuple((name, "ROAD-NY") for name in FIG12_BENCHMARKS),
}


def cmd_sweep(args):
    if args.pairs:
        pairs = []
        for item in args.pairs:
            bench_name, _, dataset_name = item.partition(":")
            if not dataset_name:
                print("bad --pairs entry %r (want BENCH:DATASET)" % item,
                      file=sys.stderr)
                return 2
            pairs.append((bench_name, dataset_name))
    else:
        pairs = _SWEEP_GRIDS[args.grid]
    for bench_name, dataset_name in pairs:
        try:
            bench = get_benchmark(bench_name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        if dataset_name not in bench.dataset_names:
            print("unknown dataset %r for %s (have %s)"
                  % (dataset_name, bench.name,
                     ", ".join(bench.dataset_names)), file=sys.stderr)
            return 2
    for label in args.variants:
        if label not in VARIANT_LABELS:
            print("unknown variant %r (have %s)"
                  % (label, ", ".join(VARIANT_LABELS)), file=sys.stderr)
            return 2
    params = TuningParams(threshold=args.threshold,
                          coarsen_factor=args.coarsen,
                          granularity=args.aggregate,
                          group_blocks=args.group_blocks)
    try:
        points = sweep_grid(pairs, args.variants, scale=args.scale,
                            params=params)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 2
    started = time.time()
    on_error = "continue" if args.keep_going else "raise"
    with _executor_from(args, force=True, on_error=on_error) as executor:
        results = executor.run(points)
    elapsed = time.time() - started
    failures = [r for r in results if isinstance(r, PointFailure)]
    if args.json:
        print(json.dumps(
            [{"error": r.error, "message": r.message,
              "point": r.point.describe()}
             if isinstance(r, PointFailure) else r.to_dict()
             for r in results], indent=2))
    else:
        headers = ("Benchmark", "Dataset", "Variant", "Params", "Cycles",
                   "Launches")
        widths = [len(h) for h in headers]
        rows = []
        for result in results:
            if isinstance(result, PointFailure):
                point = result.point
                row = (point.benchmark, point.dataset, point.label,
                       point.params.describe(),
                       "FAILED: %s" % result.error, "-")
            else:
                row = (result.benchmark, result.dataset, result.label,
                       result.params.describe(), str(result.total_time),
                       str(result.device_launches))
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
            rows.append(row)
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        print("  ".join("-" * w for w in widths))
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    stats = executor.stats
    print("%d points: %d cached, %d simulated, %d failed "
          "(jobs=%d, %.2fs)%s"
          % (stats.points, stats.hits, stats.simulated, stats.failed,
             executor.jobs, elapsed,
             "" if executor.cache is None else ", cache: %s" % args.cache_dir),
          file=sys.stderr)
    for failure in failures:
        print("failed: %s" % failure.describe(), file=sys.stderr)
    return 1 if failures else 0


def cmd_serve(args):
    import signal

    from .harness.quota import (ApiKeyAuth, ClientQuota, QuotaManager,
                                load_api_keys)
    from .harness.serve import ServeServer

    cache_dir = None if args.no_cache else args.cache_dir
    try:
        auth = None
        overrides = {}
        known = ()
        if args.api_keys_file:
            auth = ApiKeyAuth(load_api_keys(args.api_keys_file))
            overrides = auth.quota_overrides()
            known = auth.clients
        quota = None
        if (args.quota_rps is not None or args.quota_burst is not None
                or args.quota_max_inflight is not None or overrides):
            quota = QuotaManager(
                default=ClientQuota(rate=args.quota_rps,
                                    burst=args.quota_burst,
                                    max_inflight=args.quota_max_inflight),
                overrides=overrides, known=known)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        server = ServeServer(host=args.host, port=args.port, quiet=False,
                             cache_dir=cache_dir, jobs=args.jobs,
                             miss_workers=args.miss_workers,
                             max_pending=args.max_pending,
                             request_timeout=args.request_timeout,
                             quota=quota, api_keys=auth)
    except (OSError, OverflowError) as exc:
        print("cannot bind %s:%d: %s" % (args.host, args.port, exc),
              file=sys.stderr)
        return 1
    host, port = server.address
    print("repro serve listening on http://%s:%d/ (jobs=%d, cache=%s, "
          "miss-workers=%d, max-pending=%d, auth=%s, quota=%s)"
          % (host, port, server.service.executor.jobs,
             cache_dir or "disabled", args.miss_workers, args.max_pending,
             "%d key(s)" % len(auth) if auth is not None else "off",
             "on" if quota is not None else "off"),
          flush=True)

    def _sigterm(signum, frame):
        # Route SIGTERM through the same graceful-drain path as Ctrl-C:
        # serve_forever unwinds, then close() drains in-flight misses.
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        queue = server.service.scheduler.stats_dict()
        pending = queue["depth"] + queue["inflight"]
        if pending:
            print("repro serve: draining %d in-flight miss task(s)..."
                  % pending, flush=True)
        server.close(drain=True)
        print("repro serve: drained, bye", flush=True)
    return 0


def _format_index_top(rows):
    if not rows:
        return ["index is empty — run 'repro cache reindex' to rebuild "
                "it from the blobs"]
    lines = ["%-16s %-6s %6s %12s %10s  %s"
             % ("key", "kind", "hits", "sim-cost(s)", "bytes", "spec")]
    for row in rows:
        cost = row.get("sim_cost_seconds")
        spec = row.get("spec")
        spec_text = "" if spec is None \
            else json.dumps(spec, sort_keys=True)
        if len(spec_text) > 60:
            spec_text = spec_text[:57] + "..."
        lines.append("%-16s %-6s %6d %12s %10d  %s"
                     % (row["key"][:16], row["kind"], row["hits"],
                        "-" if cost is None else "%.4f" % cost,
                        row["bytes"], spec_text))
    return lines


def cmd_cache(args):
    from .harness.cache import TMP_MAX_AGE

    if not os.path.isdir(args.cache_dir):
        print("no cache at %s" % args.cache_dir, file=sys.stderr)
        return 0 if args.action == "info" else 2
    cache = ResultCache(args.cache_dir)
    if args.action == "info":
        print(cache.info().format())
    elif args.action == "clear":
        removed = cache.clear()
        print("cleared %d files from %s" % (removed, args.cache_dir))
    elif args.action == "reindex":
        count = cache.reindex()
        print("reindexed %d entries into %s" % (count, cache.index.path))
    elif args.action == "top":
        for line in _format_index_top(cache.index.top(by=args.by,
                                                      limit=args.limit)):
            print(line)
    elif args.action == "stats":
        stats = cache.index.stats_dict()
        print("index %s" % stats["path"])
        print("  entries: %d, bytes: %d, hits: %d, sim cost: %.4fs"
              % (stats["entries"], stats["bytes"], stats["hits"],
                 stats["sim_cost_seconds"]))
        for kind in sorted(stats["by_kind"]):
            block = stats["by_kind"][kind]
            print("  %-7s: %d entries, %d bytes, %d hits, %.4fs sim cost"
                  % (kind, block["entries"], block["bytes"],
                     block["hits"], block["sim_cost_seconds"]))
    else:
        tmp_age = TMP_MAX_AGE if args.tmp_age is None else args.tmp_age
        report = cache.prune(max_entries=args.max_entries,
                             max_bytes=args.max_bytes, tmp_max_age=tmp_age,
                             policy=args.policy, dry_run=args.dry_run)
        print(report.format())
        print(cache.info().format())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CGO 2022 dynamic-parallelism compiler framework "
                    "(Python reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_transform = sub.add_parser(
        "transform", help="apply T/C/A passes to a miniCUDA source file")
    p_transform.add_argument("source")
    p_transform.add_argument("-o", "--output", default=None)
    p_transform.add_argument("--meta", default=None,
                             help="write runtime metadata JSON here")
    _add_opt_flags(p_transform)
    p_transform.add_argument("--agg-threshold", type=int, default=None,
                             help="aggregation threshold (warp/block only)")
    p_transform.add_argument("--promote", action="store_true",
                             help="apply KLAP promotion to single-block "
                                  "self-recursive kernels first")
    p_transform.set_defaults(func=cmd_transform)

    p_analyze = sub.add_parser(
        "analyze", help="report launch sites and kernel legality")
    p_analyze.add_argument("source")
    p_analyze.set_defaults(func=cmd_analyze)

    p_bench = sub.add_parser("bench", help="run one benchmark variant")
    p_bench.add_argument("benchmark")
    p_bench.add_argument("dataset")
    p_bench.add_argument("--variant", default="CDP")
    p_bench.add_argument("--scale", type=float, default=0.25)
    _add_opt_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_figure = sub.add_parser(
        "figure", help="regenerate a table/figure of the evaluation "
                       "(accepts the sweep engine's --jobs/--cache-dir "
                       "flags; warm runs are near-instant)")
    p_figure.add_argument("name", choices=sorted(_FIGURES))
    p_figure.add_argument("--scale", type=float, default=0.25)
    p_figure.add_argument("--strategy", choices=("guided", "exhaustive"),
                          default="guided")
    p_figure.add_argument("--benchmark", default=None,
                          help="fig11 panel benchmark")
    p_figure.add_argument("--dataset", default=None,
                          help="fig11 panel dataset")
    p_figure.add_argument("-o", "--output", default=None)
    _add_sweep_flags(p_figure)
    p_figure.set_defaults(func=cmd_figure)

    p_sweep = sub.add_parser(
        "sweep", help="run a (pairs x variants) grid through the parallel "
                      "sweep engine with a persistent result cache "
                      "(--keep-going to continue past failed points)")
    p_sweep.add_argument("--grid", choices=sorted(_SWEEP_GRIDS),
                         default="fig9",
                         help="preset benchmark/dataset grid "
                              "(ignored when --pairs is given)")
    p_sweep.add_argument("--pairs", nargs="+", default=None,
                         metavar="BENCH:DATASET",
                         help="explicit pairs, e.g. BFS:KRON SSSP:CNR")
    p_sweep.add_argument("--variants", nargs="+", default=["CDP"],
                         help="variant labels, e.g. CDP CDP+T+C+A")
    p_sweep.add_argument("--scale", type=float, default=0.25)
    p_sweep.add_argument("--json", action="store_true",
                         help="emit results as JSON instead of a table")
    p_sweep.add_argument("--keep-going", action="store_true",
                         help="on_error=continue: run past failed points, "
                              "report each failure at the end, and exit 1 "
                              "instead of aborting on the first one (the "
                              "contract is documented in "
                              "docs/sweep-engine.md)")
    _add_opt_flags(p_sweep)
    _add_sweep_flags(p_sweep, default_cache=".repro-cache")
    p_sweep.set_defaults(func=cmd_sweep)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived HTTP query service over the "
                      "warm caches (GET /healthz, /cache/info, /metrics, "
                      "/point, /figure/<name>; POST /sweep, /shutdown — "
                      "see docs/serving.md); misses route through a "
                      "bounded priority scheduler (--miss-workers/"
                      "--max-pending, per-request priorities and "
                      "deadlines via X-Repro-* headers) over the sweep "
                      "engine (--jobs)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="interface to bind (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="port to bind (default 0: pick an ephemeral "
                              "port and print it)")
    p_serve.add_argument("--miss-workers", type=int, default=2,
                         metavar="N",
                         help="concurrent miss executors draining the "
                              "request queue (default 2); each owns its "
                              "own executor, so cold requests for distinct "
                              "points overlap while requests for the same "
                              "point share one computation")
    p_serve.add_argument("--max-pending", type=int, default=64,
                         metavar="N",
                         help="bound on queued miss tasks (default 64); "
                              "past it cold requests get 503 backpressure "
                              "instead of piling onto the simulator")
    p_serve.add_argument("--request-timeout", type=float, default=300.0,
                         metavar="SECONDS",
                         help="bound on how long one HTTP request waits "
                              "for a cache miss (default 300; 0 disables); "
                              "past it the request 504s with retry=true "
                              "while the simulation continues toward the "
                              "cache")
    p_serve.add_argument("--api-keys-file", metavar="PATH",
                         help="enable API-key auth: a JSON file mapping "
                              "key -> client name (or an object with "
                              "client/rate/burst/max_inflight quota "
                              "overrides); requests without a valid "
                              "X-Repro-Api-Key get 401 (GET /healthz and "
                              "/metrics stay open)")
    p_serve.add_argument("--quota-rps", type=float, default=None,
                         metavar="RPS",
                         help="default per-client miss admission rate in "
                              "requests/sec (token bucket; over-quota "
                              "misses get 429 with Retry-After; warm "
                              "cache hits are never metered)")
    p_serve.add_argument("--quota-burst", type=float, default=None,
                         metavar="N",
                         help="default per-client burst capacity (bucket "
                              "size; default 2x --quota-rps, min 1)")
    p_serve.add_argument("--quota-max-inflight", type=int, default=None,
                         metavar="N",
                         help="default cap on one client's concurrent "
                              "in-flight misses (429 past it; released "
                              "when the miss wait ends)")
    _add_sweep_flags(p_serve, default_cache=".repro-cache")
    p_serve.set_defaults(func=cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="inspect and manage the on-disk sweep/figure cache "
                      "(result entries, figure artifacts, stranded .tmp "
                      "files, and the index.sqlite metadata index)")
    p_cache.add_argument("action", choices=("info", "clear", "prune",
                                            "reindex", "top", "stats"))
    p_cache.add_argument("--cache-dir", default=".repro-cache",
                         help="cache directory (default .repro-cache)")
    p_cache.add_argument("--max-entries", type=int, default=None,
                         metavar="N",
                         help="prune: keep at most N entries (results + "
                              "figure artifacts)")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         metavar="BYTES",
                         help="prune: keep at most BYTES bytes of entries "
                              "(e.g. 50000000 for 50 MB)")
    p_cache.add_argument("--tmp-age", type=float, default=None,
                         metavar="SECONDS",
                         help="prune: sweep stranded .tmp files older than "
                              "SECONDS (default 3600, i.e. one hour)")
    p_cache.add_argument("--policy", choices=("lru", "cost"),
                         default="lru",
                         help="prune: eviction order — lru (default) "
                              "evicts least-recently-used first; cost "
                              "evicts cheapest-to-recompute first, "
                              "ranked by the index's measured per-point "
                              "simulation costs")
    p_cache.add_argument("--dry-run", action="store_true",
                         help="prune: report what would be evicted "
                              "without removing anything")
    p_cache.add_argument("--by", choices=("hits", "cost", "bytes",
                                          "recent"),
                         default="hits",
                         help="top: ranking column (default hits)")
    p_cache.add_argument("--limit", type=int, default=20, metavar="N",
                         help="top: number of entries to show "
                              "(default 20)")
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
