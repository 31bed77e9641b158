"""Regenerate every table and figure of the paper's evaluation (Sec. VIII).

Each ``figure*``/``table1`` function returns a small result object carrying
the raw numbers plus a ``format()`` method that prints the same rows/series
the paper reports. Absolute numbers are simulator cycles, not V100 seconds;
the comparisons (who wins, by what factor, where crossovers fall) are the
reproduction target.
"""

import os
from dataclasses import asdict, dataclass, field

from ..benchmarks import FIG9_PAIRS, FIG12_BENCHMARKS, get_benchmark
from ..sim.config import DeviceConfig
from .cache import FigureArtifactCache
from .runner import geomean, run_variant
from .tuning import threshold_candidates, tune
from .variants import VARIANT_LABELS, TuningParams, mask_params


def _artifact_cache(artifacts):
    """Coerce an ``artifacts=`` argument (cache, directory, or None)."""
    if isinstance(artifacts, (str, os.PathLike)):
        return FigureArtifactCache(artifacts)
    return artifacts


def _spec_value(value):
    if isinstance(value, DeviceConfig):
        return asdict(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_spec_value(item) for item in value]
    return value


def _artifact_spec(**kwargs):
    """Canonical JSON-able spec of one figure invocation (the cache key)."""
    return {key: _spec_value(value) for key, value in kwargs.items()}


def _build_cached(artifacts, name, spec, build):
    """Serve *name* from the figure-level artifact cache, else build and
    store. A warm result cache makes the grid free but a figure run still
    rebuilds datasets and reference runs; this makes warm runs near-instant.
    """
    artifacts = _artifact_cache(artifacts)
    if artifacts is not None:
        cached = artifacts.get(name, spec)
        if cached is not None:
            return cached
    result = build()
    if artifacts is not None:
        artifacts.put(name, spec, result)
    return result


def _format_table(headers, rows, title=""):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _run_point(bench, data, label, params, device_config, executor, scale):
    """One measurement — through the sweep engine when an executor is given
    (parallelizable, cacheable), else in-process."""
    if executor is not None and scale is not None:
        from .sweep import SweepPoint
        # Figures cannot represent a failed point: force it to raise.
        return executor.run_one(SweepPoint(
            bench.name, getattr(data, "name", "?"), label,
            params or TuningParams(), device_config or DeviceConfig(),
            scale), on_error="raise")
    return run_variant(bench, data, label, params, device_config)


# -- Table I -----------------------------------------------------------------

@dataclass
class Table1Result:
    rows: list

    def to_dict(self):
        """Structured JSON form (the default ``GET /figure/table1``
        payload — see ``docs/serving.md``)."""
        return {"kind": "table1",
                "title": "Table I: benchmarks and datasets "
                         "(scaled reproduction)",
                "rows": [{"benchmark": bench, "dataset": dataset,
                          "size": size}
                         for bench, dataset, size in self.rows]}

    def format(self):
        return _format_table(
            ("Benchmark", "Dataset", "Size"), self.rows,
            "Table I: benchmarks and datasets (scaled reproduction)")


def table1(scale=1.0, artifacts=None):
    """The benchmark/dataset inventory with this reproduction's sizes."""
    def build():
        rows = []
        for bench_name, dataset_name in FIG9_PAIRS:
            bench = get_benchmark(bench_name)
            data = bench.build_dataset(dataset_name, scale)
            rows.append((bench.name, dataset_name, _dataset_size(data)))
        bench = get_benchmark("BFS")
        road = bench.build_dataset("ROAD-NY", scale)
        rows.append(("BFS/...", "ROAD-NY", _dataset_size(road)))
        return Table1Result(rows)
    return _build_cached(artifacts, "table1", _artifact_spec(scale=scale),
                         build)


def _dataset_size(data):
    if hasattr(data, "num_vertices"):
        return "%d vertices, %d edges" % (data.num_vertices, data.num_edges)
    if hasattr(data, "num_clauses"):
        return "%d vars, %d clauses, %d literals" % (
            data.num_vars, data.num_clauses, data.num_literals)
    return "%d lines, max tess %d" % (data.num_lines, data.max_tess)


# -- Figure 9 ------------------------------------------------------------------

@dataclass
class SpeedupFigure:
    """Speedup-over-CDP series (Figs. 9 and 12 share this shape)."""

    title: str
    pairs: list                       # [(benchmark, dataset), ...]
    speedups: dict                    # (bench, ds) -> {label: speedup}
    best_params: dict = field(default_factory=dict)
    # (bench, ds, label) -> TuningParams

    def to_dict(self):
        """Structured JSON form: per-pair speedup rows, the geomean
        summary, and the tuned parameters behind each cell (the default
        ``GET /figure/<name>`` payload — see ``docs/serving.md``)."""
        return {
            "kind": "speedup",
            "title": self.title,
            "rows": [{"benchmark": bench, "dataset": dataset,
                      "speedups": dict(self.speedups[(bench, dataset)])}
                     for bench, dataset in self.pairs],
            "geomeans": self.geomeans(),
            "best_params": [
                {"benchmark": bench, "dataset": dataset, "label": label,
                 "params": asdict(params)}
                for (bench, dataset, label), params
                in self.best_params.items()],
        }

    def geomeans(self):
        # Union of labels across every row (a label missing from the
        # first pair's row must still reach the geomean table), in first-
        # appearance order.
        labels = []
        for row in self.speedups.values():
            for label in row:
                if label not in labels:
                    labels.append(label)
        return {label: geomean([self.speedups[p][label]
                                for p in self.pairs
                                if label in self.speedups[p]])
                for label in labels}

    def format(self):
        labels = [l for l in VARIANT_LABELS
                  if any(l in row for row in self.speedups.values())]
        headers = ["Benchmark", "Dataset"] + labels
        rows = []
        for pair in self.pairs:
            row = [pair[0], pair[1]]
            for label in labels:
                value = self.speedups[pair].get(label)
                row.append("%.2f" % value if value is not None else "-")
            rows.append(row)
        gm = self.geomeans()
        rows.append(["Geomean", ""] +
                    ["%.2f" % gm[label] for label in labels])
        return _format_table(headers, rows,
                             self.title + " (speedup over CDP; higher is "
                             "better)")


def _speedup_figure(title, pairs, scale, strategy, device_config, labels,
                    dataset_override=None, uncapped_threshold=False,
                    executor=None):
    device_config = device_config or DeviceConfig()
    speedups = {}
    best_params = {}
    for bench_name, dataset_name in pairs:
        bench = get_benchmark(bench_name)
        data = bench.build_dataset(dataset_override or dataset_name, scale)
        reference = run_variant(bench, data, "No CDP",
                                device_config=device_config,
                                keep_outputs=True)
        cdp = run_variant(bench, data, "CDP", device_config=device_config,
                          check_against=reference.outputs)
        row = {"No CDP": cdp.total_time / max(reference.total_time, 1),
               "CDP": 1.0}
        for label in labels:
            if label in ("No CDP", "CDP"):
                continue
            outcome = tune(bench, data, label, strategy, device_config,
                           check_against=reference.outputs,
                           uncapped=uncapped_threshold,
                           executor=executor, scale=scale)
            row[label] = cdp.total_time / max(outcome.best_time, 1)
            best_params[(bench_name, dataset_name, label)] = outcome.best
        speedups[(bench_name, dataset_name)] = row
    return SpeedupFigure(title, list(pairs), speedups, best_params)


def figure9(scale=0.25, strategy="guided", device_config=None,
            pairs=FIG9_PAIRS, executor=None, artifacts=None):
    """Fig. 9: all optimization combinations on all benchmark/dataset pairs.

    An *executor* (:class:`~repro.harness.sweep.SweepExecutor`) runs every
    tuning grid through the parallel/cached sweep engine; *artifacts* (a
    :class:`~repro.harness.cache.FigureArtifactCache` or its directory)
    caches the finished figure object itself.
    """
    spec = _artifact_spec(scale=scale, strategy=strategy,
                          device_config=device_config or DeviceConfig(),
                          pairs=pairs)
    return _build_cached(
        artifacts, "figure9", spec,
        lambda: _speedup_figure("Figure 9", pairs, scale, strategy,
                                device_config, VARIANT_LABELS,
                                executor=executor))


# -- Figure 10 -----------------------------------------------------------------

@dataclass
class BreakdownFigure:
    title: str
    rows: dict        # (bench, ds) -> {label: {component: normalized value}}

    COMPONENTS = ("parent", "child", "launch", "agg", "disagg")
    LABELS = ("KLAP (CDP+A)", "CDP+T+A", "CDP+T+C+A")

    def to_dict(self):
        """Structured JSON form: one row per (pair, variant) with the
        normalized component breakdown (``docs/serving.md``)."""
        return {
            "kind": "breakdown",
            "title": self.title,
            "components": list(self.COMPONENTS),
            "rows": [{"benchmark": bench, "dataset": dataset,
                      "variant": label,
                      "normalized": dict(by_label[label]),
                      "total": sum(by_label[label].values())}
                     for (bench, dataset), by_label in self.rows.items()
                     for label in self.LABELS],
        }

    def format(self):
        headers = ["Benchmark", "Dataset", "Variant"] + list(self.COMPONENTS) \
            + ["total"]
        table_rows = []
        for (bench, ds), by_label in self.rows.items():
            for label in self.LABELS:
                comp = by_label[label]
                table_rows.append(
                    [bench, ds, label]
                    + ["%.3f" % comp[c] for c in self.COMPONENTS]
                    + ["%.3f" % sum(comp.values())])
        return _format_table(
            headers, table_rows,
            self.title + " (normalized to KLAP (CDP+A) total; lower is "
            "better)")


def figure10(scale=0.25, strategy="guided", device_config=None,
             pairs=FIG9_PAIRS, executor=None, artifacts=None):
    """Fig. 10: execution-time breakdown of KLAP vs +T vs +T+C."""
    device_config = device_config or DeviceConfig()
    spec = _artifact_spec(scale=scale, strategy=strategy,
                          device_config=device_config, pairs=pairs)
    return _build_cached(
        artifacts, "figure10", spec,
        lambda: _figure10(scale, strategy, device_config, pairs, executor))


def _figure10(scale, strategy, device_config, pairs, executor):
    rows = {}
    for bench_name, dataset_name in pairs:
        bench = get_benchmark(bench_name)
        data = bench.build_dataset(dataset_name, scale)
        by_label = {}
        klap_total = None
        for label in BreakdownFigure.LABELS:
            outcome = tune(bench, data, label, strategy, device_config,
                           executor=executor, scale=scale)
            result = _run_point(bench, data, label, outcome.best,
                                device_config, executor, scale)
            total = sum(result.breakdown.values())
            if klap_total is None:
                klap_total = max(total, 1)
            by_label[label] = {c: v / klap_total
                               for c, v in result.breakdown.items()}
        rows[(bench_name, dataset_name)] = by_label
    return BreakdownFigure("Figure 10", rows)


# -- Figure 11 -----------------------------------------------------------------

@dataclass
class SweepFigure:
    title: str
    benchmark: str
    dataset: str
    coarsen_factor: int
    thresholds: list
    series: dict      # granularity-label -> {threshold: speedup-over-CDP}

    def to_dict(self):
        """Structured JSON form: the threshold axis plus one series per
        granularity; the unthresholded cell keys as ``"none"`` (JSON
        object keys must be strings — ``docs/serving.md``)."""
        def key(threshold):
            return "none" if threshold is None else str(threshold)
        return {
            "kind": "threshold-sweep",
            "title": self.title,
            "benchmark": self.benchmark,
            "dataset": self.dataset,
            "coarsen_factor": self.coarsen_factor,
            "thresholds": [key(t) for t in self.thresholds],
            "series": {label: {key(t): value
                               for t, value in points.items()}
                       for label, points in self.series.items()},
        }

    def format(self):
        headers = ["Threshold"] + list(self.series.keys())
        rows = []
        for threshold in self.thresholds:
            row = ["none" if threshold is None else str(threshold)]
            for label in self.series:
                value = self.series[label].get(threshold)
                row.append("%.2f" % value if value is not None else "-")
            rows.append(row)
        return _format_table(
            headers, rows,
            "%s: %s (%s), coarsening factor = %d (speedup over CDP)"
            % (self.title, self.benchmark, self.dataset,
               self.coarsen_factor))


def figure11(bench_name, dataset_name, scale=0.25, coarsen_factor=8,
             device_config=None, group_blocks=8, executor=None,
             artifacts=None):
    """Fig. 11: speedup vs threshold for each aggregation granularity.

    The coarsening factor is held at a fixed (good) value like the paper.
    Granularity 'none' is thresholding+coarsening without aggregation.
    The (granularity × threshold) grid is a static sweep; with an
    *executor* it fans out through the sweep engine in one batch.
    """
    device_config = device_config or DeviceConfig()
    spec = _artifact_spec(benchmark=bench_name, dataset=dataset_name,
                          scale=scale, coarsen_factor=coarsen_factor,
                          device_config=device_config,
                          group_blocks=group_blocks)
    return _build_cached(
        artifacts, "figure11", spec,
        lambda: _figure11(bench_name, dataset_name, scale, coarsen_factor,
                          device_config, group_blocks, executor))


def _figure11(bench_name, dataset_name, scale, coarsen_factor,
              device_config, group_blocks, executor):
    bench = get_benchmark(bench_name)
    data = bench.build_dataset(dataset_name, scale)
    reference = run_variant(bench, data, "No CDP",
                            device_config=device_config, keep_outputs=True)
    cdp = run_variant(bench, data, "CDP", device_config=device_config)
    thresholds = [None] + threshold_candidates(bench, data)
    cells = []
    for granularity in ("grid", "multiblock", "block", "warp", "none"):
        for threshold in thresholds:
            label = _sweep_label(threshold, granularity)
            if label is None:
                continue
            # mask_params pins group_blocks to the default unless the
            # granularity is multi-block, so non-multi-block cells map to
            # one cache key whatever group_blocks= the caller passed.
            params = mask_params(label, TuningParams(
                threshold=threshold,
                coarsen_factor=coarsen_factor,
                granularity=None if granularity == "none" else granularity,
                group_blocks=group_blocks))
            cells.append((granularity, threshold, label, params))
    if executor is not None:
        from .sweep import SweepPoint
        # The figure has no representation for a failed cell: force
        # failures to raise (with point attribution).
        results = executor.run(
            [SweepPoint(bench_name, dataset_name, label, params,
                        device_config, scale)
             for _, _, label, params in cells], on_error="raise")
        # Workers return timings only, so re-verify the fastest point
        # against the reference outputs (the serial path checks them all).
        best_index = min(range(len(results)),
                         key=lambda i: results[i].total_time)
        _, _, best_label, best_params = cells[best_index]
        run_variant(bench, data, best_label, best_params, device_config,
                    check_against=reference.outputs)
    else:
        results = [run_variant(bench, data, label, params, device_config,
                               check_against=reference.outputs)
                   for _, _, label, params in cells]
    series = {}
    for (granularity, threshold, _, _), result in zip(cells, results):
        points = series.setdefault(granularity, {})
        points[threshold] = cdp.total_time / max(result.total_time, 1)
    return SweepFigure("Figure 11", bench_name, dataset_name, coarsen_factor,
                       thresholds, series)


def _sweep_label(threshold, granularity):
    has_t = threshold is not None
    has_a = granularity != "none"
    if has_t and has_a:
        return "CDP+T+C+A"
    if has_t:
        return "CDP+T+C"
    if has_a:
        return "CDP+C+A"
    return "CDP+C"


# -- Figure 12 -----------------------------------------------------------------

def figure12(scale=0.25, strategy="guided", device_config=None,
             executor=None, artifacts=None):
    """Fig. 12: graph benchmarks on a road graph (low nested parallelism).

    Per Sec. VIII-D the threshold is tuned *beyond* the largest launch size
    here, so CDP+T may degenerate to serializing every child like No CDP.
    """
    pairs = [(name, "ROAD-NY") for name in FIG12_BENCHMARKS]
    spec = _artifact_spec(scale=scale, strategy=strategy,
                          device_config=device_config or DeviceConfig(),
                          pairs=pairs)
    return _build_cached(
        artifacts, "figure12", spec,
        lambda: _speedup_figure("Figure 12", pairs, scale, strategy,
                                device_config, VARIANT_LABELS,
                                uncapped_threshold=True, executor=executor))


# -- Sec. VIII-C fixed-threshold study ---------------------------------------

@dataclass
class FixedThresholdResult:
    tuned_geomean: float
    fixed_geomean: float
    per_pair: dict

    def to_dict(self):
        """Structured JSON form: per-pair tuned-vs-fixed speedups plus
        the two geomeans (``docs/serving.md``)."""
        return {
            "kind": "fixed-threshold",
            "title": "Sec. VIII-C: CDP+T+C+A speedup over CDP+C+A, "
                     "tuned threshold vs fixed threshold 128",
            "rows": [{"benchmark": bench, "dataset": dataset,
                      "tuned": tuned, "fixed": fixed}
                     for (bench, dataset), (tuned, fixed)
                     in self.per_pair.items()],
            "geomeans": {"tuned": self.tuned_geomean,
                         "fixed": self.fixed_geomean},
        }

    def format(self):
        rows = [(b, d, "%.2f" % v[0], "%.2f" % v[1])
                for (b, d), v in self.per_pair.items()]
        rows.append(("Geomean", "", "%.2f" % self.tuned_geomean,
                     "%.2f" % self.fixed_geomean))
        return _format_table(
            ("Benchmark", "Dataset", "tuned T", "T=128"), rows,
            "Sec. VIII-C: CDP+T+C+A speedup over CDP+C+A, tuned threshold "
            "vs fixed threshold 128")


def fixed_threshold_study(scale=0.25, strategy="guided", device_config=None,
                          pairs=FIG9_PAIRS, fixed=128, executor=None,
                          artifacts=None):
    """Sec. VIII-C: a fixed threshold of 128 still yields most of the gain."""
    device_config = device_config or DeviceConfig()
    spec = _artifact_spec(scale=scale, strategy=strategy,
                          device_config=device_config, pairs=pairs,
                          fixed=fixed)
    return _build_cached(
        artifacts, "fixed_threshold", spec,
        lambda: _fixed_threshold_study(scale, strategy, device_config,
                                       pairs, fixed, executor))


def _fixed_threshold_study(scale, strategy, device_config, pairs, fixed,
                           executor):
    per_pair = {}
    for bench_name, dataset_name in pairs:
        bench = get_benchmark(bench_name)
        data = bench.build_dataset(dataset_name, scale)
        base = tune(bench, data, "CDP+C+A", strategy, device_config,
                    executor=executor, scale=scale)
        tuned = tune(bench, data, "CDP+T+C+A", strategy, device_config,
                     executor=executor, scale=scale)
        fixed_params = TuningParams(
            threshold=fixed,
            coarsen_factor=tuned.best.coarsen_factor,
            granularity=tuned.best.granularity,
            group_blocks=tuned.best.group_blocks)
        fixed_run = _run_point(bench, data, "CDP+T+C+A", fixed_params,
                               device_config, executor, scale)
        per_pair[(bench_name, dataset_name)] = (
            base.best_time / max(tuned.best_time, 1),
            base.best_time / max(fixed_run.total_time, 1))
    tuned_gm = geomean([v[0] for v in per_pair.values()])
    fixed_gm = geomean([v[1] for v in per_pair.values()])
    return FixedThresholdResult(tuned_gm, fixed_gm, per_pair)
