"""Practical tuning, after Sec. VIII-C.

The paper observes that exhaustive search is unnecessary in practice:

1. the best threshold is typically the one that still admits a bounded
   number of dynamic launches (6,000–8,000 on the paper's datasets — a
   fixed *fraction* of the original launches at our scaled sizes);
2. performance is insensitive to the coarsening factor once it is large
   enough (> 8);
3. warp granularity is never favorable;

so "users can typically find a combination of parameters that is very close
to the best with less than ten runs". :func:`quick_tune` implements exactly
that recipe; :func:`hill_climb` is a budgeted coordinate-descent refinement
for users who can afford a few more runs (the paper points at off-the-shelf
autotuners like OpenTuner for this role).
"""

from dataclasses import dataclass, field

from .runner import child_launch_sizes, run_variant
from .tuning import FULL_THRESHOLDS
from .variants import TuningParams, uses


def predict_threshold(bench, data, keep_fraction=0.25):
    """The Sec. VIII-C threshold rule: pick the smallest power-of-two
    threshold that still admits about *keep_fraction* of the original
    dynamic launches (the scaled analogue of "6,000-8,000 launches")."""
    sizes = sorted(child_launch_sizes(bench, data))
    if not sizes:
        return 1
    target = max(1, int(len(sizes) * keep_fraction))
    for threshold in FULL_THRESHOLDS:
        admitted = len(sizes) - _count_below(sizes, threshold)
        if admitted <= target:
            return threshold
    return FULL_THRESHOLDS[-1]


def _count_below(sorted_sizes, threshold):
    lo, hi = 0, len(sorted_sizes)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_sizes[mid] < threshold:
            lo = mid + 1
        else:
            hi = mid
    return lo


@dataclass
class QuickTuneResult:
    best: TuningParams
    best_time: int
    runs: int
    evaluated: list = field(default_factory=list)


def quick_tune(bench, data, label="CDP+T+C+A", device_config=None,
               keep_fraction=0.25, executor=None, scale=None):
    """The paper's under-ten-runs recipe.

    Fixes the coarsening factor at 8 (observation 2), predicts the threshold
    from the launch-size distribution (observation 1), and tries the
    non-warp granularities (observation 3) around the predicted threshold.

    :param keep_fraction: passed to :func:`predict_threshold`.
    :param executor: optional
        :class:`~repro.harness.sweep.SweepExecutor`; with the dataset
        *scale* the candidate grid runs through the sweep engine
        (parallel, cacheable, shardable) instead of serially. Point
        failures raise :class:`~repro.harness.sweep.SweepPointError`.
    :returns: a :class:`QuickTuneResult` (best params, best time, run
        count, and every point evaluated).
    """
    threshold = predict_threshold(bench, data, keep_fraction) \
        if uses(label, "T") else None
    cfactor = 8 if uses(label, "C") else None
    granularities = ("block", "multiblock", "grid") if uses(label, "A") \
        else (None,)
    thresholds = [threshold]
    if threshold is not None and threshold > 1:
        thresholds.append(max(1, threshold // 4))

    grid = [TuningParams(thr, cfactor, gran, group_blocks=8)
            for gran in granularities for thr in thresholds]
    times = _evaluate_grid(bench, data, label, grid, device_config,
                           executor, scale)
    best = None
    best_time = None
    evaluated = []
    for params, total_time in zip(grid, times):
        evaluated.append((params, total_time))
        if best_time is None or total_time < best_time:
            best, best_time = params, total_time
    return QuickTuneResult(best, best_time, len(evaluated), evaluated)


def _evaluate_grid(bench, data, label, grid, device_config, executor, scale):
    """Total times for *grid*, via the sweep engine when one is supplied."""
    if executor is not None and scale is not None:
        from .sweep import SweepPoint
        from ..sim.config import DeviceConfig
        device_config = device_config or DeviceConfig()
        dataset_name = getattr(data, "name", "?")
        points = [SweepPoint(bench.name, dataset_name, label, params,
                             device_config, scale) for params in grid]
        # Tuners cannot represent failed points: force failures to raise.
        return [result.total_time
                for result in executor.run(points, on_error="raise")]
    return [run_variant(bench, data, label, params, device_config).total_time
            for params in grid]


def hill_climb(bench, data, label="CDP+T+C+A", start=None, budget=24,
               device_config=None, executor=None, scale=None):
    """Coordinate-descent refinement from a starting point.

    Moves one parameter at a time to its neighboring value (threshold and
    coarsening factor by powers of two; granularity across the non-warp
    options) and keeps improvements, until the run budget is exhausted or a
    local optimum is reached.

    :param start: starting :class:`~repro.harness.variants.TuningParams`
        (default: :func:`quick_tune`'s best).
    :param budget: maximum distinct parameter points to evaluate.
    :param executor: optional
        :class:`~repro.harness.sweep.SweepExecutor`; with *scale* it
        makes each evaluation cacheable across invocations. The search
        itself stays sequential because each step depends on the
        previous one.
    :returns: a :class:`QuickTuneResult`; ``evaluated`` is sorted
        best-first.
    """
    if start is None:
        start = quick_tune(bench, data, label, device_config=device_config,
                           executor=executor, scale=scale).best
    seen = {}

    def evaluate(params):
        if params in seen:
            return seen[params]
        total_time, = _evaluate_grid(bench, data, label, [params],
                                     device_config, executor, scale)
        seen[params] = total_time
        return total_time

    current = start
    current_time = evaluate(current)
    improved = True
    while improved and len(seen) < budget:
        improved = False
        for neighbor in _neighbors(current, label):
            if len(seen) >= budget:
                break
            time = evaluate(neighbor)
            if time < current_time:
                current, current_time = neighbor, time
                improved = True
    return QuickTuneResult(current, current_time, len(seen),
                           sorted(seen.items(),
                                  key=lambda item: item[1]))


def _neighbors(params, label):
    neighbors = []
    if uses(label, "T") and params.threshold is not None:
        for factor in (2, 0.5):
            value = max(1, int(params.threshold * factor))
            if value != params.threshold:
                neighbors.append(
                    TuningParams(value, params.coarsen_factor,
                                 params.granularity, params.group_blocks))
    if uses(label, "C") and params.coarsen_factor is not None:
        for factor in (2, 0.5):
            value = max(1, int(params.coarsen_factor * factor))
            if value != params.coarsen_factor:
                neighbors.append(
                    TuningParams(params.threshold, value,
                                 params.granularity, params.group_blocks))
    if uses(label, "A") and params.granularity is not None:
        for gran in ("block", "multiblock", "grid"):
            if gran != params.granularity:
                neighbors.append(
                    TuningParams(params.threshold, params.coarsen_factor,
                                 gran, params.group_blocks))
        if params.granularity == "multiblock":
            for group in (params.group_blocks * 2,
                          max(2, params.group_blocks // 2)):
                if group != params.group_blocks:
                    neighbors.append(
                        TuningParams(params.threshold,
                                     params.coarsen_factor,
                                     "multiblock", group))
    return neighbors
