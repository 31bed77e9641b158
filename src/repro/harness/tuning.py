"""Parameter tuning (Sec. VII / VIII-C).

The paper tunes three parameters per (benchmark, dataset, variant): the
launch threshold, the coarsening factor, and the aggregation granularity.
Two strategies are provided:

* ``exhaustive`` — full cross product (the paper's methodology for Figs. 9,
  11, 12);
* ``guided`` — the Sec. VIII-C observations: the best threshold admits a
  bounded number of dynamic launches, performance is insensitive to the
  coarsening factor once it is large enough (> 8), and warp granularity is
  never favorable; under ten runs usually land within a few percent of the
  tuned optimum.
"""

from dataclasses import dataclass, field

from ..sim.config import DeviceConfig
from .runner import child_launch_sizes, run_variant
from .variants import (ALL_GRANULARITIES, KLAP_GRANULARITIES, TuningParams,
                       uses)

#: Fig. 11's threshold axis (powers of two).
FULL_THRESHOLDS = tuple(1 << i for i in range(16))  # 1 .. 32768

DEFAULT_CFACTORS = (2, 8, 32)
DEFAULT_GROUP_BLOCKS = (2, 8, 32)


@dataclass
class TuneOutcome:
    """Best parameters found plus every point evaluated."""

    best: TuningParams
    best_time: int
    evaluated: list = field(default_factory=list)   # (params, total_time)


def threshold_candidates(bench, data, cap_to_largest=True, coarse=False):
    """Power-of-two thresholds up to the largest dynamic launch size.

    Sec. VII: "the threshold is not tuned beyond the largest dynamic launch
    size to ensure at least one dynamic launch is performed". With
    ``cap_to_largest=False`` one value beyond the largest launch is added —
    the Fig. 12 methodology, where CDP+T degenerates to serializing
    everything.
    """
    sizes = child_launch_sizes(bench, data)
    largest = max(sizes) if sizes else 1
    candidates = [t for t in FULL_THRESHOLDS if t <= largest]
    if not candidates:
        candidates = [1]
    if coarse:
        candidates = candidates[::2] or candidates
    if not cap_to_largest:
        beyond = next((t for t in FULL_THRESHOLDS if t > largest),
                      FULL_THRESHOLDS[-1])
        if beyond > candidates[-1]:
            candidates.append(beyond)
    return candidates


def _spaces(bench, data, label, strategy, klap_mode, uncapped=False):
    if strategy == "exhaustive":
        thresholds = threshold_candidates(bench, data,
                                          cap_to_largest=not uncapped)
        cfactors = DEFAULT_CFACTORS
        granularities = KLAP_GRANULARITIES if klap_mode else ALL_GRANULARITIES
        groups = DEFAULT_GROUP_BLOCKS
    else:
        thresholds = threshold_candidates(bench, data, coarse=True,
                                          cap_to_largest=not uncapped)
        # Sec. VIII-C: insensitive to the factor provided it is large enough.
        cfactors = (8,)
        # Sec. VIII-C: warp granularity is never favorable.
        granularities = tuple(
            g for g in (KLAP_GRANULARITIES if klap_mode
                        else ALL_GRANULARITIES) if g != "warp") or ("block",)
        groups = (8,)
    if not uses(label, "T"):
        thresholds = (None,)
    if not uses(label, "C"):
        cfactors = (None,)
    if not uses(label, "A"):
        granularities = (None,)
        groups = (8,)
    return thresholds, cfactors, granularities, groups


def _param_grid(thresholds, cfactors, granularities, groups):
    """The full cross product, in the historical evaluation order."""
    grid = []
    for threshold in thresholds:
        for cfactor in cfactors:
            for granularity in granularities:
                group_list = groups if granularity == "multiblock" else (8,)
                for group_blocks in group_list:
                    grid.append(TuningParams(threshold, cfactor, granularity,
                                             group_blocks))
    return grid


def _evaluate_grid(bench, data, label, grid, device_config=None,
                   executor=None, scale=None, check_against=None):
    """Total times for *grid*, in order: through the sweep engine when
    *executor* and the dataset *scale* are both given, else in-process
    with every point checked against *check_against* (if given).

    The tuners have no representation for a failed point, so the engine
    path forces failures to raise (with attribution) whatever the
    executor's default ``on_error`` is.
    """
    if executor is not None and scale is not None:
        from .sweep import SweepPoint
        device_config = device_config or DeviceConfig()
        dataset_name = getattr(data, "name", "?")
        points = [SweepPoint(bench.name, dataset_name, label, params,
                             device_config, scale) for params in grid]
        return [result.total_time
                for result in executor.run(points, on_error="raise")]
    return [run_variant(bench, data, label, params, device_config,
                        check_against=check_against).total_time
            for params in grid]


def tune(bench, data, label, strategy="guided", device_config=None,
         check_against=None, uncapped=False, executor=None, scale=None):
    """Search the parameter space for one variant.

    :param bench: benchmark object; *data* its built dataset.
    :param label: variant label; ``"KLAP (CDP+A)"`` restricts granularity
        to prior work's options.
    :param strategy: ``"guided"`` (Sec. VIII-C pruning, under ten runs)
        or ``"exhaustive"`` (full cross product).
    :param check_against: reference outputs; every evaluated point is
        verified against it (executor mode verifies the best point once —
        workers return timings only).
    :param uncapped: permit thresholds beyond the largest launch
        (the Fig. 12 methodology).
    :param executor: optional
        :class:`~repro.harness.sweep.SweepExecutor`; together with the
        dataset *scale* it fans the whole grid out through the sweep
        engine — parallel and cacheable. Failures always raise
        :class:`~repro.harness.sweep.SweepPointError` here (the tuner
        has no representation for a failed point), regardless of the
        executor's ``on_error``.
    :returns: a :class:`TuneOutcome` with the best params, its time, and
        every ``(params, total_time)`` evaluated.
    """
    klap_mode = label == "KLAP (CDP+A)"
    thresholds, cfactors, granularities, groups = _spaces(
        bench, data, label, strategy, klap_mode, uncapped)
    grid = _param_grid(thresholds, cfactors, granularities, groups)
    evaluated = list(zip(grid, _evaluate_grid(
        bench, data, label, grid, device_config, executor, scale,
        check_against)))
    best = None
    best_time = None
    for params, total_time in evaluated:
        if best_time is None or total_time < best_time:
            best, best_time = params, total_time
    if executor is not None and scale is not None and check_against is not None:
        run_variant(bench, data, label, best, device_config,
                    check_against=check_against)
    return TuneOutcome(best, best_time, evaluated)
