"""Experiment harness: variants, runner, tuning, sweeps, and figures."""

from .autotune import (QuickTuneResult, hill_climb, predict_threshold,
                       quick_tune)
from .cache import (CACHE_VERSION, CacheInfo, FigureArtifactCache,
                    PruneReport, ResultCache, decode_result, encode_result,
                    figure_key, point_key)
from .figures import (BreakdownFigure, FixedThresholdResult, SpeedupFigure,
                      SweepFigure, Table1Result, figure9, figure10, figure11,
                      figure12, fixed_threshold_study, table1)
from .runner import (RunResult, child_launch_sizes, geomean, outputs_match,
                     run_variant)
from .sweep import (PointFailure, SweepExecutor, SweepPoint,
                    SweepPointError, SweepStats, sweep_grid)
from .index import CacheIndex
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      REGISTRY)
from .queue import RequestScheduler
from .quota import (ApiKey, ApiKeyAuth, ClientQuota, QuotaLease,
                    QuotaManager, load_api_keys)
from .task import (PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL,
                   Provenance, Task, parse_priority, priority_label)
from .serve import ENDPOINTS, QueryService, ServeServer
from .tuning import (FULL_THRESHOLDS, TuneOutcome, threshold_candidates,
                     tune)
from .variants import (ALL_GRANULARITIES, KLAP_GRANULARITIES, VARIANT_LABELS,
                       TuningParams, mask_params, uses, variant_to_run)

__all__ = [
    "QuickTuneResult", "hill_climb", "predict_threshold", "quick_tune",
    "CACHE_VERSION", "CacheInfo", "FigureArtifactCache", "PruneReport",
    "ResultCache", "decode_result", "encode_result", "figure_key",
    "point_key",
    "PointFailure", "SweepExecutor", "SweepPoint", "SweepPointError",
    "SweepStats", "sweep_grid",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "CacheIndex",
    "RequestScheduler",
    "ApiKey", "ApiKeyAuth", "ClientQuota", "QuotaLease", "QuotaManager",
    "load_api_keys",
    "PRIORITY_HIGH", "PRIORITY_LOW", "PRIORITY_NORMAL", "Provenance",
    "Task", "parse_priority", "priority_label",
    "ENDPOINTS", "QueryService", "ServeServer",
    "BreakdownFigure", "FixedThresholdResult", "SpeedupFigure", "SweepFigure",
    "Table1Result", "figure9", "figure10", "figure11", "figure12",
    "fixed_threshold_study", "table1",
    "RunResult", "child_launch_sizes", "geomean", "outputs_match",
    "run_variant",
    "FULL_THRESHOLDS", "TuneOutcome", "threshold_candidates", "tune",
    "ALL_GRANULARITIES", "KLAP_GRANULARITIES", "VARIANT_LABELS",
    "TuningParams", "mask_params", "uses", "variant_to_run",
]
