"""In-process metrics: counters, gauges, and histograms with Prometheus
text exposition — stdlib only.

Every serving-path layer (HTTP service, request scheduler, sweep
executor, result/figure caches, quotas) records into one shared
:class:`MetricsRegistry` (:data:`REGISTRY`); ``repro serve`` exposes it
as ``GET /metrics`` in the Prometheus text format (version 0.0.4), so a
stock Prometheus/Grafana stack can scrape a running service without any
third-party client library.

The model is deliberately small:

* :class:`Counter` — monotonically increasing totals
  (``repro_serve_requests_total``);
* :class:`Gauge` — instantaneous values that go both ways
  (``repro_queue_depth``);
* :class:`Histogram` — cumulative-bucket latency distributions
  (``repro_sweep_point_seconds``).

Metrics may carry labels; a metric object handed out by the registry is
shared by name, so repeated ``REGISTRY.counter("x", ...)`` calls return
the same object (with the same label names — a mismatch is a bug and
raises). All operations are thread-safe.

>>> registry = MetricsRegistry()
>>> hits = registry.counter("demo_hits_total", "demo hits", ("kind",))
>>> hits.inc(kind="warm"); hits.inc(2, kind="warm")
>>> hits.value(kind="warm")
3.0
>>> print(registry.render().splitlines()[2])
demo_hits_total{kind="warm"} 3
"""

import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
           "DEFAULT_BUCKETS"]

#: Default histogram bucket upper bounds (seconds): sub-millisecond warm
#: hits through multi-minute cold sweeps.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

_INF = float("inf")


def _format_value(value):
    """Prometheus sample value: integers render without the trailing .0."""
    if value == _INF:
        return "+Inf"
    if value == float(int(value)):
        return "%d" % int(value)
    return repr(value)


def _escape_label(value):
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_suffix(labelnames, labelvalues, extra=()):
    pairs = list(zip(labelnames, labelvalues)) + list(extra)
    if not pairs:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (name, _escape_label(value))
                             for name, value in pairs)


class _Metric:
    """Shared bookkeeping: one named metric, samples keyed by label values."""

    kind = None

    def __init__(self, name, help_text, labelnames, lock):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._samples = {}

    def _key(self, labels):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                "%s %s takes labels %r, got %r"
                % (self.kind, self.name, self.labelnames,
                   tuple(sorted(labels))))
        return tuple(str(labels[name]) for name in self.labelnames)

    def clear(self):
        """Drop every sample (tests; a live service never calls this)."""
        with self._lock:
            self._samples.clear()


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount=1, **labels):
        if amount < 0:
            raise ValueError("counters only go up (amount=%r)" % (amount,))
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels):
        with self._lock:
            return float(self._samples.get(self._key(labels), 0.0))

    def _render(self, lines):
        for key, value in sorted(self._samples.items()):
            lines.append("%s%s %s" % (self.name,
                                      _label_suffix(self.labelnames, key),
                                      _format_value(value)))
        if not self._samples and not self.labelnames:
            lines.append("%s 0" % self.name)


class Gauge(_Metric):
    """An instantaneous value that can move both ways."""

    kind = "gauge"

    def set(self, value, **labels):
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount=1, **labels):
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount=1, **labels):
        self.inc(-amount, **labels)

    def value(self, **labels):
        with self._lock:
            return float(self._samples.get(self._key(labels), 0.0))

    def _render(self, lines):
        for key, value in sorted(self._samples.items()):
            lines.append("%s%s %s" % (self.name,
                                      _label_suffix(self.labelnames, key),
                                      _format_value(value)))
        if not self._samples and not self.labelnames:
            lines.append("%s 0" % self.name)


class Histogram(_Metric):
    """Cumulative-bucket distribution (the Prometheus histogram type)."""

    kind = "histogram"

    def __init__(self, name, help_text, labelnames, lock,
                 buckets=DEFAULT_BUCKETS):
        super().__init__(name, help_text, labelnames, lock)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram %s needs at least one bucket" % name)

    def observe(self, value, **labels):
        key = self._key(labels)
        value = float(value)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                sample = self._samples[key] = \
                    {"counts": [0] * len(self.buckets), "sum": 0.0,
                     "count": 0}
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    sample["counts"][index] += 1
            sample["sum"] += value
            sample["count"] += 1

    def count(self, **labels):
        with self._lock:
            sample = self._samples.get(self._key(labels))
            return 0 if sample is None else sample["count"]

    def sum(self, **labels):
        with self._lock:
            sample = self._samples.get(self._key(labels))
            return 0.0 if sample is None else sample["sum"]

    def _render(self, lines):
        for key, sample in sorted(self._samples.items()):
            # ``observe`` increments every bucket the value fits in, so
            # the stored counts are already cumulative (the Prometheus
            # histogram contract).
            for bound, count in zip(self.buckets, sample["counts"]):
                lines.append("%s_bucket%s %s" % (
                    self.name,
                    _label_suffix(self.labelnames, key,
                                  extra=(("le", _format_value(bound)),)),
                    _format_value(count)))
            lines.append("%s_bucket%s %s" % (
                self.name,
                _label_suffix(self.labelnames, key,
                              extra=(("le", "+Inf"),)),
                _format_value(sample["count"])))
            suffix = _label_suffix(self.labelnames, key)
            lines.append("%s_sum%s %s" % (self.name, suffix,
                                          _format_value(sample["sum"])))
            lines.append("%s_count%s %s" % (self.name, suffix,
                                            _format_value(sample["count"])))


class MetricsRegistry:
    """A named collection of metrics with one text exposition.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    registers the metric, later calls return the same object (and verify
    the kind and label names still agree, so two subsystems cannot
    silently fight over one name).
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics = {}

    def _get_or_create(self, cls, name, help_text, labelnames, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls) \
                        or metric.labelnames != tuple(labelnames):
                    raise ValueError(
                        "metric %r already registered as a %s with labels "
                        "%r" % (name, metric.kind, metric.labelnames))
                return metric
            metric = cls(name, help_text, labelnames, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name, help_text, labelnames=()):
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name, help_text, labelnames=()):
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(self, name, help_text, labelnames=(),
                  buckets=DEFAULT_BUCKETS):
        return self._get_or_create(Histogram, name, help_text, labelnames,
                                   buckets=buckets)

    def names(self):
        with self._lock:
            return sorted(self._metrics)

    def series_count(self):
        """Number of live (metric, labelset) series — the summary figure
        ``/cache/info`` reports."""
        with self._lock:
            return sum(max(1, len(m._samples)) if not m.labelnames
                       else len(m._samples)
                       for m in self._metrics.values())

    def reset(self):
        """Drop every sample but keep registrations (tests only — module-
        level metric objects stay valid)."""
        with self._lock:
            for metric in self._metrics.values():
                metric._samples.clear()

    def render(self):
        """The full registry in Prometheus text exposition format 0.0.4
        (the ``GET /metrics`` response body)."""
        lines = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                lines.append("# HELP %s %s"
                             % (name, metric.help.replace("\\", "\\\\")
                                .replace("\n", "\\n")))
                lines.append("# TYPE %s %s" % (name, metric.kind))
                metric._render(lines)
        return "\n".join(lines) + "\n"


#: The process-wide registry every harness layer records into and
#: ``GET /metrics`` renders.
REGISTRY = MetricsRegistry()
