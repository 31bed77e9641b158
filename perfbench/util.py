"""Helpers shared by the perfbench workloads: checkout paths, host probes,
percentiles, Prometheus text parsing, result digests, and the exact-counter
evidence file."""

import hashlib
import json
import os
import re
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (caches, server logs, span dumps).
WORK = os.path.join(ROOT, ".perfbench")


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` — never from an
    installed copy, so a checkout without sources fails loudly."""
    package = os.path.join(SRC, "repro")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise BenchError("no repro sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) != package:
        raise BenchError("repro was imported from %s, not %s"
                         % (repro.__file__, package))
    return repro


def work_dir(prefix):
    """A fresh directory under :data:`WORK`."""
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK)


def calibrate(iterations=1_000_000, clock=time.perf_counter):
    """Seconds for a fixed pure-interpreter loop: the host-drift probe.

    The simulator is CPython-bound like this loop, so a run whose probe
    slowed down ran on a slower host, not on slower code.
    """
    started = clock()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return clock() - started


#: The short probe interleaved with the work (about 5 ms), and what it
#: takes on the reference host that normalized times are expressed in.
PROBE_ITERATIONS = 50_000
PROBE_REFERENCE_S = 0.005


def probe():
    return calibrate(PROBE_ITERATIONS)


def host_scale(probes):
    """The factor that turns wall seconds measured between *probes* into
    reference-host seconds.

    A shared vCPU here runs the same code up to twice as fast at one
    moment as at another, for minutes at a time. A probe taken on the
    same thread right after each piece of work slows down with it; a
    probe on the other vCPU does not.
    """
    return PROBE_REFERENCE_S * len(probes) / sum(probes)


def peak_rss_mb(pid="self"):
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open("/proc/%s/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for process %s" % pid)


def percentile(samples, pct):
    """Linear-interpolated percentile of *samples* (0 for no samples)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples):
    return statistics.median(samples) if samples else 0.0


def digest(payloads):
    """SHA-256 over JSON-able payloads (RunResult dicts, in order)."""
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """``[(name, labels, value)]`` for every sample line of a Prometheus
    text exposition (``GET /metrics`` or ``REGISTRY.render()``)."""
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is not None:
            name, labels, value = match.groups()
            samples.append((name, dict(_LABEL.findall(labels or "")),
                            float(value)))
    return samples


def prom_total(samples, name, **labels):
    """Sum of every series of *name* whose labels include *labels*."""
    return sum(value for sample_name, sample_labels, value in samples
               if sample_name == name
               and all(sample_labels.get(k) == v for k, v in labels.items()))


def check_evidence(key, counters):
    """Compare exact counters with an earlier run of the same inputs in
    this checkout and record them. Returns the names that differ.

    Simulated statistics must not depend on host speed, so two runs with
    the same seed agree exactly or one of them is wrong.
    """
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "evidence.json")
    try:
        with open(path) as handle:
            stored = json.load(handle)
    except (OSError, ValueError):
        stored = {}
    previous = stored.get(key, {})
    differing = sorted(name for name, value in counters.items()
                       if name in previous and previous[name] != value)
    stored[key] = dict(previous, **counters)
    fd, tmp = tempfile.mkstemp(dir=WORK, suffix=".tmp")
    with os.fdopen(fd, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return differing
