"""Span tracing for the traced run (``--trace 1``).

Spans are recorded around calls into each layer's public functions, from
this file only — nothing under ``src/`` changes. :meth:`Tracer.install`
swaps timing wrappers onto those functions and :meth:`Tracer.uninstall`
restores the originals, so an untraced phase runs the stock code.

=============================  ==========================================
span                           wrapped callable
=============================  ==========================================
``transforms.transform``       ``repro.transforms.transform``
``engine.codegen.compile``     ``compile_artifact`` as bound in
                               ``repro.engine.cache`` (parse + codegen +
                               ``compile()``)
``engine.module.instantiate``  ``Module.from_artifact``
``engine.executor.drive``      every benchmark's ``drive(Device(...),
                               data)``: functional execution
``sim.scheduler.simulate``     ``Device.finish``: timing simulation
``sim.metrics.breakdown``      ``Device.breakdown``
``harness.cache.get`` / put    ``ResultCache.get`` / ``ResultCache.put``
``harness.sweep.run``          ``SweepExecutor.run``
``datasets.build``             every benchmark's ``build_dataset``
``harness.runner.check``       ``outputs_match`` of a driven point against
                               its pair's ``No CDP`` outputs
=============================  ==========================================

A span's self time is its duration minus the time its child spans cover.
"""

import functools
import itertools
import json
import threading
import time

#: Per-layer metric name -> the span whose seconds it reports.
LAYER_SECONDS = {
    "engine.executor.drive_s": "engine.executor.drive",
    "sim.scheduler.simulate_s": "sim.scheduler.simulate",
    "sim.metrics.breakdown_s": "sim.metrics.breakdown",
    "transforms.transform_s": "transforms.transform",
    "engine.codegen.compile_s": "engine.codegen.compile",
    "engine.module.instantiate_s": "engine.module.instantiate",
    "harness.runner.check_s": "harness.runner.check",
    "harness.cache.get_s": "harness.cache.get",
    "harness.cache.put_s": "harness.cache.put",
    "datasets.build_s": "datasets.build",
}

#: Exact counters taken at the drive boundary; the same inputs must give
#: the same values on any host.
EXECUTOR_COUNTS = ("engine.executor.threads",
                   "engine.executor.barrier_threads",
                   "engine.executor.grids", "engine.executor.blocks")


def add_rates(metrics):
    """Add the executor's threads per second and the timing simulator's
    blocks per second to per-layer *metrics*."""
    metrics["engine.executor.threads_per_s"] = (
        metrics["engine.executor.threads"]
        / max(metrics["engine.executor.drive_s"], 1e-12))
    metrics["sim.scheduler.blocks_per_s"] = (
        metrics["engine.executor.blocks"]
        / max(metrics["sim.scheduler.simulate_s"], 1e-12))


class Tracer:
    """In-memory spans and exact counters, safe across threads.

    *references* maps ``(benchmark, dataset)`` to the pair's ``No CDP``
    driver outputs; every driven point whose pair has one is checked
    against it.
    """

    def __init__(self, references=None):
        self.references = references or {}
        self.spans = []                 # (span_id, parent_id, name, start, end)
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- recording ------------------------------------------------------------

    def call(self, name, func, *args, **kwargs):
        """Run ``func(*args, **kwargs)`` inside a span called *name*.

        A call made while the innermost open span already has *name*
        (MSTV builds its datasets through MSTF) is not a new span.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack and stack[-1][1] == name:
            return func(*args, **kwargs)
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        started = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, started, ended))

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def mark(self):
        """A position to measure from: (spans so far, counter copy)."""
        with self._lock:
            return len(self.spans), dict(self.counts)

    def totals(self, start, end=None):
        """Seconds, self seconds and calls per span name, and counter
        deltas, between two :meth:`mark` positions (*end* None = now)."""
        end = end or self.mark()
        spans = self.spans[start[0]:end[0]]
        covered = {}
        for _, parent, _, started, ended in spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + ended - started
        seconds, self_seconds, calls = {}, {}, {}
        for span_id, _, name, started, ended in spans:
            duration = ended - started
            seconds[name] = seconds.get(name, 0.0) + duration
            self_seconds[name] = (self_seconds.get(name, 0.0) + duration
                                  - covered.get(span_id, 0.0))
            calls[name] = calls.get(name, 0) + 1
        counts = {name: value - start[1].get(name, 0)
                  for name, value in end[1].items()}
        return {"seconds": seconds, "self_seconds": self_seconds,
                "calls": calls, "counts": counts}

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for span_id, parent, name, started, ended in list(self.spans):
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "name": name, "start": started,
                                         "end": ended}) + "\n")

    # -- counters taken at span boundaries ------------------------------------

    def _after_compile(self, artifact, *args):
        self.count("engine.codegen.source_bytes", len(artifact.python_source))

    def _after_drive(self, outputs, bench, device, data, *args):
        threads = barrier_threads = blocks = 0
        for grid in device.trace.grids:
            grid_threads = grid.grid_dim * grid.block_dim
            threads += grid_threads
            blocks += grid.grid_dim
            if device.module.kernel(grid.kernel).has_barrier:
                barrier_threads += grid_threads
        self.count("engine.executor.threads", threads)
        self.count("engine.executor.barrier_threads", barrier_threads)
        self.count("engine.executor.blocks", blocks)
        self.count("engine.executor.grids", len(device.trace.grids))
        reference = self.references.get((bench.name, getattr(data, "name",
                                                             None)))
        if reference is not None:
            from repro.harness.runner import outputs_match
            matched = self.call("harness.runner.check", outputs_match,
                                reference, outputs)
            self.count("harness.runner.checks")
            if not matched:
                self.count("harness.runner.mismatches")

    def _after_finish(self, timing, *args):
        self.count("sim.total_cycles", int(timing.total_time))
        self.count("sim.device_launches", int(timing.device_launches))

    # -- patching -------------------------------------------------------------

    def _wrap(self, owner, attr, name, after=None):
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, func, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        setattr(owner, attr,
                classmethod(wrapper) if isinstance(raw, classmethod)
                else wrapper)
        self._patches.append((owner, attr, raw))

    def install(self):
        """Wrap every layer boundary listed in the module docstring."""
        from repro import transforms
        from repro.benchmarks import all_benchmarks
        from repro.engine import cache as engine_cache
        from repro.engine.module import Module
        from repro.harness.cache import ResultCache
        from repro.harness.sweep import SweepExecutor
        from repro.runtime.host import Device

        self._wrap(transforms, "transform", "transforms.transform")
        self._wrap(engine_cache, "compile_artifact", "engine.codegen.compile",
                   after=self._after_compile)
        self._wrap(Module, "from_artifact", "engine.module.instantiate")
        classes = {type(bench) for bench in all_benchmarks()}
        for cls in sorted(classes, key=lambda c: c.__name__):
            if "drive" in vars(cls):
                self._wrap(cls, "drive", "engine.executor.drive",
                           after=self._after_drive)
            if "build_dataset" in vars(cls):
                self._wrap(cls, "build_dataset", "datasets.build")
        self._wrap(Device, "finish", "sim.scheduler.simulate",
                   after=self._after_finish)
        self._wrap(Device, "breakdown", "sim.metrics.breakdown")
        self._wrap(ResultCache, "get", "harness.cache.get")
        self._wrap(ResultCache, "put", "harness.cache.put")
        self._wrap(SweepExecutor, "run", "harness.sweep.run")

    def uninstall(self):
        """Restore every wrapped callable (idempotent)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
