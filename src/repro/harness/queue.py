"""Request scheduler for the query service's miss path.

PR 4's ``repro serve`` serialized every cache miss behind one executor
lock, so a single cold ``/sweep`` stalled every other cold request. This
module replaces that lock with a :class:`RequestScheduler`: a bounded
**deadline-aware priority queue** drained by a configurable number of
worker threads (``--miss-workers``), each owning its own
:class:`~repro.harness.sweep.SweepExecutor` (an executor is not safe for
concurrent ``run`` calls, so concurrency comes from *multiple*
executors sharing one :class:`~repro.harness.cache.ResultCache`, which
is multi-process safe by construction).

The unit of scheduling is the :class:`~repro.harness.task.Task` record
(point + key + priority class + absolute deadline + provenance). The
queue is a heap ordered by ``(priority, seq)``:

* **Priority classes, FIFO within a class.** Lower priority ints run
  first; ``seq`` (monotonic submission order) breaks ties, so within a
  class ordering is strictly first-come-first-served — no task can
  starve another of equal priority. Under default settings (everything
  ``PRIORITY_NORMAL``, no deadlines) the heap degenerates to exactly
  the old FIFO.
* **Deadline shedding.** A task whose absolute deadline has passed is
  *shed* — resolved as a structured ``DeadlineExceededError``
  :class:`~repro.harness.sweep.PointFailure` without ever touching the
  simulator: at submit time (``expired-on-submit``) or when a worker
  pops it (``expired-in-queue``). Sheds are counted on
  ``repro_queue_shed_total{reason}`` and the instance's ``shed``
  counter, separate from executor failures.
* **Per-point in-flight deduplication.** Tasks are keyed by
  :func:`~repro.harness.cache.point_key` (the masked, content-addressed
  spec): while a point is queued or running, further submissions for the
  same key *join* the existing task instead of enqueueing a duplicate.
  A join adopts the **tightest deadline** and **highest priority** of
  its joiners (a queued task is re-heaped keeping its original ``seq``,
  so it still queues FIFO among its new classmates).
* **Bounded queue / backpressure.** At most *max_pending* tasks may be
  queued; past that :meth:`submit` raises
  :class:`~repro.errors.QueueFullError`, which the HTTP layer maps to
  ``503`` so clients back off instead of piling onto a saturated
  simulator.
* **Graceful drain.** :meth:`close` (``drain=True``, the default) stops
  intake, lets queued and in-flight tasks finish, then joins the
  workers — an in-flight miss is never killed mid-write. With
  ``drain=False`` pending tasks resolve to structured
  :class:`~repro.harness.sweep.PointFailure` entries so no waiter hangs.

Every transition is mirrored into :mod:`repro.harness.metrics`
(``repro_queue_*`` series; depth is labeled per priority class) and
counted on the instance (:meth:`stats_dict`, surfaced by
``GET /cache/info``).
"""

import heapq
import threading
import time

from ..errors import QueueClosedError, QueueFullError
from .cache import point_key
from .metrics import REGISTRY
from .sweep import PointFailure
from .task import (PRIORITY_NORMAL, Task, metric_priority_label,
                   priority_label)

__all__ = ["RequestScheduler"]

_SUBMITTED = REGISTRY.counter(
    "repro_queue_submitted_total",
    "Miss tasks accepted into the scheduler queue")
_DEDUP_JOINS = REGISTRY.counter(
    "repro_queue_dedup_joins_total",
    "Submissions that joined an already queued/running task for the "
    "same point key instead of enqueueing a duplicate")
_REJECTED = REGISTRY.counter(
    "repro_queue_rejected_total",
    "Submissions rejected by the scheduler", ("reason",))
_COMPLETED = REGISTRY.counter(
    "repro_queue_completed_total",
    "Miss tasks finished by a scheduler worker", ("outcome",))
_SHED = REGISTRY.counter(
    "repro_queue_shed_total",
    "Tasks shed (resolved as DeadlineExceededError PointFailures "
    "without simulating) because their deadline passed", ("reason",))
_DEPTH = REGISTRY.gauge(
    "repro_queue_depth",
    "Tasks waiting in the scheduler queue, per priority class",
    ("priority",))
_INFLIGHT = REGISTRY.gauge(
    "repro_queue_inflight", "Tasks currently running on a worker")
_WAIT = REGISTRY.histogram(
    "repro_queue_wait_seconds",
    "Seconds a task waited between submission and execution start")


class RequestScheduler:
    """Deadline-aware priority miss queue with dedup, workers, and drain.

    *executors* is a non-empty list of
    :class:`~repro.harness.sweep.SweepExecutor`\\ s — one dedicated
    worker thread per executor (the executors should share one cache but
    must not be shared between threads). The scheduler does **not** own the
    executors; callers close them after :meth:`close` returns.
    """

    def __init__(self, executors, max_pending=64):
        executors = list(executors)
        if not executors:
            raise ValueError("RequestScheduler needs at least one executor")
        self.max_pending = max(1, int(max_pending))
        self._cond = threading.Condition()
        self._heap = []                 # [priority, seq, task-or-None]
        self._queued = 0                # live (non-stale) heap entries
        self._seq = 0
        self._by_key = {}               # key -> queued/running Task
        self._running = 0
        self._closed = False
        # Instance-exact counters (the global REGISTRY aggregates across
        # every scheduler in the process; these back /cache/info).
        self.submitted = 0
        self.dedup_joins = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self._threads = [
            threading.Thread(target=self._worker, args=(executor,),
                             name="repro-miss-%d" % index, daemon=True)
            for index, executor in enumerate(executors)]
        for thread in self._threads:
            thread.start()

    @property
    def workers(self):
        return len(self._threads)

    # -- intake ---------------------------------------------------------------

    def submit(self, point, priority=PRIORITY_NORMAL, deadline=None,
               provenance=None):
        """Queue *point* (or join its in-flight task) — :meth:`submit_all`
        for a batch of one; returns the :class:`~repro.harness.task.Task`
        to :meth:`result` on.

        *priority* is an int class (lower runs first), *deadline* an
        absolute ``time.monotonic()`` timestamp or None. A submission
        whose deadline has already passed is shed immediately — the
        returned task is already resolved to a ``DeadlineExceededError``
        :class:`~repro.harness.sweep.PointFailure` and never queues, nor
        joins an in-flight task (one caller's spent budget must not fail
        other waiters on the same key).

        Raises :class:`~repro.errors.QueueFullError` when *max_pending*
        tasks are already queued and
        :class:`~repro.errors.QueueClosedError` once the scheduler is
        draining — both well-formed-but-unservable (HTTP 503).
        """
        return self.submit_all([point], priority, deadline, provenance)[0]

    def submit_all(self, points, priority=PRIORITY_NORMAL, deadline=None,
                   provenance=None):
        """Atomically queue a batch in order (one lock hold, so another
        request cannot interleave into the middle of this one); returns
        one task per point, deduplicated against in-flight tasks and
        within the batch. The whole batch shares one
        priority/deadline/provenance; an expired deadline sheds every
        point individually without queueing any — and without joining
        in-flight tasks, whose waiters must not inherit the spent
        deadline."""
        with self._cond:
            if self._closed:
                self.rejected += 1
                _REJECTED.inc(reason="closed")
                raise QueueClosedError(
                    "the miss scheduler is shutting down")
            expired = deadline is not None \
                and time.monotonic() >= deadline
            # Plan first, mutate nothing: a rejected batch must leave
            # every counter (and other requests' live tasks) untouched.
            plan = []                   # (key, point, existing-or-None)
            fresh_keys = []
            seen = set()
            for point in points:
                key = point_key(point)
                existing = self._by_key.get(key)
                plan.append((key, point, existing))
                if existing is None and key not in seen:
                    seen.add(key)
                    fresh_keys.append(key)
            if not expired and self._queued + len(fresh_keys) \
                    > self.max_pending:
                self.rejected += 1
                _REJECTED.inc(reason="full")
                raise QueueFullError(
                    "miss queue full (%d pending + %d new > %d; retry "
                    "later)" % (self._queued, len(fresh_keys),
                                self.max_pending))
            tasks = []
            fresh = {}                  # key -> task created in this batch
            for key, point, existing in plan:
                if existing is not None and not expired:
                    self._join_locked(existing, priority, deadline)
                    tasks.append(existing)
                    continue
                task = fresh.get(key)
                if task is not None:
                    task.joins += 1
                    self.dedup_joins += 1
                    _DEDUP_JOINS.inc()
                elif expired:
                    task = self._shed_new_locked(
                        key, point, priority, deadline, provenance,
                        reason="expired-on-submit")
                    fresh[key] = task
                else:
                    task = self._enqueue_locked(key, point, priority,
                                                deadline, provenance)
                    fresh[key] = task
                tasks.append(task)
            self._cond.notify(len(fresh))
        return tasks

    def _enqueue_locked(self, key, point, priority, deadline, provenance):
        self._seq += 1
        task = Task(key, point, priority=priority, deadline=deadline,
                    provenance=provenance, seq=self._seq)
        task.entry = [priority, task.seq, task]
        heapq.heappush(self._heap, task.entry)
        self._queued += 1
        self._by_key[key] = task
        self.submitted += 1
        _SUBMITTED.inc()
        _DEPTH.inc(priority=metric_priority_label(priority))
        return task

    def _join_locked(self, task, priority, deadline):
        """Join *task*, adopting the tightest deadline / highest priority.

        A deadline that has already passed is never adopted (the submit
        paths shed expired work before joining, so this is a local
        restatement of the same invariant): tightening a shared task's
        deadline into the past would spuriously fail every other waiter.
        """
        task.joins += 1
        self.dedup_joins += 1
        _DEDUP_JOINS.inc()
        if deadline is not None and (task.deadline is None
                                     or deadline < task.deadline) \
                and deadline > time.monotonic():
            task.deadline = deadline
        if priority < task.priority and not task.started:
            # Upgrade in place: lazily invalidate the old heap entry and
            # push a replacement that keeps the original seq, preserving
            # FIFO arrival order within the new class.
            old = task.priority
            if task.entry is not None:
                task.entry[2] = None
            task.priority = priority
            task.entry = [priority, task.seq, task]
            heapq.heappush(self._heap, task.entry)
            _DEPTH.dec(priority=metric_priority_label(old))
            _DEPTH.inc(priority=metric_priority_label(priority))
            self._cond.notify()

    def _shed_new_locked(self, key, point, priority, deadline, provenance,
                         reason):
        """Resolve a never-queued task as an expired-deadline failure."""
        self._seq += 1
        task = Task(key, point, priority=priority, deadline=deadline,
                    provenance=provenance, seq=self._seq)
        self._resolve_shed_locked(task, reason)
        return task

    def _resolve_shed_locked(self, task, reason):
        self.shed += 1
        _SHED.inc(reason=reason)
        task.result = PointFailure(
            task.point, "DeadlineExceededError",
            "deadline expired before this point ran (%s)" % reason)
        task.event.set()
        self._cond.notify_all()

    def result(self, task, timeout=None):
        """Block until *task* completes; returns its
        :class:`~repro.harness.runner.RunResult` or
        :class:`~repro.harness.sweep.PointFailure`. Raises ``TimeoutError``
        past *timeout* seconds (the task keeps running)."""
        if not task.event.wait(timeout):
            raise TimeoutError("miss task %s not done after %ss"
                               % (task.point.describe(), timeout))
        return task.result

    # -- execution ------------------------------------------------------------

    def _worker(self, executor):
        while True:
            with self._cond:
                task = None
                while task is None:
                    while not self._heap and not self._closed:
                        self._cond.wait()
                    if not self._heap:   # closed and drained
                        return
                    entry = heapq.heappop(self._heap)
                    task = entry[2]      # None == stale (upgraded) entry
                self._queued -= 1
                task.entry = None
                _DEPTH.dec(priority=metric_priority_label(task.priority))
                if task.expired():
                    self._by_key.pop(task.key, None)
                    self._resolve_shed_locked(task, "expired-in-queue")
                    continue
                task.started = True
                self._running += 1
                _INFLIGHT.inc()
            _WAIT.observe(time.perf_counter() - task.submitted_at)
            try:
                result = executor.run_one(task.point, on_error="continue")
            except Exception as exc:        # noqa: BLE001 — keep draining
                result = PointFailure(task.point, type(exc).__name__,
                                      str(exc))
            self._finish(task, result)

    def _finish(self, task, result):
        failed = isinstance(result, PointFailure)
        with self._cond:
            self._by_key.pop(task.key, None)
            self._running -= 1
            self.completed += 1
            self.failed += failed
            _INFLIGHT.dec()
            _COMPLETED.inc(outcome="failed" if failed else "ok")
            task.result = result
            task.event.set()
            self._cond.notify_all()

    # -- introspection --------------------------------------------------------

    def stats_dict(self):
        """JSON-able scheduler counters (the ``queue`` block of
        ``GET /cache/info``). ``by_priority`` maps priority-class labels
        to queued-task counts (empty when the queue is empty); ``shed``
        counts deadline-expired tasks resolved without simulating."""
        with self._cond:
            by_priority = {}
            for entry in self._heap:
                if entry[2] is not None:
                    label = priority_label(entry[0])
                    by_priority[label] = by_priority.get(label, 0) + 1
            return {"workers": self.workers,
                    "max_pending": self.max_pending,
                    "depth": self._queued,
                    "by_priority": by_priority,
                    "inflight": self._running,
                    "submitted": self.submitted,
                    "dedup_joins": self.dedup_joins,
                    "rejected": self.rejected,
                    "completed": self.completed,
                    "failed": self.failed,
                    "shed": self.shed,
                    "draining": self._closed}

    # -- shutdown -------------------------------------------------------------

    def close(self, drain=True, timeout=None):
        """Stop intake and shut the workers down.

        ``drain=True`` (default): queued and in-flight tasks finish
        first — the graceful path ``repro serve`` takes on SIGTERM /
        Ctrl-C / ``POST /shutdown``. ``drain=False``: pending tasks are
        resolved immediately as ``QueueClosedError``
        :class:`~repro.harness.sweep.PointFailure`\\ s (in-flight tasks
        still run to completion; a worker thread cannot be interrupted
        mid-simulation). *timeout* bounds the whole wait; returns True
        when every worker exited. Idempotent.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._closed = True
            if not drain:
                while self._heap:
                    entry = heapq.heappop(self._heap)
                    task = entry[2]
                    if task is None:
                        continue
                    self._queued -= 1
                    task.entry = None
                    self._by_key.pop(task.key, None)
                    self.completed += 1
                    self.failed += 1
                    _COMPLETED.inc(outcome="failed")
                    _DEPTH.dec(priority=metric_priority_label(task.priority))
                    task.result = PointFailure(
                        task.point, "QueueClosedError",
                        "service shut down before this point ran")
                    task.event.set()
            self._cond.notify_all()
        done = True
        for thread in self._threads:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            thread.join(timeout=remaining)
            done = done and not thread.is_alive()
        return done
