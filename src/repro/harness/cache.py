"""Persistent, content-addressed cache of sweep results and figure artifacts.

Every figure/autotune invocation re-simulates the same dense
(benchmark × dataset × variant × params) grids from scratch; this cache
makes repeated runs cheap. Layout: one JSON file per point plus one pickle
per finished figure, plus a SQLite metadata index beside the blobs,

    <cache_dir>/<key>.json              -- RunResult (ResultCache)
    <cache_dir>/figures/<key>.pkl       -- figure object (FigureArtifactCache)
    <cache_dir>/index.sqlite            -- CacheIndex (harness.index)

where ``key`` is the SHA-256 of the canonical point (or figure) spec plus
the code version (``repro.__version__`` and :data:`CACHE_VERSION`). Any
change to a tuning parameter, the device model, or the code version
therefore lands on a different key — stale entries are never returned,
only orphaned.

Each blob carries a ``meta`` block with the facts fixed when it is
stored: measured simulation cost in seconds, creation time, cache
version. The :class:`~repro.harness.index.CacheIndex` mirrors those
facts, queryable by SQL (``repro cache top|stats``, cost-aware prune)
and rebuildable from the blobs via :meth:`ResultCache.reindex`
(``repro cache reindex``). The one fact that changes after creation,
the hit count, lives only in the index: a warm hit never rewrites a
blob, it refreshes the blob's mtime (LRU order) and bumps the count by
an atomic SQL increment, so concurrent hits across threads and
processes are never lost. The index is lossy analytics: ``reindex``
keeps the hit counts a readable live index holds, but deleting
``index.sqlite`` resets every hit count to 0.

Orphans are why the cache has a lifecycle: :meth:`ResultCache.info` counts
entries and bytes, :meth:`ResultCache.prune` bounds both by evicting
entries — least-recently-used (``--policy lru``, default; hits refresh
mtime, so mtime order is LRU order) or cheapest-to-recompute first
(``--policy cost``, ranked by the index's measured sim costs) — and
:meth:`ResultCache.clear`/:meth:`ResultCache.prune` also sweep ``.tmp``
files stranded by a run killed between ``mkstemp`` and ``os.replace``.
The ``repro cache`` CLI (``info``/``clear``/``prune``/``reindex``/
``top``/``stats``) fronts all of it.

Result entries store :class:`~repro.harness.runner.RunResult` fields except
the raw ``outputs`` arrays (results carrying outputs are simply not
cached). Corrupted or truncated entries are dropped and treated as misses,
so a killed run can never poison later ones.
"""

import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass

from .. import __version__
from .index import CacheIndex
from .metrics import REGISTRY
from .runner import RunResult

#: Cache traffic across every cache instance in the process, labelled by
#: which cache (``result``/``figure``) and how the lookup resolved.
#: Uncounted optimistic pre-checks (``count_miss=False`` misses) are not
#: recorded, mirroring the instance counters (see :meth:`ResultCache.get`).
_LOOKUPS = REGISTRY.counter(
    "repro_cache_lookups_total",
    "Cache lookups by cache kind and outcome", ("cache", "outcome"))
_STORES = REGISTRY.counter(
    "repro_cache_stores_total",
    "Entries written (atomically) into a cache", ("cache",))
_EVICTIONS = REGISTRY.counter(
    "repro_cache_evictions_total",
    "Entries dropped by prune/clear/corruption sweeps", ("reason",))

#: Bump when the cached representation or the simulator semantics change.
#: 2: sweep_grid/figure11 canonicalize group_blocks via mask_params, so
#: pre-existing keys for non-multiblock points may alias stale entries.
#: 3: the engine's compiled-kernel cache (repro.engine.cache) keys on this
#: same constant — bumping it must invalidate cached results AND compiled
#: artifacts together, and the vectorized scheduler landed alongside it.
#: 4: blob payloads carry a "meta" block (hits, sim cost, created, cache
#: version) and figure pickles are wrapped with their name/spec so the
#: SQLite metadata index (harness.index) can be rebuilt from blobs alone.
#: (New blobs no longer carry "hits": the count lives only in the index,
#: and readers ignore the field in older v4 blobs, so no bump.)
#: (Point specs dropped the unused DeviceConfig fields warp_size and
#: pending_launch_limit: every point key changed but no result did, so
#: no bump; existing caches go cold once.)
CACHE_VERSION = 4

#: Default age (seconds) past which a stranded ``.tmp`` file is considered
#: stale — generous enough that a live writer is never swept.
TMP_MAX_AGE = 3600.0

#: ``repro cache prune --policy`` vocabulary.
PRUNE_POLICIES = ("lru", "cost")

#: Marker key identifying a figure pickle's metadata wrapper (figure
#: *artifacts* themselves may be plain dicts, so unwrapping keys on this).
_FIGURE_WRAPPER_MARK = "__repro_figure__"


def _hash_spec(spec):
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def encode_result(result):
    """JSON-able payload for one :class:`~repro.harness.runner.RunResult`
    — **the** result wire format.

    This is the single serialized encoding shared by every consumer of a
    finished point; there is no second schema anywhere in the system:

    * the on-disk cache stores it as the ``result`` field of
      ``<cache-dir>/<key>.json`` (:class:`ResultCache`,
      ``docs/sweep-engine.md``);
    * the remote backend ships it inside ``chunk_result`` TCP frames
      (:mod:`repro.harness.remote`, ``docs/sweep-engine.md``);
    * the HTTP query service returns it verbatim as the ``result`` field
      of ``GET /point`` and ``POST /sweep`` responses
      (:mod:`repro.harness.serve`, ``docs/serving.md``).

    Raw ``outputs`` arrays are dropped — disk, TCP, and HTTP all carry
    timings only. Invert with :func:`decode_result`; the payload
    round-trips through ``json`` unchanged:

    >>> import json
    >>> from repro.harness.runner import RunResult
    >>> from repro.harness.variants import TuningParams
    >>> result = RunResult("BFS", "KRON", "CDP+T",
    ...                    TuningParams(threshold=16), total_time=120,
    ...                    breakdown={"parent": 70, "child": 50},
    ...                    device_launches=4, host_agg_launches=0,
    ...                    launch_queue_wait=9)
    >>> payload = encode_result(result)
    >>> sorted(payload)          # doctest: +NORMALIZE_WHITESPACE
    ['benchmark', 'breakdown', 'dataset', 'device_launches',
     'host_agg_launches', 'label', 'launch_queue_wait', 'params',
     'total_time']
    >>> decode_result(json.loads(json.dumps(payload))) == result
    True
    """
    return result.to_dict()


def decode_result(payload):
    """Rebuild a :class:`~repro.harness.runner.RunResult` from
    :func:`encode_result`'s payload — the other half of the shared
    disk/TCP/HTTP result contract (see :func:`encode_result`).

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
    payloads — callers treat that as corruption (cache), protocol
    garbage (remote), or a schema mismatch (HTTP clients).
    """
    return RunResult.from_dict(payload)


def point_key(point):
    """Stable content hash for one sweep point (hex SHA-256).

    Covers the full point spec plus the code version, so any semantic
    change lands on a fresh key.

    >>> from repro.harness.sweep import SweepPoint
    >>> key = point_key(SweepPoint("BFS", "KRON"))
    >>> len(key), key == point_key(SweepPoint("BFS", "KRON"))
    (64, True)
    """
    spec = {"cache_version": CACHE_VERSION, "code_version": __version__}
    spec.update(point.spec())
    return _hash_spec(spec)


def figure_key(name, spec):
    """Stable content hash for one figure invocation (hex SHA-256)."""
    return _hash_spec({"cache_version": CACHE_VERSION,
                       "code_version": __version__,
                       "figure": name, "spec": spec})


def _fresh_meta(sim_cost=None):
    """A blob's ``meta`` block: the creation facts the index mirrors (and
    reindex recovers)."""
    return {"sim_cost_seconds": sim_cost,
            "created": time.time(),
            "cache_version": CACHE_VERSION}


def _touch(path):
    """Refresh mtime on a cache hit so prune's mtime order is LRU order."""
    try:
        os.utime(path)
    except OSError:
        pass


def _remove_quietly(path):
    try:
        os.remove(path)
        return True
    except OSError:
        return False


def _stat_size(path):
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _load_figure(path):
    """The wrapper dict pickled at *path*. Raises on anything else: a
    truncated pickle, or a bare artifact from before CACHE_VERSION 4
    (which can only sit under an orphaned key)."""
    with open(path, "rb") as handle:
        wrapper = pickle.load(handle)
    if not (isinstance(wrapper, dict) and wrapper.get(_FIGURE_WRAPPER_MARK)):
        raise ValueError("%s is not a figure wrapper" % path)
    return wrapper


def _blob_key(path):
    """Cache key of a blob file (its basename minus the suffix)."""
    return os.path.basename(path).rsplit(".", 1)[0]


@dataclass
class CacheInfo:
    """Size accounting for one cache directory."""

    cache_dir: str
    result_entries: int = 0
    result_bytes: int = 0
    artifact_entries: int = 0
    artifact_bytes: int = 0
    tmp_files: int = 0
    tmp_bytes: int = 0

    @property
    def entries(self):
        return self.result_entries + self.artifact_entries

    @property
    def total_bytes(self):
        return self.result_bytes + self.artifact_bytes + self.tmp_bytes

    def to_dict(self):
        """JSON-able form (the ``GET /cache/info`` payload of the query
        service — see ``docs/serving.md``)."""
        return {
            "cache_dir": self.cache_dir,
            "result_entries": self.result_entries,
            "result_bytes": self.result_bytes,
            "artifact_entries": self.artifact_entries,
            "artifact_bytes": self.artifact_bytes,
            "tmp_files": self.tmp_files,
            "tmp_bytes": self.tmp_bytes,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
        }

    def format(self):
        return "\n".join([
            "cache %s" % self.cache_dir,
            "  result entries : %6d (%d bytes)"
            % (self.result_entries, self.result_bytes),
            "  figure artifacts: %5d (%d bytes)"
            % (self.artifact_entries, self.artifact_bytes),
            "  stale .tmp files: %5d (%d bytes)"
            % (self.tmp_files, self.tmp_bytes),
            "  total           : %5d entries, %d bytes"
            % (self.entries, self.total_bytes),
        ])


@dataclass
class PruneReport:
    """What one :meth:`ResultCache.prune` call removed (or, under
    ``dry_run``, *would* remove)."""

    removed_entries: int = 0
    removed_bytes: int = 0
    removed_tmp: int = 0
    policy: str = "lru"
    dry_run: bool = False

    def format(self):
        if self.dry_run:
            return ("would prune %d entries (%d bytes), would sweep %d "
                    "stale .tmp files [policy=%s, dry run]"
                    % (self.removed_entries, self.removed_bytes,
                       self.removed_tmp, self.policy))
        return ("pruned %d entries (%d bytes), swept %d stale .tmp files"
                % (self.removed_entries, self.removed_bytes,
                   self.removed_tmp))


class _BlobCache:
    """Lookup and store bookkeeping shared by :class:`ResultCache` and
    :class:`FigureArtifactCache`; ``kind`` labels their metrics and
    index rows."""

    kind = None

    def _miss(self, count_miss):
        if count_miss:
            self.misses += 1
            _LOOKUPS.inc(cache=self.kind, outcome="miss")

    def _drop_corrupt(self, key, path):
        _remove_quietly(path)
        self.index.remove([key])
        _EVICTIONS.inc(reason="corrupt")

    def _hit(self, key, spec, path, meta):
        """Count a hit without rewriting the blob: refresh its mtime
        (prune's LRU order) and bump the hit count in the index alone,
        by an atomic SQL increment. When the index has lost the row
        (deleted, cleared, or broken), record it again from the blob's
        creation facts with ``hits=1``."""
        self.hits += 1
        _LOOKUPS.inc(cache=self.kind, outcome="hit")
        _touch(path)
        now = time.time()
        if not self.index.bump_hit(key, now):
            self.index.record(key, self.kind, spec, _stat_size(path),
                              created=meta.get("created"), last_access=now,
                              hits=1, sim_cost=meta.get("sim_cost_seconds"),
                              cache_version=meta.get("cache_version"),
                              op="hit")

    def _store(self, key, spec, path, blob, meta):
        """Write *blob* (bytes) atomically (``mkstemp`` + ``os.replace``)
        and record it in the index with no hits."""
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        finally:
            # Quiet, unconditional: a concurrent prune may sweep the .tmp
            # between any exists() check and the remove().
            _remove_quietly(tmp)
        _STORES.inc(cache=self.kind)
        self.index.record(key, self.kind, spec, len(blob),
                          created=meta["created"],
                          last_access=meta["created"], hits=0,
                          sim_cost=meta["sim_cost_seconds"],
                          cache_version=CACHE_VERSION)


class ResultCache(_BlobCache):
    """On-disk result cache; safe to share across processes and runs.

    Also owns the lifecycle of the whole cache directory — including the
    ``figures/`` artifact subdirectory and the metadata index — so
    ``info``/``clear``/``prune``/``reindex`` account for and bound
    everything under ``cache_dir``.
    """

    kind = "result"

    def __init__(self, cache_dir, index=None):
        self.cache_dir = str(cache_dir)
        self.hits = 0
        self.misses = 0
        os.makedirs(self.cache_dir, exist_ok=True)
        self.index = CacheIndex(self.cache_dir) if index is None else index

    def _path(self, key):
        return os.path.join(self.cache_dir, key + ".json")

    def _figures_dir(self):
        return os.path.join(self.cache_dir, "figures")

    def get(self, point, count_miss=True):
        """Cached :class:`~repro.harness.runner.RunResult` for *point*,
        or None on miss or corruption (corrupted entries are dropped so
        the point re-simulates).

        A hit leaves the blob untouched except for an mtime refresh
        (prune's LRU order); the hit count is bumped in the index only
        (:meth:`~repro.harness.index.CacheIndex.bump_hit`).

        ``count_miss=False`` suits optimistic pre-checks whose miss path
        calls ``get`` again — the HTTP query service's lock-free hit path
        — so one logical miss is never double-counted in :attr:`misses`.
        """
        key = point_key(point)
        path = self._path(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
            result = decode_result(payload["result"])
        except FileNotFoundError:
            self._miss(count_miss)
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupted/truncated entry: drop it so the point re-simulates.
            self._drop_corrupt(key, path)
            self._miss(count_miss)
            return None
        self._hit(key, payload.get("spec"), path, payload.get("meta") or {})
        return result

    def put(self, point, result, sim_cost=None):
        """Store *result* for *point*; returns True when stored.

        Atomic (``mkstemp`` + ``os.replace``); results carrying raw
        output arrays are ignored (returns False) — see the module
        docstring. *sim_cost* is the measured simulation wall time in
        seconds (the sweep executor supplies it); it is persisted in the
        blob's ``meta`` block and mirrored into the index so eviction can
        weigh recompute cost.
        """
        if result.outputs is not None:
            return False
        key = point_key(point)
        meta = _fresh_meta(sim_cost=sim_cost)
        payload = {"spec": point.spec(), "result": encode_result(result),
                   "meta": meta}
        self._store(key, payload["spec"], self._path(key),
                    json.dumps(payload).encode("utf-8"), meta)
        return True

    # -- lifecycle ------------------------------------------------------------

    def _scan(self):
        """(entries, tmp_files): (path, bytes, mtime) triples under the
        cache root and the figures subdirectory. ``index.sqlite`` (and
        its WAL/shm siblings) match neither suffix, so the index never
        counts toward entry/byte accounting and is never swept."""
        entries, tmp_files = [], []
        roots = [(self.cache_dir, ".json"), (self._figures_dir(), ".pkl")]
        for root, suffix in roots:
            try:
                names = os.listdir(root)
            except OSError:
                continue
            for name in names:
                path = os.path.join(root, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue            # raced with a concurrent prune
                if not os.path.isfile(path):
                    continue
                record = (path, stat.st_size, stat.st_mtime)
                if name.endswith(suffix):
                    entries.append(record)
                elif name.endswith(".tmp"):
                    tmp_files.append(record)
        return entries, tmp_files

    def info(self):
        """Entry/byte accounting for everything under ``cache_dir``."""
        entries, tmp_files = self._scan()
        info = CacheInfo(cache_dir=self.cache_dir)
        for path, size, _ in entries:
            if path.endswith(".pkl"):
                info.artifact_entries += 1
                info.artifact_bytes += size
            else:
                info.result_entries += 1
                info.result_bytes += size
        info.tmp_files = len(tmp_files)
        info.tmp_bytes = sum(size for _, size, _ in tmp_files)
        return info

    def __len__(self):
        return sum(1 for name in os.listdir(self.cache_dir)
                   if name.endswith(".json"))

    def clear(self):
        """Remove every entry, artifact, and stranded ``.tmp`` file
        (and empty the metadata index to match)."""
        entries, tmp_files = self._scan()
        removed = 0
        for path, _, _ in entries + tmp_files:
            removed += _remove_quietly(path)
        self.index.clear()
        _EVICTIONS.inc(removed, reason="clear")
        return removed

    def prune(self, max_entries=None, max_bytes=None,
              tmp_max_age=TMP_MAX_AGE, now=None, policy="lru",
              dry_run=False):
        """Bound the cache: sweep stale ``.tmp`` files, then evict
        entries (result + artifact) until at most *max_entries* entries
        totalling at most *max_bytes* bytes remain. Returns a
        :class:`PruneReport`.

        *policy* picks the eviction order: ``"lru"`` (default) evicts
        least-recently-used first (by mtime — hits refresh it);
        ``"cost"`` evicts cheapest-to-recompute first (by the index's
        measured ``sim_cost_seconds``; entries with unknown cost rank
        cheapest, ties break oldest-first), keeping the entries that
        were most expensive to simulate. *dry_run* computes the same
        report without removing anything. Surviving blobs are never
        rewritten.
        """
        if policy not in PRUNE_POLICIES:
            raise ValueError("unknown prune policy %r (expected %s)"
                             % (policy, "|".join(PRUNE_POLICIES)))
        entries, tmp_files = self._scan()
        report = PruneReport(policy=policy, dry_run=dry_run)
        now = time.time() if now is None else now
        for path, size, mtime in tmp_files:
            if now - mtime >= tmp_max_age:
                if dry_run:
                    report.removed_tmp += 1
                else:
                    report.removed_tmp += _remove_quietly(path)
        if policy == "cost":
            costs = self.index.costs_by_key()
            entries.sort(key=lambda record:
                         (costs.get(_blob_key(record[0]), 0.0), record[2]))
        else:
            entries.sort(key=lambda record: record[2])  # oldest first
        total_bytes = sum(size for _, size, _ in entries)
        remaining = len(entries)
        evicted_keys = []
        for path, size, _ in entries:
            over_count = max_entries is not None and remaining > max_entries
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            if not (over_count or over_bytes):
                break
            if dry_run:
                report.removed_entries += 1
                report.removed_bytes += size
            elif _remove_quietly(path):
                report.removed_entries += 1
                report.removed_bytes += size
                evicted_keys.append(_blob_key(path))
            remaining -= 1
            total_bytes -= size
        if not dry_run:
            self.index.remove(evicted_keys)
            _EVICTIONS.inc(report.removed_entries + report.removed_tmp,
                           reason="prune")
        return report

    def reindex(self):
        """Rebuild ``index.sqlite`` from the blobs (``repro cache
        reindex``); returns the number of entries indexed.

        Each row's creation facts (spec, size, created, sim cost, cache
        version) come from its blob. Hit counts live only in the index,
        so the ones a readable live index holds are read first and kept
        for every blob that still exists: reindexing over a live index
        loses nothing, while reindexing after ``index.sqlite`` was
        deleted starts every hit count at 0. Unreadable blobs are
        skipped.
        """
        hits = {row["key"]: row["hits"] for row in self.index.entries()}
        entries, _ = self._scan()
        rows = []
        for path, size, mtime in entries:
            key = _blob_key(path)
            try:
                if path.endswith(".json"):
                    kind = "result"
                    with open(path) as handle:
                        payload = json.load(handle)
                    spec = payload.get("spec")
                else:
                    kind = "figure"
                    payload = _load_figure(path)
                    spec = {"figure": payload.get("name"),
                            "spec": payload.get("spec")}
            except Exception:           # pickle can raise nearly anything
                continue
            meta = payload.get("meta") or {}
            rows.append({"key": key, "kind": kind, "spec": spec,
                         "bytes": size,
                         "created": meta.get("created", mtime),
                         "last_access": mtime, "hits": hits.get(key, 0),
                         "sim_cost_seconds": meta.get("sim_cost_seconds"),
                         "cache_version": meta.get("cache_version")})
        self.index.rebuild(rows)
        return len(rows)


class FigureArtifactCache(_BlobCache):
    """Pickled figure-result objects, keyed by figure name + call spec.

    A warm :class:`~repro.harness.sweep.ResultCache` makes the *grid* free
    but a figure run still rebuilds datasets and re-runs the reference /
    verification points outside the executor; caching the finished figure
    object makes a fully-warm ``repro figure`` run near-instant. Shares
    ``cache_dir`` with :class:`ResultCache` (entries live in
    ``<cache_dir>/figures/``, metadata rows in the same ``index.sqlite``),
    so one ``repro cache`` lifecycle governs both. On disk each artifact
    is pickled inside a small wrapper dict (name, spec, ``meta``) so
    ``reindex`` can recover its metadata; :meth:`get` unwraps it.
    """

    kind = "figure"

    def __init__(self, cache_dir, index=None):
        root = str(cache_dir)
        self.cache_dir = os.path.join(root, "figures")
        self.hits = 0
        self.misses = 0
        os.makedirs(self.cache_dir, exist_ok=True)
        self.index = CacheIndex(root) if index is None else index

    def _path(self, name, spec):
        return os.path.join(self.cache_dir, figure_key(name, spec) + ".pkl")

    def get(self, name, spec, count_miss=True):
        """Cached figure object, or None on miss/corruption.

        ``count_miss=False`` marks an optimistic pre-check whose miss
        path retries ``get`` (see :meth:`ResultCache.get`). A hit never
        re-pickles the (potentially large) artifact.
        """
        key = figure_key(name, spec)
        path = self._path(name, spec)
        try:
            wrapper = _load_figure(path)
            artifact = wrapper["artifact"]
        except FileNotFoundError:
            self._miss(count_miss)
            return None
        except Exception:
            # Corrupted/truncated artifact (pickle can raise nearly
            # anything): drop it and regenerate.
            self._drop_corrupt(key, path)
            self._miss(count_miss)
            return None
        self._hit(key, {"figure": name, "spec": spec}, path,
                  wrapper.get("meta") or {})
        return artifact

    def put(self, name, spec, artifact):
        """Atomically store one figure object (wrapped with its metadata)."""
        meta = _fresh_meta()
        wrapper = {_FIGURE_WRAPPER_MARK: 1, "name": name, "spec": spec,
                   "meta": meta, "artifact": artifact}
        self._store(figure_key(name, spec), {"figure": name, "spec": spec},
                    self._path(name, spec), pickle.dumps(wrapper), meta)
        return True
