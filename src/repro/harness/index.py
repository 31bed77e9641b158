"""SQLite metadata index over the on-disk caches.

The result/figure caches are content-addressed blob directories —
perfect for correctness (the blob *is* the truth), useless for
questions: which points are hottest, what did each cost to simulate,
what should eviction keep? :class:`CacheIndex` answers those with a
single-table SQLite database, ``index.sqlite``, living beside the
blobs.

The index is **lossy analytics, never authoritative**. Each fact fixed
when a blob is stored is also carried by the blob itself: its spec and
size, and the creation time, measured sim cost and cache version in
the ``meta`` block :mod:`repro.harness.cache` writes into result JSON
and figure pickles. So ``repro cache reindex``
(:meth:`~repro.harness.cache.ResultCache.reindex`) reconstructs those
from the blobs alone. The hit count is the one fact stored only here: a
warm hit bumps it by an atomic SQL ``hits = hits + 1``
(:meth:`CacheIndex.bump_hit`) and never rewrites the blob. ``reindex``
keeps the counts of a readable live index, but deleting
``index.sqlite`` resets them to 0 — by design. Writes are best-effort:
any ``sqlite3`` error is swallowed, counted on
``repro_cache_index_errors_total``, and the caller proceeds; a broken
index must never fail a cache store or a warm hit.

Schema (table ``entries``, one row per blob):

==================  =======  ==============================================
column              type     meaning
==================  =======  ==============================================
key                 TEXT PK  content-addressed cache key (blob basename)
kind                TEXT     ``result`` or ``figure``
spec                TEXT     the point/figure spec as JSON
bytes               INTEGER  blob size on disk
created             REAL     epoch seconds the entry was first stored
last_access         REAL     epoch seconds of the latest store or hit
hits                INTEGER  cache hits served from this entry
sim_cost_seconds    REAL     measured simulation wall time (NULL: unknown)
cache_version       INTEGER  ``CACHE_VERSION`` the blob was written under
==================  =======  ==============================================

Concurrency: one connection per :class:`CacheIndex`, opened with
``check_same_thread=False`` behind an ``RLock`` (the serve tier's miss
workers and HTTP threads share the cache object). ``synchronous=OFF`` +
WAL keep index writes off the warm hit path's critical latency — losing
index rows in a crash is fine, the blobs rebuild them (hit counts
aside).
"""

import json
import os
import sqlite3
import threading

from .metrics import REGISTRY

__all__ = ["INDEX_FILENAME", "CacheIndex"]

INDEX_FILENAME = "index.sqlite"

_OPS = REGISTRY.counter(
    "repro_cache_index_ops_total",
    "Metadata-index operations applied to index.sqlite", ("op",))
_ERRORS = REGISTRY.counter(
    "repro_cache_index_errors_total",
    "Metadata-index operations dropped on SQLite errors (the index is "
    "best-effort; blobs remain authoritative)")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key              TEXT PRIMARY KEY,
    kind             TEXT NOT NULL,
    spec             TEXT,
    bytes            INTEGER NOT NULL DEFAULT 0,
    created          REAL,
    last_access      REAL,
    hits             INTEGER NOT NULL DEFAULT 0,
    sim_cost_seconds REAL,
    cache_version    INTEGER
)
"""

_UPSERT = """
INSERT INTO entries (key, kind, spec, bytes, created, last_access,
                     hits, sim_cost_seconds, cache_version)
VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
ON CONFLICT(key) DO UPDATE SET
    kind = excluded.kind,
    spec = excluded.spec,
    bytes = excluded.bytes,
    created = COALESCE(entries.created, excluded.created),
    last_access = excluded.last_access,
    hits = excluded.hits,
    sim_cost_seconds = COALESCE(excluded.sim_cost_seconds,
                                entries.sim_cost_seconds),
    cache_version = excluded.cache_version
"""

#: ``repro cache top --by`` vocabulary -> ORDER BY clause
_TOP_ORDERS = {
    "hits": "hits DESC, last_access DESC",
    "cost": "sim_cost_seconds DESC, hits DESC",
    "bytes": "bytes DESC, hits DESC",
    "recent": "last_access DESC, hits DESC",
}

_COLUMNS = ("key", "kind", "spec", "bytes", "created", "last_access",
            "hits", "sim_cost_seconds", "cache_version")


class CacheIndex:
    """Best-effort metadata index for one cache directory."""

    def __init__(self, cache_dir):
        self.path = os.path.join(str(cache_dir), INDEX_FILENAME)
        self._lock = threading.RLock()
        self._conn = None
        self._broken = False

    # -- connection management ------------------------------------------------

    def _connection(self):
        if self._conn is None:
            conn = sqlite3.connect(self.path, timeout=5.0,
                                   check_same_thread=False)
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=OFF")
                conn.execute(_SCHEMA)
                conn.commit()
            except sqlite3.Error:
                conn.close()
                raise
            self._conn = conn
        return self._conn

    def _write(self, op, sql, params=(), many=False):
        """Run a mutating statement; swallow SQLite errors (best-effort)."""
        with self._lock:
            try:
                conn = self._connection()
                if many:
                    conn.executemany(sql, params)
                else:
                    conn.execute(sql, params)
                conn.commit()
            except sqlite3.Error:
                _ERRORS.inc()
                return False
            _OPS.inc(op=op)
            return True

    def _read(self, sql, params=()):
        """Run a query; returns rows, or [] when the index is unusable."""
        with self._lock:
            try:
                return self._connection().execute(sql, params).fetchall()
            except sqlite3.Error:
                _ERRORS.inc()
                return []

    def close(self):
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    # -- write-through --------------------------------------------------------

    def record(self, key, kind, spec, nbytes, created, last_access,
               hits=0, sim_cost=None, cache_version=None, op="store"):
        """Upsert one entry; *hits* is the absolute count. An existing
        row keeps its original ``created`` and any known
        ``sim_cost_seconds`` a later write does not supply."""
        spec_json = None if spec is None \
            else json.dumps(spec, sort_keys=True)
        self._write(op, _UPSERT,
                    (key, kind, spec_json, int(nbytes), created,
                     last_access, int(hits), sim_cost, cache_version))

    def bump_hit(self, key, last_access):
        """Increment *key*'s hit count in place — the warm-hit hot path.

        The increment happens in SQL (``hits = hits + 1``), so
        concurrent hits across threads *and* processes serialize inside
        SQLite instead of racing a read-modify-write; the blob itself is
        never rewritten. Returns False when the row is missing or the
        index is unusable, so the caller can fall back to a full
        :meth:`record` upsert from the blob's own ``meta`` block.
        """
        with self._lock:
            try:
                conn = self._connection()
                cursor = conn.execute(
                    "UPDATE entries SET hits = hits + 1, last_access = ? "
                    "WHERE key = ?", (last_access, key))
                conn.commit()
            except sqlite3.Error:
                _ERRORS.inc()
                return False
        if cursor.rowcount <= 0:
            return False
        _OPS.inc(op="hit")
        return True

    def remove(self, keys):
        """Drop the rows for *keys* (evicted or cleared blobs)."""
        keys = list(keys)
        if keys:
            self._write("remove", "DELETE FROM entries WHERE key = ?",
                        [(key,) for key in keys], many=True)

    def clear(self):
        """Drop every row (``repro cache clear``)."""
        self._write("clear", "DELETE FROM entries")

    def rebuild(self, rows):
        """Replace the whole index with *rows* (dicts in :data:`_COLUMNS`
        shape) — the ``repro cache reindex`` path. Recovers from a
        corrupt/garbage ``index.sqlite`` by recreating the file."""
        with self._lock:
            try:
                self._connection()
            except sqlite3.Error:
                # Unreadable database file: start over from scratch.
                self.close()
                for suffix in ("", "-wal", "-shm"):
                    try:
                        os.remove(self.path + suffix)
                    except OSError:
                        pass
            ok = self._write("rebuild", "DELETE FROM entries")
            if not ok:
                return False
            params = [
                (row["key"], row["kind"],
                 None if row.get("spec") is None
                 else json.dumps(row["spec"], sort_keys=True),
                 int(row.get("bytes", 0)), row.get("created"),
                 row.get("last_access"), int(row.get("hits", 0)),
                 row.get("sim_cost_seconds"), row.get("cache_version"))
                for row in rows]
            return self._write(
                "rebuild",
                "INSERT OR REPLACE INTO entries (%s) VALUES (%s)"
                % (", ".join(_COLUMNS), ", ".join("?" * len(_COLUMNS))),
                params, many=True)

    # -- queries --------------------------------------------------------------

    def get(self, key):
        """The row for *key* as a dict, or None."""
        rows = self._read(
            "SELECT %s FROM entries WHERE key = ?" % ", ".join(_COLUMNS),
            (key,))
        return self._row_dict(rows[0]) if rows else None

    def entries(self):
        """Every row as a dict, ordered by key (stable for tests)."""
        return [self._row_dict(row) for row in self._read(
            "SELECT %s FROM entries ORDER BY key" % ", ".join(_COLUMNS))]

    def top(self, by="hits", limit=20):
        """The *limit* entries ranked by *by* (``hits|cost|bytes|recent``)."""
        order = _TOP_ORDERS.get(by)
        if order is None:
            raise ValueError("unknown ranking %r (expected %s)"
                             % (by, "|".join(sorted(_TOP_ORDERS))))
        return [self._row_dict(row) for row in self._read(
            "SELECT %s FROM entries ORDER BY %s LIMIT ?"
            % (", ".join(_COLUMNS), order), (max(1, int(limit)),))]

    def costs_by_key(self):
        """``{key: sim_cost_seconds}`` for entries with a known cost —
        feeds the cost-aware prune policy."""
        return {key: cost for key, cost in self._read(
            "SELECT key, sim_cost_seconds FROM entries "
            "WHERE sim_cost_seconds IS NOT NULL")}

    def stats_dict(self):
        """JSON-able rollup (the ``index`` block of ``GET /cache/info``
        and ``repro cache stats``)."""
        totals = {"entries": 0, "bytes": 0, "hits": 0,
                  "sim_cost_seconds": 0.0}
        by_kind = {}
        for kind, count, nbytes, hits, cost in self._read(
                "SELECT kind, COUNT(*), COALESCE(SUM(bytes), 0), "
                "COALESCE(SUM(hits), 0), "
                "COALESCE(SUM(sim_cost_seconds), 0.0) "
                "FROM entries GROUP BY kind"):
            by_kind[kind] = {"entries": count, "bytes": nbytes,
                             "hits": hits, "sim_cost_seconds": cost}
            totals["entries"] += count
            totals["bytes"] += nbytes
            totals["hits"] += hits
            totals["sim_cost_seconds"] += cost
        return {"path": self.path, "by_kind": by_kind, **totals}

    @staticmethod
    def _row_dict(row):
        entry = dict(zip(_COLUMNS, row))
        if entry.get("spec"):
            try:
                entry["spec"] = json.loads(entry["spec"])
            except (TypeError, ValueError):
                pass
        return entry
