"""Remote sweep backend: shard one grid across a fleet of worker daemons.

The PR 2 :class:`~repro.harness.sweep.Backend` interface fans a sweep's
cache-miss points out over in-machine pools; this module extends it across
machines. A coordinator (:class:`RemoteBackend`, ``--backend remote``)
slices the miss batch into chunks and dispatches them over TCP to
``repro worker serve`` daemons (:class:`WorkerServer`), merging the results
back — in input order — into the coordinator's
:class:`~repro.harness.cache.ResultCache` exactly as a local backend would.

Wire protocol (one TCP connection per coordinator/worker pair):

* every frame is a 4-byte big-endian length prefix followed by a UTF-8
  JSON object (:func:`send_message` / :func:`recv_message`);
* the first exchange is a handshake: the coordinator's ``hello`` carries
  ``protocol``/``cache_version``/``code_version`` and the worker replies
  ``welcome`` only when all three match its own (otherwise ``reject``
  with a reason) — a version-skewed fleet can therefore never mix
  incompatible simulator results;
* afterwards the coordinator streams ``run_chunk`` requests (a list of
  :meth:`SweepPoint.spec` payloads) and the worker answers each with a
  ``chunk_result`` carrying one outcome per point, in order. ``ping`` /
  ``pong`` and ``shutdown`` / ``bye`` round out the protocol.

Failure semantics mirror the local backends (the contract is documented
in ``docs/sweep-engine.md``):

* a point that fails *inside the simulator* is trapped worker-side by
  :func:`~repro.harness.sweep._safe_worker` and travels back as an
  ``error`` outcome — the executor raises
  :class:`~repro.harness.sweep.SweepPointError` naming that point, or
  returns a :class:`~repro.harness.sweep.PointFailure` under
  ``on_error="continue"``;
* a *worker* that dies (connection drop, timeout, protocol garbage) has
  its in-flight chunk reassigned to the surviving workers; a chunk that
  has killed every worker, or outlives the last live worker, resolves to
  per-point ``RemoteWorkerError`` outcomes that flow through the same
  ``SweepPointError``/``PointFailure`` machinery;
* handshake rejection and a fleet with no reachable worker raise
  immediately (:class:`RemoteHandshakeError`/:class:`RemoteWorkerError`) —
  those are deployment errors, not point failures.

Workers are stateless: they rebuild benchmarks/datasets locally (seeded,
hence deterministic) and return timings only, so a remote sweep is
bit-identical to a serial one and the coordinator's cache stays the single
source of truth.
"""

import json
import socket
import socketserver
import struct
import sys
import threading
from collections import deque

from .. import __version__
from ..errors import ReproError
from .cache import CACHE_VERSION, decode_result, encode_result
from .metrics import REGISTRY
from .sweep import BACKENDS, Backend, SweepPoint, _auto_chunk, make_backend

#: Fleet observability (``GET /metrics`` on a coordinator that serves):
#: live connections, workers declared dead, and chunk outcomes.
_WORKERS_ALIVE = REGISTRY.gauge(
    "repro_remote_workers_alive",
    "Live worker connections held by remote backends in this process")
_WORKERS_LOST = REGISTRY.counter(
    "repro_remote_workers_lost_total",
    "Workers declared dead (connection drop, timeout, protocol garbage)")
_CHUNKS_TOTAL = REGISTRY.counter(
    "repro_remote_chunks_total",
    "Chunk dispatches by outcome (reassigned chunks count once per "
    "attempt; abandoned ones resolve to per-point failures)",
    ("outcome",))

__all__ = [
    "PROTOCOL_VERSION", "RemoteBackend", "RemoteError",
    "RemoteHandshakeError", "RemoteProtocolError", "RemoteWorkerError",
    "WorkerServer", "parse_workers", "recv_message", "send_message",
    "worker_ping", "worker_stop",
]

#: Bump on any incompatible wire-protocol change; checked in the handshake
#: together with :data:`~repro.harness.cache.CACHE_VERSION` and
#: ``repro.__version__``.
#: 2: ok outcomes carry the measured per-point simulation wall time
#: (``["ok", result, sim_seconds]``) for the cache metadata index.
#: 3: point specs drop the unused ``warp_size`` and
#: ``pending_launch_limit`` device fields.
PROTOCOL_VERSION = 3

#: Default seconds to wait for one chunk result before declaring the
#: worker dead (simulated chunks are minutes at most; a silent worker past
#: this is gone).
DEFAULT_TIMEOUT = 300.0

#: Default seconds to wait for the TCP connect + handshake.
CONNECT_TIMEOUT = 10.0

#: Upper bound on one frame; anything larger is protocol garbage.
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


# -- errors -------------------------------------------------------------------

class RemoteError(ReproError):
    """Base class for remote-backend failures."""


class RemoteProtocolError(RemoteError):
    """The peer sent something that is not a valid protocol frame."""


class RemoteHandshakeError(RemoteError):
    """A worker rejected the handshake (version or protocol skew)."""


class RemoteWorkerError(RemoteError):
    """No live worker remains to run (part of) the sweep."""


# -- addresses ----------------------------------------------------------------

def parse_workers(spec):
    """Normalize worker addresses into a list of ``(host, port)`` tuples.

    Accepts a comma/space-separated string of ``host:port`` entries, an
    iterable of such strings, or an iterable of ready-made tuples.

    >>> parse_workers("alpha:7070,beta:7071")
    [('alpha', 7070), ('beta', 7071)]
    >>> parse_workers([("gamma", 7072), "delta:7073"])
    [('gamma', 7072), ('delta', 7073)]
    """
    if isinstance(spec, str):
        items = spec.replace(",", " ").split()
    else:
        items = list(spec)
    addresses = []
    for item in items:
        if isinstance(item, str):
            host, _, port = item.rpartition(":")
            if not host or not port.isdigit():
                raise ValueError("bad worker address %r (want HOST:PORT)"
                                 % (item,))
            addresses.append((host, int(port)))
        else:
            host, port = item
            addresses.append((str(host), int(port)))
    return addresses


def _describe(address):
    return "%s:%d" % (address[0], address[1])


# -- framing ------------------------------------------------------------------

def send_message(sock, message):
    """Send one length-prefixed JSON frame over *sock*."""
    blob = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def _recv_exact(sock, count):
    """Read exactly *count* bytes; None on a clean EOF before the first
    byte, :class:`RemoteProtocolError` on EOF mid-read."""
    chunks = []
    remaining = count
    while remaining:
        data = sock.recv(min(remaining, 1 << 20))
        if not data:
            if remaining == count:
                return None
            raise RemoteProtocolError("connection closed mid-frame")
        chunks.append(data)
        remaining -= len(data)
    return b"".join(chunks)


def recv_message(sock):
    """Receive one frame; returns the decoded object, or None on a clean
    EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise RemoteProtocolError("oversized frame (%d bytes)" % length)
    blob = _recv_exact(sock, length)
    if blob is None:
        raise RemoteProtocolError("connection closed mid-frame")
    try:
        return json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise RemoteProtocolError("undecodable frame: %s" % exc)


def _encode_outcome(outcome):
    """Wire form of one :func:`~repro.harness.sweep._safe_worker` outcome.

    Successes ship the worker-measured simulation wall time as the third
    element so the coordinator's cache index learns recompute costs for
    points simulated on remote machines.
    """
    if outcome[0] == "ok":
        return ["ok", encode_result(outcome[1]), outcome[2]]
    return list(outcome)


def _decode_outcome(payload):
    """Inverse of :func:`_encode_outcome`."""
    if payload[0] == "ok":
        sim_cost = payload[2] if len(payload) > 2 else None
        return ("ok", decode_result(payload[1]), sim_cost)
    tag, error, message, worker_tb = payload
    return (tag, error, message, worker_tb)


# -- handshake ----------------------------------------------------------------

def _hello():
    return {"type": "hello", "protocol": PROTOCOL_VERSION,
            "cache_version": CACHE_VERSION, "code_version": __version__}


def _dial(address, connect_timeout=CONNECT_TIMEOUT, timeout=DEFAULT_TIMEOUT):
    """Connect to one worker and complete the handshake.

    Returns the connected socket. A worker that is unreachable, wedged,
    or hangs up mid-handshake raises OSError /
    :class:`RemoteProtocolError` — callers may skip it like any other
    dead worker, and the whole handshake is bounded by *connect_timeout*.
    Only an explicit ``reject`` reply (version or protocol skew) raises
    :class:`RemoteHandshakeError`.
    """
    sock = socket.create_connection(address, timeout=connect_timeout)
    try:
        sock.settimeout(connect_timeout)
        send_message(sock, _hello())
        reply = recv_message(sock)
    except (OSError, RemoteProtocolError):
        sock.close()
        raise
    if reply is None:
        sock.close()
        raise RemoteProtocolError("worker %s hung up during handshake"
                                  % _describe(address))
    if not isinstance(reply, dict) or reply.get("type") != "welcome":
        reason = repr(reply)
        if isinstance(reply, dict):
            reason = reply.get("reason", "unexpected %r reply"
                               % reply.get("type"))
        sock.close()
        raise RemoteHandshakeError("worker %s rejected handshake: %s"
                                   % (_describe(address), reason))
    sock.settimeout(timeout)
    return sock


def worker_ping(address, timeout=CONNECT_TIMEOUT):
    """Handshake with one worker and ping it; returns the ``pong`` payload.

    Raises OSError (unreachable) or a :class:`RemoteError` subclass
    (handshake rejection / protocol garbage).
    """
    sock = _dial(address, connect_timeout=timeout, timeout=timeout)
    try:
        send_message(sock, {"type": "ping"})
        reply = recv_message(sock)
    finally:
        sock.close()
    if not isinstance(reply, dict) or reply.get("type") != "pong":
        raise RemoteProtocolError("worker %s answered ping with %r"
                                  % (_describe(address), reply))
    return reply


def worker_stop(address, timeout=CONNECT_TIMEOUT):
    """Ask one worker daemon to shut down; returns once it acknowledges."""
    sock = _dial(address, connect_timeout=timeout, timeout=timeout)
    try:
        send_message(sock, {"type": "shutdown"})
        reply = recv_message(sock)
    finally:
        sock.close()
    if not isinstance(reply, dict) or reply.get("type") != "bye":
        raise RemoteProtocolError("worker %s answered shutdown with %r"
                                  % (_describe(address), reply))
    return reply


# -- the worker daemon --------------------------------------------------------

class _WorkerTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    worker = None

    def handle_error(self, request, client_address):
        if self.worker is None or not self.worker.quiet:
            socketserver.ThreadingTCPServer.handle_error(
                self, request, client_address)


class _WorkerHandler(socketserver.BaseRequestHandler):
    """One coordinator connection: handshake, then serve chunks until EOF."""

    def handle(self):
        worker = self.server.worker
        sock = self.request
        # A coordinator that vanishes without FIN/RST (crash, partition)
        # would otherwise pin this handler thread in recv forever; kernel
        # keepalive eventually reaps the half-open connection.
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        except OSError:
            pass
        try:
            hello = recv_message(sock)
        except RemoteProtocolError:
            return
        if not isinstance(hello, dict) or hello.get("type") != "hello":
            send_message(sock, {"type": "reject",
                                "reason": "expected a hello frame"})
            return
        reply = worker.handshake_reply(hello)
        send_message(sock, reply)
        if reply["type"] != "welcome":
            return
        while True:
            try:
                message = recv_message(sock)
            except RemoteProtocolError:
                return
            if message is None:                  # coordinator hung up
                return
            kind = message.get("type") if isinstance(message, dict) else None
            if kind == "ping":
                send_message(sock, {"type": "pong",
                                    "points_served": worker.points_served,
                                    "jobs": worker.jobs,
                                    **worker.versions()})
            elif kind == "run_chunk":
                points = [SweepPoint.from_spec(spec)
                          for spec in message["points"]]
                try:
                    outcomes = worker.run_points(points)
                except Exception as exc:
                    # Infrastructure failure (point failures are trapped
                    # inside _safe_worker): drop the connection so the
                    # coordinator reassigns the chunk elsewhere.
                    worker.log("chunk failed, dropping coordinator: %s" % exc)
                    return
                send_message(sock, {
                    "type": "chunk_result",
                    "chunk": message.get("chunk"),
                    "outcomes": [_encode_outcome(o) for o in outcomes],
                })
            elif kind == "shutdown":
                send_message(sock, {"type": "bye"})
                worker.log("shutdown requested by %s" % (self.client_address,))
                # Handler threads are separate from the serve loop, so a
                # direct shutdown() cannot deadlock.
                self.server.shutdown()
                return
            else:
                send_message(sock, {"type": "reject",
                                    "reason": "unknown message type %r"
                                              % (kind,)})
                return


class WorkerServer:
    """A ``repro worker serve`` daemon: simulates chunks for coordinators.

    Binds ``host:port`` (port 0 picks an ephemeral port — read it back
    from :attr:`address`) and speaks the module's wire protocol. Each
    chunk's points run through a local sweep backend (serial for
    ``jobs=1``, a process pool otherwise), so one daemon can itself use a
    whole machine.

    ``cache_version``/``code_version`` default to this process's own and
    exist so tests (and forward-compatible deployments) can exercise the
    handshake's skew rejection.
    """

    def __init__(self, host="127.0.0.1", port=0, jobs=1,
                 cache_version=None, code_version=None, quiet=True):
        self.jobs = max(1, int(jobs))
        self.cache_version = (CACHE_VERSION if cache_version is None
                              else cache_version)
        self.code_version = (__version__ if code_version is None
                             else code_version)
        self.quiet = quiet
        self.points_served = 0
        self._backend = make_backend(None, jobs=self.jobs)
        self._backend_lock = threading.Lock()
        self._server = _WorkerTCPServer((host, port), _WorkerHandler)
        self._server.worker = self
        self._thread = None

    @property
    def address(self):
        """The bound ``(host, port)`` pair."""
        return self._server.server_address[:2]

    def versions(self):
        return {"protocol": PROTOCOL_VERSION,
                "cache_version": self.cache_version,
                "code_version": self.code_version}

    def handshake_reply(self, hello):
        """``welcome`` when every version in *hello* matches, else
        ``reject`` naming the first mismatch."""
        mine = self.versions()
        for key in ("protocol", "cache_version", "code_version"):
            if hello.get(key) != mine[key]:
                return {"type": "reject",
                        "reason": "%s mismatch: coordinator has %r, "
                                  "worker has %r"
                                  % (key, hello.get(key), mine[key])}
        return {"type": "welcome", **mine}

    def run_points(self, points):
        """Execute one chunk through the local backend (serialized: the
        backend's pool is not safe for concurrent ``map`` calls, and the
        lock also keeps ``points_served`` exact across coordinators)."""
        with self._backend_lock:
            outcomes = self._backend.map(points)
            self.points_served += len(points)
            return outcomes

    def log(self, message):
        if not self.quiet:
            print("repro worker: %s" % message, file=sys.stderr, flush=True)

    def serve_forever(self):
        """Serve until :meth:`close`, a ``shutdown`` frame, or Ctrl-C."""
        self._server.serve_forever(poll_interval=0.1)

    def start(self):
        """Serve on a daemon thread (for tests/embedding); returns
        :attr:`address`."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self.address

    def close(self):
        """Stop serving and release the socket and the local backend."""
        if self._thread is not None and self._thread.is_alive():
            self._server.shutdown()
            self._thread.join(timeout=5.0)
        self._server.server_close()
        self._backend.close()


# -- the coordinator ----------------------------------------------------------

class _Chunk:
    __slots__ = ("indices", "points", "attempts", "last_error")

    def __init__(self, indices, points):
        self.indices = indices
        self.points = points
        self.attempts = 0
        self.last_error = ""


class _MapState:
    """Shared scheduling state for one :meth:`RemoteBackend.map` call.

    Worker threads :meth:`take` chunks and either :meth:`finish` them or
    report themselves dead via :meth:`worker_lost`, which requeues the
    in-flight chunk for the survivors. A chunk that has been attempted
    ``max_attempts`` times (it keeps killing workers), or that outlives
    the last live worker, resolves to per-point error outcomes instead,
    so the executor's normal failure attribution takes over.
    """

    def __init__(self, chunks, results, live_workers, max_attempts):
        self._cond = threading.Condition()
        self._queue = deque(chunks)
        self._results = results
        self._unresolved = len(chunks)
        self._live = live_workers
        self._max_attempts = max_attempts

    def take(self):
        """Next chunk to run, or None once the whole map is resolved."""
        with self._cond:
            while True:
                if self._unresolved == 0:
                    return None
                if self._queue:
                    chunk = self._queue.popleft()
                    chunk.attempts += 1
                    return chunk
                self._cond.wait()

    def finish(self, chunk, outcomes):
        with self._cond:
            for index, outcome in zip(chunk.indices, outcomes):
                self._results[index] = outcome
            self._unresolved -= 1
            _CHUNKS_TOTAL.inc(outcome="ok")
            self._cond.notify_all()

    def _fail_chunk(self, chunk, message):
        outcome = ("error", "RemoteWorkerError", message, "")
        for index in chunk.indices:
            self._results[index] = outcome
        self._unresolved -= 1
        _CHUNKS_TOTAL.inc(outcome="abandoned")

    def worker_lost(self, address, error, chunk=None):
        """Record one worker's death; requeue (or fail) its chunk."""
        with self._cond:
            self._live -= 1
            if chunk is not None:
                chunk.last_error = "worker %s died running this chunk: %s" \
                                   % (_describe(address), error)
                if chunk.attempts >= self._max_attempts:
                    self._fail_chunk(
                        chunk, chunk.last_error
                        + " (chunk abandoned after %d attempts)"
                        % chunk.attempts)
                else:
                    self._queue.append(chunk)
                    _CHUNKS_TOTAL.inc(outcome="reassigned")
            if self._live <= 0:
                while self._queue:
                    pending = self._queue.popleft()
                    self._fail_chunk(
                        pending,
                        "no live workers remain (last failure: %s)"
                        % (pending.last_error or error))
            self._cond.notify_all()

    def wait(self):
        with self._cond:
            while self._unresolved:
                self._cond.wait()


class RemoteBackend(Backend):
    """Shard sweep chunks over ``repro worker serve`` daemons via TCP.

    *workers* is anything :func:`parse_workers` accepts. Connections are
    dialed (and handshaken) lazily on the first :meth:`map` and reused
    across batches until :meth:`close`, mirroring the local pool
    backends. *timeout* bounds the wait for one chunk result; a worker
    silent past it is treated as dead and its chunk is reassigned.

    A worker that is unreachable at dial time is skipped (the rest of the
    fleet carries the sweep); a worker that *rejects the handshake* makes
    the whole map raise :class:`RemoteHandshakeError`, because version
    skew silently shrinking the fleet would be a deployment bug worth
    failing loudly over. Once dead, a worker stays dead for the lifetime
    of the backend instance.
    """

    name = "remote"

    def __init__(self, workers, chunk_size=None,
                 timeout=DEFAULT_TIMEOUT, connect_timeout=CONNECT_TIMEOUT):
        addresses = parse_workers(workers)
        if not addresses:
            raise ValueError("remote backend needs at least one worker "
                             "address (host:port)")
        super().__init__(jobs=len(addresses), chunk_size=chunk_size)
        self.addresses = addresses
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._connections = {}          # address -> connected socket
        self._dead = {}                 # address -> reason it was dropped

    # -- connection management ------------------------------------------------

    def _ensure_connections(self):
        """Dial every address not yet connected or known-dead — all in
        parallel, so a fleet with several down machines still starts
        within one connect_timeout. Raises when the whole fleet is
        unreachable (handshake *rejection* always raises — see the class
        docstring)."""
        to_dial = [address for address in self.addresses
                   if address not in self._connections
                   and address not in self._dead]
        if to_dial:
            outcomes = {}

            def dial(address):
                try:
                    outcomes[address] = _dial(
                        address, connect_timeout=self.connect_timeout,
                        timeout=self.timeout)
                except (RemoteHandshakeError, RemoteProtocolError,
                        OSError) as exc:
                    outcomes[address] = exc

            threads = [threading.Thread(target=dial, args=(address,),
                                        daemon=True)
                       for address in to_dial]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            rejection = None
            for address in to_dial:
                outcome = outcomes[address]
                if isinstance(outcome, RemoteHandshakeError):
                    rejection = outcome
                elif isinstance(outcome, Exception):
                    self._dead[address] = str(outcome)
                    _WORKERS_LOST.inc()
                else:
                    self._connections[address] = outcome
                    _WORKERS_ALIVE.inc()
            if rejection is not None:
                raise rejection
        if not self._connections:
            reasons = "; ".join("%s: %s" % (_describe(a), r)
                                for a, r in sorted(self._dead.items()))
            raise RemoteWorkerError("no live workers among %s (%s)"
                                    % (", ".join(map(_describe,
                                                     self.addresses)),
                                       reasons))

    def _drop_connection(self, address, reason):
        sock = self._connections.pop(address, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
            _WORKERS_ALIVE.dec()
            _WORKERS_LOST.inc()
        self._dead[address] = reason

    # -- scheduling -----------------------------------------------------------

    def _chunk(self, n_items):
        if self.chunk_size is not None:
            return max(1, int(self.chunk_size))
        return _auto_chunk(n_items, max(1, len(self._connections)))

    def map(self, points):
        """Run *points* across the fleet; one outcome tuple per point, in
        input order (the :class:`~repro.harness.sweep.Backend` contract)."""
        points = list(points)
        if not points:
            return []
        self._ensure_connections()
        live = list(self._connections)
        chunk_size = self._chunk(len(points))
        chunks = [_Chunk(list(range(start, min(start + chunk_size,
                                               len(points)))),
                         points[start:start + chunk_size])
                  for start in range(0, len(points), chunk_size)]
        results = [None] * len(points)
        state = _MapState(chunks, results, live_workers=len(live),
                          max_attempts=len(self.addresses))
        threads = [threading.Thread(target=self._serve_one,
                                    args=(address, state), daemon=True)
                   for address in live]
        for thread in threads:
            thread.start()
        state.wait()
        for thread in threads:
            thread.join(timeout=5.0)
        return results

    def _serve_one(self, address, state):
        """One worker's dispatch loop: pull chunks until the map resolves
        or this worker dies."""
        sock = self._connections[address]
        while True:
            chunk = state.take()
            if chunk is None:
                return
            try:
                send_message(sock, {
                    "type": "run_chunk",
                    "chunk": chunk.indices[0],
                    "points": [point.spec() for point in chunk.points],
                })
                reply = recv_message(sock)
                if not isinstance(reply, dict) \
                        or reply.get("type") != "chunk_result":
                    raise RemoteProtocolError(
                        "expected a chunk_result, got %r"
                        % (reply if reply is None
                           else reply.get("type"),))
                outcomes = [_decode_outcome(payload)
                            for payload in reply["outcomes"]]
                if len(outcomes) != len(chunk.points):
                    raise RemoteProtocolError(
                        "chunk of %d points answered with %d outcomes"
                        % (len(chunk.points), len(outcomes)))
            except Exception as exc:
                # Socket death, timeout, protocol garbage, or a malformed
                # payload: anything here means this worker cannot be
                # trusted with further chunks. Attribute and reassign
                # rather than hang the whole map.
                self._drop_connection(address, str(exc))
                state.worker_lost(address, exc, chunk)
                return
            state.finish(chunk, outcomes)

    def close(self):
        """Close every worker connection (the daemons keep running)."""
        for address in list(self._connections):
            sock = self._connections.pop(address)
            try:
                sock.close()
            except OSError:
                pass
            _WORKERS_ALIVE.dec()


BACKENDS["remote"] = RemoteBackend
