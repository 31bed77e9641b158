"""Remote backend tests: wire protocol, handshake version skew, parity
with the serial backend, chunk reassignment around dying workers, and
coordinator timeouts mapped onto the executor's failure semantics."""

import socket
import time

import pytest

from repro.harness import (BACKENDS, CACHE_VERSION, PointFailure,
                           RemoteBackend, RemoteHandshakeError,
                           RemoteWorkerError, SweepExecutor, SweepPointError,
                           TuningParams, WorkerServer, parse_workers,
                           sweep_grid, worker_ping, worker_stop)
from repro.harness import sweep as sweep_mod

from .conftest import worker_fleet

SCALE = 0.08

PAIRS = (("BFS", "KRON"), ("SSSP", "KRON"))
LABELS = ("CDP", "CDP+T")
PARAMS = TuningParams(threshold=16)


def small_grid():
    return sweep_grid(PAIRS, LABELS, scale=SCALE, params=PARAMS)


def free_port():
    """A port with no listener behind it."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def crash(points):
    """Stand-in for a worker whose process dies mid-chunk."""
    raise RuntimeError("injected worker crash")


@pytest.fixture(scope="module")
def serial_results():
    return SweepExecutor().run(small_grid())


@pytest.fixture
def fleet():
    """Function-scoped: several tests mutate a server's run_points."""
    with worker_fleet() as servers:
        yield servers


def addresses(servers):
    return [server.address for server in servers]


class TestProtocol:
    def test_remote_is_registered(self):
        assert "remote" in BACKENDS
        assert BACKENDS["remote"] is RemoteBackend

    def test_parse_workers_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad worker address"):
            parse_workers("nocolon")
        with pytest.raises(ValueError, match="bad worker address"):
            parse_workers("host:notaport")

    def test_remote_needs_workers(self):
        with pytest.raises(ValueError, match="worker addresses"):
            SweepExecutor(backend="remote")

    def test_workers_reject_local_backends(self):
        with pytest.raises(ValueError, match="remote"):
            SweepExecutor(backend="process", workers=[("localhost", 1)])

    def test_remote_rejects_jobs(self):
        with pytest.raises(ValueError, match="repro worker serve --jobs"):
            SweepExecutor(jobs=4, backend="remote",
                          workers=[("localhost", 1)])

    def test_workers_reject_backend_instances(self):
        from repro.harness.sweep import SerialBackend

        with pytest.raises(ValueError, match="instance"):
            SweepExecutor(backend=SerialBackend(), workers=[("localhost", 1)])
        with pytest.raises(ValueError, match="instance"):
            SweepExecutor(backend=SerialBackend(), worker_timeout=5.0)

    def test_ping_reports_versions(self, fleet):
        pong = worker_ping(fleet[0].address)
        assert pong["cache_version"] == CACHE_VERSION
        assert pong["jobs"] == 1

    def test_stop_shuts_the_daemon_down(self):
        server = WorkerServer(quiet=True)
        address = server.start()
        worker_stop(address)
        server._thread.join(timeout=5.0)
        assert not server._thread.is_alive()
        server.close()


class TestParity:
    def test_bit_identical_to_serial(self, fleet, serial_results):
        with SweepExecutor(backend="remote",
                           workers=addresses(fleet)) as executor:
            assert executor.run(small_grid()) == serial_results
            assert executor.stats.simulated == len(serial_results)
            assert executor.backend.name == "remote"

    def test_every_point_served_by_the_fleet(self, fleet, serial_results):
        backend = RemoteBackend(addresses(fleet), chunk_size=1)
        with SweepExecutor(backend=backend) as executor:
            assert executor.run(small_grid()) == serial_results
        assert sum(server.points_served for server in fleet) \
            == len(serial_results)

    def test_results_merge_into_coordinator_cache(self, fleet, tmp_path,
                                                  serial_results):
        cache_dir = str(tmp_path / "cache")
        with SweepExecutor(backend="remote", workers=addresses(fleet),
                           cache=cache_dir) as executor:
            executor.run(small_grid())
        warm = SweepExecutor(cache=cache_dir)
        assert warm.run(small_grid()) == serial_results
        assert warm.stats.hits == len(serial_results)
        assert warm.stats.simulated == 0

    def test_connections_reused_across_batches(self, fleet, serial_results):
        with SweepExecutor(backend="remote",
                           workers=addresses(fleet)) as executor:
            half = len(small_grid()) // 2
            first = executor.run(small_grid()[:half])
            second = executor.run(small_grid()[half:])
        assert first + second == serial_results

    def test_simulator_failure_attributed_to_point(self, fleet, monkeypatch,
                                                   serial_results):
        """An exception inside the simulator travels back as an error
        outcome naming the point — not as a dead worker."""
        real = sweep_mod._simulate_point

        def fail_cdp(point):
            if point.label == "CDP":
                raise ValueError("injected failure")
            return real(point)

        monkeypatch.setattr(sweep_mod, "_simulate_point", fail_cdp)
        with SweepExecutor(backend="remote",
                           workers=addresses(fleet)) as executor:
            with pytest.raises(SweepPointError) as exc_info:
                executor.run(small_grid())
        assert exc_info.value.point.label == "CDP"
        assert "injected failure" in str(exc_info.value)
        # Both workers are still healthy: the fleet reruns the grid fine.
        monkeypatch.setattr(sweep_mod, "_simulate_point", real)
        with SweepExecutor(backend="remote",
                           workers=addresses(fleet)) as executor:
            assert executor.run(small_grid()) == serial_results


class TestFaultTolerance:
    def test_dead_worker_chunks_reassigned(self, fleet, serial_results):
        """A worker dying mid-chunk hands its chunks to the survivor and
        the sweep still completes bit-identically."""
        doomed, survivor = fleet
        doomed.run_points = crash
        backend = RemoteBackend(addresses(fleet), chunk_size=1)
        with SweepExecutor(backend=backend) as executor:
            assert executor.run(small_grid()) == serial_results
        assert survivor.points_served == len(serial_results)
        assert doomed.address in backend._dead

    def test_poison_chunk_becomes_point_failures(self, serial_results):
        """A chunk that kills every worker resolves to per-point failures
        instead of hanging or retrying forever."""
        servers = [WorkerServer(quiet=True) for _ in range(2)]
        for server in servers:
            server.start()
            server.run_points = crash
        try:
            backend = RemoteBackend(addresses(servers))
            executor = SweepExecutor(backend=backend, on_error="continue")
            results = executor.run(small_grid())
            assert len(results) == len(serial_results)
            assert all(isinstance(r, PointFailure) for r in results)
            assert all(r.error == "RemoteWorkerError" for r in results)
            assert executor.stats.failed == len(results)
            executor.close()
        finally:
            for server in servers:
                server.close()

    def test_raise_mode_names_the_point(self):
        server = WorkerServer(quiet=True)
        server.start()
        server.run_points = crash
        try:
            backend = RemoteBackend([server.address])
            with SweepExecutor(backend=backend) as executor:
                with pytest.raises(SweepPointError, match="BFS/KRON"):
                    executor.run(small_grid())
        finally:
            server.close()

    def test_timeout_with_continue(self):
        """A worker silent past the timeout is declared dead; with no
        survivors and on_error='continue' every point comes back as a
        PointFailure instead of aborting the run."""
        server = WorkerServer(quiet=True)
        server.start()
        real = server.run_points

        def stall(points):
            time.sleep(1.0)
            return real(points)

        server.run_points = stall
        try:
            backend = RemoteBackend([server.address], timeout=0.2)
            executor = SweepExecutor(backend=backend, on_error="continue")
            results = executor.run(small_grid())
            assert all(isinstance(r, PointFailure) for r in results)
            assert all(r.error == "RemoteWorkerError" for r in results)
            executor.close()
        finally:
            server.close()

    def test_timeout_reassigned_to_survivor(self, fleet, serial_results):
        staller, survivor = fleet
        real = staller.run_points

        def stall(points):
            time.sleep(1.0)
            return real(points)

        staller.run_points = stall
        backend = RemoteBackend(addresses(fleet), timeout=0.3, chunk_size=1)
        with SweepExecutor(backend=backend) as executor:
            assert executor.run(small_grid()) == serial_results

    def test_version_skew_rejected_in_handshake(self):
        server = WorkerServer(quiet=True, cache_version=CACHE_VERSION + 1)
        server.start()
        try:
            backend = RemoteBackend([server.address])
            with pytest.raises(RemoteHandshakeError,
                               match="cache_version mismatch"):
                backend.map(small_grid()[:1])
        finally:
            server.close()

    def test_code_version_skew_rejected(self):
        server = WorkerServer(quiet=True, code_version="0.0.0-skewed")
        server.start()
        try:
            backend = RemoteBackend([server.address])
            with pytest.raises(RemoteHandshakeError,
                               match="code_version mismatch"):
                backend.map(small_grid()[:1])
        finally:
            server.close()

    def test_empty_fleet_raises(self):
        backend = RemoteBackend([("127.0.0.1", free_port())],
                                connect_timeout=0.5)
        with pytest.raises(RemoteWorkerError, match="no live workers"):
            backend.map(small_grid()[:1])

    def test_unreachable_worker_skipped(self, serial_results):
        live = WorkerServer(quiet=True)
        live.start()
        try:
            backend = RemoteBackend([("127.0.0.1", free_port()),
                                     live.address], connect_timeout=0.5)
            with SweepExecutor(backend=backend) as executor:
                assert executor.run(small_grid()) == serial_results
        finally:
            live.close()

    def test_wedged_worker_skipped(self, serial_results):
        """A worker that accepts the TCP connection but never answers the
        handshake is skipped within connect_timeout — not treated as a
        handshake rejection, and not stalled on for the chunk timeout."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        live = WorkerServer(quiet=True)
        live.start()
        try:
            backend = RemoteBackend([listener.getsockname()[:2],
                                     live.address],
                                    connect_timeout=0.3, timeout=60.0)
            start = time.monotonic()
            with SweepExecutor(backend=backend) as executor:
                assert executor.run(small_grid()) == serial_results
            assert time.monotonic() - start < 30.0
        finally:
            listener.close()
            live.close()

    def test_worker_timeout_plumbs_through_executor(self, fleet):
        executor = SweepExecutor(backend="remote", workers=addresses(fleet),
                                 worker_timeout=7.5)
        assert executor.backend.timeout == 7.5
        executor.close()
        with pytest.raises(ValueError, match="remote"):
            SweepExecutor(backend="process", worker_timeout=7.5)
