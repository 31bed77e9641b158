"""Shared benchmark configuration.

Every bench regenerates one table or figure of the paper and writes the
formatted result to ``benchmarks/out/``. Scales are chosen so the full
suite completes in minutes on a laptop; pass ``--repro-scale`` to raise
them. Run the drivers by name (``python -m pytest benchmarks/bench_*.py``):
pytest collects only ``test_*.py`` by default.
"""

import os

import pytest

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def pytest_addoption(parser):
    parser.addoption("--repro-scale", action="store", type=float,
                     default=0.35,
                     help="dataset scale for figure regeneration benches "
                          "(docs/reproducing.md discusses scale choices)")
    parser.addoption("--repro-jobs", action="store", type=int, default=1,
                     help="worker processes for the sweep engine "
                          "(1 = in-process serial)")
    parser.addoption("--repro-backend", action="store", default=None,
                     help="sweep backend: serial, process or remote "
                          "(default: serial for "
                          "--repro-jobs 1, process otherwise; remote "
                          "needs --repro-workers)")
    parser.addoption("--repro-workers", action="store", default=None,
                     help="remote worker daemons (HOST:PORT,...) to shard "
                          "the figure grids across; implies the remote "
                          "backend (start them with 'repro worker serve')")
    parser.addoption("--repro-cache", action="store", default=None,
                     help="persistent sweep result-cache directory; unset "
                          "disables caching")


@pytest.fixture(scope="session")
def repro_scale(request):
    return request.config.getoption("--repro-scale")


@pytest.fixture(scope="session")
def sweep_executor(request):
    """The shared sweep engine the benches route their run grids through.

    ``--repro-jobs N`` parallelizes, ``--repro-backend`` picks the
    execution backend (serial/process/remote),
    ``--repro-workers HOST:PORT,...`` shards the grids across remote
    worker daemons, and ``--repro-cache DIR`` makes re-runs skip
    already-simulated points. With no flag this is None: the figure
    benches then take the historical serial path, which also
    cross-checks the outputs of every Fig. 9, 11 and 12 point against
    the No-CDP reference (executor workers return timings only).
    """
    from repro.harness import ResultCache, SweepExecutor

    cache_dir = request.config.getoption("--repro-cache")
    jobs = request.config.getoption("--repro-jobs")
    backend = request.config.getoption("--repro-backend")
    workers = request.config.getoption("--repro-workers")
    if jobs <= 1 and not cache_dir and backend is None and not workers:
        yield None
        return
    executor = SweepExecutor(
        jobs=jobs, backend=backend, workers=workers,
        cache=ResultCache(cache_dir) if cache_dir else None)
    yield executor
    executor.close()


@pytest.fixture(scope="session")
def out_dir():
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


def save(out_dir, name, text):
    path = os.path.join(out_dir, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path
