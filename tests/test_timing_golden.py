"""Golden timing corpus: the timing model pinned on stored traces.

``tests/data/timing_golden.json.gz`` stores benchmark traces and what the
timing model made of them. The traces are every benchmark (Table I's
seven) × every variant label (Fig. 9's nine series) at scale 0.1, plus the
four ``+A`` labels at grid granularity, whose aggregated children the host
launches after the parent grid finishes. Each trace keeps, per grid, the
block size, block costs, incoming launch edge and region cycles, plus the
host events. The expected values are the full
:class:`~repro.sim.scheduler.TimingResult` (every grid's timing included)
and the Fig. 10 breakdown, on the default device and on a skewed one
(fewer SMs, a faster launch server, pricier host round-trips) so the
congestion, underutilization and host-aggregation paths all count.

The replay test replays the stored traces, so it builds no dataset and
runs no kernel, and NumPy's random streams cannot move the expected values.

The re-drive test pins the functional engine on the same corpus: it drives
every stored case through the engine again and demands the stored trace
(block costs, launch offsets, region cycles) bit for bit. It builds the
datasets, so unlike the replay test it depends on NumPy's random streams.

``PYTHONPATH=src python tests/test_timing_golden.py`` rebuilds the file
from the benchmarks (see :func:`rebuild`).
"""

import gzip
import json
import os
from dataclasses import replace

import pytest

from repro.harness.variants import (VARIANT_LABELS, TuningParams,
                                    mask_params, uses)
from repro.sim import (DEVICE, BlockCost, DeviceConfig, LaunchRecord, Trace,
                       breakdown, simulate)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "timing_golden.json.gz")

SCALE = 0.1

#: Default device plus one skewed enough to move every cost term.
DEVICE_CONFIGS = (
    DeviceConfig(),
    DeviceConfig(num_sms=3, launch_service_interval=11,
                 device_launch_latency=137, host_agg_overhead=9001),
)

#: Tuning point used for every optimized label (masked per label).
BASE_PARAMS = TuningParams(threshold=64, coarsen_factor=2,
                           granularity="multiblock", group_blocks=4)

#: Labels that aggregate; each also runs at grid granularity.
AGG_LABELS = tuple(label for label in VARIANT_LABELS if uses(label, "A"))


def corpus():
    """``(case id, label, params)`` of every golden trace of a benchmark."""
    cases = [(label, label, mask_params(label, BASE_PARAMS))
             for label in VARIANT_LABELS]
    grid_params = replace(BASE_PARAMS, granularity="grid")
    cases += [(label + "-grid", label, mask_params(label, grid_params))
              for label in AGG_LABELS]
    return cases


def encode_trace(trace):
    """The parts of *trace* the scheduler and ``breakdown`` read."""
    grids = []
    for grid in trace.grids:
        launch = grid.launch
        edge = None if launch is None else [
            launch.kind,
            None if launch.parent_grid is None else launch.parent_grid.gid,
            launch.parent_block, launch.issue_offset]
        grids.append([grid.block_dim,
                      [[b.max_warp, b.sum_warp] for b in grid.blocks], edge,
                      [grid.total_cycles, grid.reg_agg, grid.reg_disagg,
                       grid.reg_launch]])
    events = [event[1].gid if event[0] == "launch" else None
              for event in trace.host_events]
    return {"grids": grids, "host_events": events}


def decode_trace(stored):
    """Rebuild a :class:`~repro.sim.trace.Trace` from :func:`encode_trace`."""
    trace = Trace()
    for block_dim, blocks, _, cycles in stored["grids"]:
        grid = trace.new_grid("k", len(blocks), block_dim)
        grid.blocks = [BlockCost(max_warp, sum_warp)
                       for max_warp, sum_warp in blocks]
        (grid.total_cycles, grid.reg_agg, grid.reg_disagg,
         grid.reg_launch) = cycles
    for grid, (_, _, edge, _) in zip(trace.grids, stored["grids"]):
        if edge is None:
            continue
        kind, parent, parent_block, offset = edge
        parent = None if parent is None else trace.grids[parent]
        grid.launch = LaunchRecord(kind, grid, parent, parent_block, offset)
        if kind == DEVICE:
            parent.children.append(grid.launch)
    trace.host_events = [("sync",) if gid is None
                         else ("launch", trace.grids[gid])
                         for gid in stored["host_events"]]
    return trace


def observe(trace, config):
    """Everything the timing model reports for *trace* on *config*."""
    result = simulate(trace, config)
    timings = [result.grid_timings[grid.gid] for grid in trace.grids]
    return {
        "total_time": result.total_time,
        "launch_queue_wait": result.launch_queue_wait,
        "device_launches": result.device_launches,
        "host_agg_launches": result.host_agg_launches,
        "grids": [[t.ready, t.first_start, t.finish, t.blocks_done]
                  for t in timings],
        "breakdown": breakdown(trace, config).as_dict(),
    }


def drive(bench, data, label, params):
    """The trace of *bench*'s *label* variant with *params* on *data*."""
    from repro.harness.variants import variant_to_run
    from repro.runtime.host import Device

    variant, opt = variant_to_run(label, params)
    device = Device(bench.module_for(variant, opt))
    bench.drive(device, data)
    return device.trace


def rebuild():
    """Re-record the golden file from the benchmarks' traces.

    The expected values come from the simulator as it is now, so a rebuild
    is a deliberate change to the timing model: commit it only together
    with a ``CACHE_VERSION`` bump in :mod:`repro.harness.cache`, because
    every cached result was computed under the old model.
    """
    from repro.benchmarks import all_benchmarks

    cases = []
    for bench in all_benchmarks():
        data = bench.build_dataset(bench.dataset_names[0], SCALE)
        for case_id, label, params in corpus():
            trace = drive(bench, data, label, params)
            case = {"id": "%s-%s" % (bench.name, case_id),
                    "benchmark": bench.name, "label": label,
                    "params": params.describe()}
            case.update(encode_trace(trace))
            case["expected"] = [observe(trace, config)
                                for config in DEVICE_CONFIGS]
            # The stored form must replay to the same values.
            assert [observe(decode_trace(case), config)
                    for config in DEVICE_CONFIGS] == case["expected"]
            cases.append(case)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    blob = json.dumps({"scale": SCALE, "cases": cases},
                      separators=(",", ":")).encode("utf-8")
    with open(GOLDEN, "wb") as handle:
        with gzip.GzipFile(fileobj=handle, mode="wb", mtime=0) as packed:
            packed.write(blob)
    return cases


def load_cases():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as handle:
        return json.load(handle)["cases"]


CASES = load_cases() if os.path.exists(GOLDEN) else []


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_bit_identical_timing_and_breakdown(case):
    trace = decode_trace(case)
    for config, expected in zip(DEVICE_CONFIGS, case["expected"]):
        assert observe(trace, config) == expected


@pytest.mark.parametrize(
    "bench_name", sorted({case["benchmark"] for case in CASES}))
def test_engine_reproduces_stored_traces(bench_name):
    from repro.benchmarks import get_benchmark

    bench = get_benchmark(bench_name)
    data = bench.build_dataset(bench.dataset_names[0], SCALE)
    stored = {case["id"]: case for case in CASES}
    for case_id, label, params in corpus():
        case = stored["%s-%s" % (bench_name, case_id)]
        trace = encode_trace(drive(bench, data, label, params))
        assert trace == {"grids": case["grids"],
                         "host_events": case["host_events"]}, case["id"]


def test_corpus_covers_all_benchmarks_and_labels():
    assert CASES, "missing %s; rebuild it (see rebuild())" % GOLDEN
    ids = {case["id"] for case in CASES}
    names = {case["benchmark"] for case in CASES}
    assert len(names) == 7
    assert ids == {"%s-%s" % (name, case_id)
                   for name in names for case_id, _, _ in corpus()}
    # Grid granularity is the only path to host-aggregated launches.
    host_agg = [case["id"] for case in CASES
                if case["expected"][0]["host_agg_launches"] > 0]
    assert host_agg and all(case_id.endswith("-grid")
                            for case_id in host_agg)


if __name__ == "__main__":
    built = rebuild()
    print("wrote %d traces to %s" % (len(built), GOLDEN))
