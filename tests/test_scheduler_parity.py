"""Golden parity suite: vectorized scheduler vs the oracle, breakdown pinned.

The vectorized :mod:`repro.sim.scheduler` must be *bit-identical* to the
pre-vectorization implementation, and :func:`repro.sim.metrics.breakdown`
to the scalar accounting loop — the timing model is the reproduction's
ground truth, so "almost the same" is a regression. The oracle scheduler is
kept verbatim in :mod:`repro.sim.scheduler_ref`. ``breakdown`` is itself a
scalar loop; a verbatim copy is inlined here so an edit to the production
loop cannot silently change the accounting.

The corpus is every benchmark (Table I's seven) × every variant label
(Fig. 9's nine series) at a small fixed scale, each replayed on the default
device and on a deliberately skewed one (fewer SMs, slower launch server,
pricier host round-trips) so congestion and underutilization paths are both
exercised.
"""

import pytest

from repro.benchmarks import all_benchmarks
from repro.harness.variants import VARIANT_LABELS, TuningParams, mask_params, \
    variant_to_run
from repro.runtime.host import Device
from repro.sim.config import DeviceConfig
from repro.sim.metrics import Breakdown, breakdown
from repro.sim.scheduler import simulate
from repro.sim.scheduler_ref import simulate_reference
from repro.sim.trace import HOST_AGG

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


def breakdown_oracle(trace, config):
    """The pre-vectorization scalar accounting loop, verbatim."""
    result = Breakdown()
    for grid in trace.grids:
        own = grid.total_cycles - grid.reg_agg - grid.reg_disagg \
            - grid.reg_launch
        result.agg += grid.reg_agg
        result.disagg += grid.reg_disagg
        result.launch += grid.reg_launch
        if grid.is_dynamic:
            result.child += own
        else:
            result.parent += own
        if grid.launch is not None:
            if grid.launch.kind == HOST_AGG:
                result.launch += config.host_agg_overhead
            elif grid.is_dynamic:
                result.launch += (config.launch_service_interval
                                  + config.device_launch_latency)
    return result


def trace_for(bench, label):
    data = bench.build_dataset(bench.dataset_names[0], SCALE)
    variant, config = variant_to_run(label, mask_params(label, BASE_PARAMS))
    module = bench.module_for(variant, config)
    device = Device(module)
    bench.drive(device, data)
    return device.trace


CASES = [(bench, label)
         for bench in all_benchmarks() for label in VARIANT_LABELS]


@pytest.mark.parametrize(
    "bench,label", CASES,
    ids=["%s-%s" % (b.name, label) for b, label in CASES])
def test_bit_identical_timing_and_breakdown(bench, label):
    trace = trace_for(bench, label)
    for config in DEVICE_CONFIGS:
        got = simulate(trace, config)
        want = simulate_reference(trace, config)
        # One dataclass comparison covers total_time, every GridTiming
        # (ready/first_start/finish/blocks_done), the launch-queue wait,
        # and both launch counters.
        assert got == want
        assert got.launch_queue_wait == want.launch_queue_wait
        assert breakdown(trace, config) == breakdown_oracle(trace, config)


def test_corpus_covers_all_benchmarks_and_labels():
    names = {b.name for b, _ in CASES}
    assert len(names) == 7
    assert {label for _, label in CASES} == set(VARIANT_LABELS)

