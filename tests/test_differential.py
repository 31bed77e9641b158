"""Differential suite: the paper's transformations never change results.

Sec. VI promises that thresholding, coarsening and aggregation, in any
combination, generate correct code. These properties check that promise
on the real benchmarks: a drawn Fig. 9 pair, a drawn variant label and a
tuning point drawn from the tuner's own spaces (thresholds up to the
pair's largest child launch, ``DEFAULT_CFACTORS``, the label's
granularities, ``DEFAULT_GROUP_BLOCKS``) must compute the same outputs as
the pair's No CDP code. Every pair thresholded just above its largest
child launch must serialize every child: zero device launches. And
aggregation never adds device launches: an aggregating label makes at
most as many as the same params under the label without ``+A``. Params
that differ only in components a label does not use mask to one cache
key and compute one result.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import FIG9_PAIRS, get_benchmark
from repro.harness.runner import child_launch_sizes, run_variant
from repro.harness.sweep import SweepPoint
from repro.harness.tuning import (DEFAULT_CFACTORS, DEFAULT_GROUP_BLOCKS,
                                  threshold_candidates)
from repro.harness.variants import (ALL_GRANULARITIES, KLAP_GRANULARITIES,
                                    VARIANT_LABELS, TuningParams,
                                    mask_params, uses)

SCALE = 0.05

#: Examples of the masking property: about a second in tier-1, more when
#: CI explores.
MASKING_EXAMPLES = (30 if settings.get_current_profile_name() == "explore"
                    else 5)

#: Each aggregating label, mapped to the same label without aggregation.
WITHOUT_AGGREGATION = {"CDP+T+A": "CDP+T", "CDP+C+A": "CDP+C",
                       "CDP+T+C+A": "CDP+T+C", "KLAP (CDP+A)": "CDP"}


@pytest.fixture(scope="module")
def pairs():
    """Per pair, built once: (bench, data, No CDP outputs, child launch
    sizes, the tuner's coarse thresholds)."""
    built = {}

    def get(pair):
        if pair not in built:
            bench = get_benchmark(pair[0])
            data = bench.build_dataset(pair[1], SCALE)
            reference = run_variant(bench, data, "No CDP",
                                    keep_outputs=True).outputs
            built[pair] = (bench, data, reference,
                           child_launch_sizes(bench, data),
                           threshold_candidates(bench, data, coarse=True))
        return built[pair]
    return get


def draw_params(data, label, thresholds):
    """A tuning point from the tuner's own spaces, masked for *label*."""
    granularities = (KLAP_GRANULARITIES if label == "KLAP (CDP+A)"
                     else ALL_GRANULARITIES)
    return mask_params(label, TuningParams(
        threshold=data.draw(st.sampled_from(thresholds)),
        coarsen_factor=data.draw(st.sampled_from(DEFAULT_CFACTORS)),
        granularity=data.draw(st.sampled_from(granularities)),
        group_blocks=data.draw(st.sampled_from(DEFAULT_GROUP_BLOCKS))))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_every_tuning_point_matches_no_cdp(pairs, data):
    pair = data.draw(st.sampled_from(FIG9_PAIRS), label="pair")
    label = data.draw(st.sampled_from(VARIANT_LABELS), label="label")
    bench, dataset, reference, _, thresholds = pairs(pair)
    params = draw_params(data, label, thresholds)
    run_variant(bench, dataset, label, params, check_against=reference)


@given(st.data())
@settings(max_examples=22, deadline=None)
def test_aggregation_never_adds_device_launches(pairs, data):
    pair = data.draw(st.sampled_from(FIG9_PAIRS), label="pair")
    label = data.draw(st.sampled_from(sorted(WITHOUT_AGGREGATION)),
                      label="label")
    bench, dataset, _, _, thresholds = pairs(pair)
    params = draw_params(data, label, thresholds)
    plain_label = WITHOUT_AGGREGATION[label]
    aggregated = run_variant(bench, dataset, label, params)
    plain = run_variant(bench, dataset, plain_label,
                        mask_params(plain_label, params))
    assert aggregated.device_launches <= plain.device_launches


@pytest.mark.parametrize("pair", FIG9_PAIRS, ids="{0[0]}:{0[1]}".format)
def test_threshold_above_every_launch_serializes_all_children(pairs, pair):
    bench, dataset, reference, sizes, _ = pairs(pair)
    threshold = max(sizes, default=0) + 1
    result = run_variant(bench, dataset, "CDP+T",
                         TuningParams(threshold=threshold),
                         check_against=reference)
    assert result.device_launches == 0


def add_strays(data, label, params):
    """*params* plus drawn values for every component *label* does not
    use, and a non-default group size unless it aggregates multi-block."""
    strays = {}
    if not uses(label, "T"):
        strays["threshold"] = data.draw(st.sampled_from((16, 64, 512)))
    if not uses(label, "C"):
        strays["coarsen_factor"] = data.draw(
            st.sampled_from(DEFAULT_CFACTORS))
    if not uses(label, "A"):
        strays["granularity"] = data.draw(st.sampled_from(ALL_GRANULARITIES))
    if params.granularity != "multiblock":
        strays["group_blocks"] = data.draw(st.sampled_from(
            [g for g in DEFAULT_GROUP_BLOCKS
             if g != TuningParams().group_blocks]))
    return replace(params, **strays)


@given(st.data())
@settings(max_examples=MASKING_EXAMPLES, deadline=None)
def test_masking_equivalent_params_share_key_and_result(pairs, data):
    pair = data.draw(st.sampled_from(FIG9_PAIRS), label="pair")
    label = data.draw(st.sampled_from(VARIANT_LABELS), label="label")
    bench, dataset, _, _, thresholds = pairs(pair)
    clean = draw_params(data, label, thresholds)
    raw = add_strays(data, label, clean)
    masked = mask_params(label, raw)
    assert SweepPoint(*pair, label, masked, scale=SCALE).spec() == \
        SweepPoint(*pair, label, clean, scale=SCALE).spec()
    results = [run_variant(bench, dataset, label, params).to_dict()
               for params in (raw, masked)]
    for result in results:
        del result["params"]
    assert results[0] == results[1]
