"""Stored result matrix: every result the engine gives at scale 0.1, pinned.

``tests/data/result_matrix.json`` stores one line per point of the matrix
every benchmark/dataset pair (Table I's 19) × every variant label × every
aggregation granularity the label allows, at scale 0.1 and the golden
corpus's tuning point (threshold 64, coarsening 2, multi-block groups of
4; masked per label). Each point keeps three digests:

* its trace, encoded as the golden corpus encodes it (block costs, launch
  edges and offsets, region cycles, host events);
* its :meth:`~repro.harness.runner.RunResult.to_dict`;
* each output's bytes, next to its dtype and shape.

The golden corpus (``tests/test_timing_golden.py``) pins traces on each
benchmark's first dataset only, and never the warp or block granularity;
this matrix covers every pair and granularity, and the outputs too.

Tier-1 re-drives a stratified subset: every pair, and every label and
granularity, appears in it. The whole matrix is re-driven by

    PYTHONPATH=src python -m tests.test_result_matrix

which prints each point that differs and exits 1 if any does (about 10 s).
``--rebuild`` re-records the file. The stored results are the engine's
semantics, so rebuild only together with a ``CACHE_VERSION`` bump in
:mod:`repro.harness.cache`, as for the golden corpus;
:func:`test_matrix_matches_cache_version` fails until then.
"""

import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.benchmarks import all_benchmarks
from repro.harness import cache as result_cache
from repro.harness.runner import run_variant
from repro.harness.variants import (ALL_GRANULARITIES, KLAP_GRANULARITIES,
                                    VARIANT_LABELS, mask_params, uses)
from tests.test_timing_golden import BASE_PARAMS, encode_trace

MATRIX = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "result_matrix.json")

SCALE = 0.1

#: Tier-1 re-drives the points whose pair index plus label/granularity
#: index is a multiple of this: 5 of each pair's 20 points.
SUBSET_STRIDE = 4


def label_points():
    """``(label, params)`` of every label at every granularity it allows."""
    points = []
    for label in VARIANT_LABELS:
        if not uses(label, "A"):
            points.append((label, mask_params(label, BASE_PARAMS)))
            continue
        granularities = (KLAP_GRANULARITIES if label.startswith("KLAP")
                         else ALL_GRANULARITIES)
        points += [(label, mask_params(label, replace(
            BASE_PARAMS, granularity=granularity)))
            for granularity in granularities]
    return points


def pairs():
    """``(benchmark, dataset name)`` of every pair, in registry order."""
    return [(bench, name) for bench in all_benchmarks()
            for name in bench.dataset_names]


def point_id(bench_name, dataset, label, params):
    return "%s:%s:%s:%s" % (bench_name, dataset, label, params.describe())


def _digest(payload):
    return hashlib.sha256(payload).hexdigest()[:16]


def _json_digest(value):
    return _digest(json.dumps(value, sort_keys=True,
                              separators=(",", ":")).encode("utf-8"))


class _Recorder:
    """*bench* for :func:`run_variant`, keeping the Device of its run."""

    def __init__(self, bench):
        self.name = bench.name
        self._bench = bench
        self.device = None

    def run(self, *args, **kwargs):
        outputs, timing, self.device = self._bench.run(*args, **kwargs)
        return outputs, timing, self.device


def observe(bench, data, label, params):
    """The stored form of one point: its three kinds of digest."""
    recorder = _Recorder(bench)
    result = run_variant(recorder, data, label, params, keep_outputs=True)
    outputs = {
        name: [str(array.dtype), list(array.shape),
               _digest(np.ascontiguousarray(array).tobytes())]
        for name, array in sorted(result.outputs.items())}
    return {"trace": _json_digest(encode_trace(recorder.device.trace)),
            "result": _json_digest(result.to_dict()),
            "outputs": outputs}


def drive(selected=None):
    """``{point id: observation}`` of the matrix, or of the points whose
    ids are in *selected*; builds each pair's dataset once."""
    observed = {}
    points = label_points()
    for bench, dataset in pairs():
        ids = [point_id(bench.name, dataset, label, params)
               for label, params in points]
        if selected is not None and not set(ids) & selected:
            continue
        data = bench.build_dataset(dataset, SCALE)
        for key, (label, params) in zip(ids, points):
            if selected is None or key in selected:
                observed[key] = observe(bench, data, label, params)
    return observed


def subset():
    """The stratified tier-1 subset: every pair and every label point."""
    points = label_points()
    return {point_id(bench.name, dataset, label, params)
            for i, (bench, dataset) in enumerate(pairs())
            for j, (label, params) in enumerate(points)
            if (i + j) % SUBSET_STRIDE == 0}


def rebuild():
    """Re-record the matrix from the engine as it is now (see the module
    docstring for when)."""
    observed = drive()
    lines = ["{\"scale\": %s, \"cache_version\": %d, \"points\": {"
             % (SCALE, result_cache.CACHE_VERSION)]
    for i, (key, value) in enumerate(observed.items()):
        lines.append("%s: %s%s" % (json.dumps(key), json.dumps(value),
                                   "," if i + 1 < len(observed) else ""))
    lines.append("}}")
    with open(MATRIX, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return observed


def load():
    with open(MATRIX, encoding="utf-8") as handle:
        return json.load(handle)


STORED = load() if os.path.exists(MATRIX) else {"points": {}}


def test_matrix_covers_every_pair_label_and_granularity():
    assert STORED["points"], "missing %s; rebuild it (see rebuild())" % MATRIX
    expected = [point_id(bench.name, dataset, label, params)
                for bench, dataset in pairs()
                for label, params in label_points()]
    assert len(expected) == 19 * 20
    assert list(STORED["points"]) == expected
    assert STORED["scale"] == SCALE


def test_matrix_matches_cache_version():
    assert STORED["cache_version"] == result_cache.CACHE_VERSION, (
        "CACHE_VERSION moved: rebuild %s with it" % MATRIX)


def test_subset_is_stratified():
    chosen = subset()
    points = label_points()
    for bench, dataset in pairs():
        assert any(key.startswith("%s:%s:" % (bench.name, dataset))
                   for key in chosen)
    for label, params in points:
        suffix = ":%s:%s" % (label, params.describe())
        assert any(key.endswith(suffix) for key in chosen)


def test_engine_reproduces_stored_subset():
    chosen = subset()
    observed = drive(chosen)
    assert observed.keys() == chosen
    differing = sorted(key for key, value in observed.items()
                       if STORED["points"][key] != value)
    assert not differing, differing


def main(argv):
    if argv == ["--rebuild"]:
        built = rebuild()
        print("wrote %d points to %s" % (len(built), MATRIX))
        return 0
    if argv:
        print("usage: python -m tests.test_result_matrix [--rebuild]",
              file=sys.stderr)
        return 2
    observed = drive()
    differing = [key for key in STORED["points"]
                 if observed.get(key) != STORED["points"][key]]
    for key in differing:
        print("differs: %s\n  stored   %s\n  observed %s" % (
            key, json.dumps(STORED["points"][key]),
            json.dumps(observed.get(key))))
    print("%d of %d points match" % (len(STORED["points"]) - len(differing),
                                     len(STORED["points"])))
    return 1 if differing or len(observed) != len(STORED["points"]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
