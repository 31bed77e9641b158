"""perfbench: the repository benchmark.

Runs one seeded workload, checks its outputs, and prints every metric by
name with its unit. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload fig9-cdp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` reports BENCHMARK.json's end-to-end metrics from an untraced
run; ``--trace 1`` its per-layer metrics from a traced run. ``--smoke``
runs every workload in both modes at a tiny size and fails if a metric
BENCHMARK.json names is missing or has no unit. Why each workload exists,
the layers it stresses and their measured shares are in
``perfbench/workloads.json``.
"""

import argparse
import json
import os
import subprocess
import sys
import time

from util import ROOT, BenchError, import_repro

WORKLOADS = ("fig9-cdp", "tune-tca", "serve-mixed")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    try:
        with open(SPEC_PATH) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (SPEC_PATH, exc))


def run_workload(args):
    spec = load_spec()
    started = time.perf_counter()
    import_repro()
    if args.workload == "serve-mixed":
        import serving as workload
    else:
        import sweeps as workload
    import_s = time.perf_counter() - started
    metrics, attempted, failed = workload.run(
        args.workload, args.seed, args.seconds, args.trace, args.size,
        import_s)
    report = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        value = metrics[entry["name"]]
        report[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print("%-32s %16.6g %s" % (entry["name"], value, entry["unit"]))
    print("%s: attempted %d, failed %d" % (args.workload, attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


def smoke():
    """Every workload in both modes at the smoke size, through this
    script's own command line; checks the result line of each run."""
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__),
                    "--workload", workload, "--seed", "7", "--seconds", "2",
                    "--trace", str(trace), "--size", "smoke"]
            started = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            name = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0 or not lines:
                problems.append("%s exited %d: %s" % (
                    name, proc.returncode, proc.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["attempted"] < 1:
                problems.append("%s: incorrect result %s" % (name, lines))
            for entry in spec["per_layer" if trace else "end_to_end"]:
                got = result["metrics"].get(entry["name"])
                if (got is None or not got.get("unit")
                        or not isinstance(got.get("value"), (int, float))):
                    problems.append("%s: metric %s missing or without a "
                                    "unit" % (name, entry["name"]))
            print("smoke %-24s %5.1fs  attempted %d, failed %d"
                  % (name, time.perf_counter() - started,
                     result["attempted"], result["failed"]))
    for problem in problems:
        print("FAIL: %s" % problem)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size (smoke: tiny inputs, one pass)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at the smoke size and "
                             "check every metric BENCHMARK.json names")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
