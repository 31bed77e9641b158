"""Time the host probe about every 50 ms until stdin closes, then print
the probe times as one JSON list.

    python3 perfbench/hostprobe.py

serve-mixed runs this beside ``repro serve``: the server is another
process, so a probe on the benchmark's own thread cannot follow it.
Probes are timed in thread CPU seconds, so a probe that waits for a vCPU
the server holds does not read as a slow host.
"""

import json
import select
import sys
import time

from util import PROBE_ITERATIONS, calibrate

INTERVAL_S = 0.05


def main():
    samples = []
    while True:
        samples.append(calibrate(PROBE_ITERATIONS, time.thread_time))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            break
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
