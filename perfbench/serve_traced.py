"""Run ``repro serve`` with the perfbench spans installed; on exit, write
the span totals (seconds, self seconds, calls, counters) as JSON.

    python3 perfbench/serve_traced.py SPANS.json serve --port 0 --cache-dir DIR
"""

import json
import sys

from tracing import Tracer
from util import import_repro


def main(argv):
    dump, serve_argv = argv[0], argv[1:]
    import_repro()
    from repro.cli import main as repro_main
    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(serve_argv)
    finally:
        tracer.uninstall()
        with open(dump, "w") as handle:
            json.dump(tracer.totals((0, {})), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
