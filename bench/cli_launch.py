"""Run the command line front end with the benchmark's tracer installed.

Usage: python3 bench/cli_launch.py TRACE_OUT ARG...

Behaves like `python -m monodromy ARG...`, exit code and tracebacks
included.  On the way out it writes the span totals, the spans and the
seconds spent inside monodromy.cli.main to TRACE_OUT as one JSON object.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import monodromy.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main():
    out = sys.argv[1]
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        return monodromy.cli.main(sys.argv[2:])
    finally:
        main_s = time.perf_counter() - start
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"main_s": main_s, "summary": tracer.summary(),
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
