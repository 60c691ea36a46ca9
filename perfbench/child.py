"""Traced cold CLI process: ``python perfbench/child.py decompose --input ...``.

Times ``import lsdecomp.cli`` (numpy included) on the CPU clock, runs ``cli.main`` with the
layer spans installed, and appends one line ``SPANS <json>`` to stdout
after the report. Needs ``src`` on ``PYTHONPATH``.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.process_time()
    import lsdecomp.cli

    import_ms = (time.process_time() - t0) * 1e3
    import tracer

    tr = tracer.Tracer()
    tr.install()
    rc = lsdecomp.cli.main(sys.argv[1:])
    sys.stdout.write("SPANS " + json.dumps({"import_ms": import_ms, "spans": tr.spans}) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
