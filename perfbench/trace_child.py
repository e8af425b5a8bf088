"""``python -m hopftwist.cli`` with the per-layer tracer installed.

    python3 perfbench/trace_child.py verify <suite> [cli options]

Behaves like the CLI (same output, same exit code, an uncaught exception
still ends in a traceback) and additionally writes one line to stderr:
MARKER followed by a JSON object with the layer stats, the import time of
``hopftwist.cli`` and the targets that could not be resolved.
"""

import json
import sys
import time

import tracer

MARKER = "perfbench-trace "


def main(argv):
    t0 = time.perf_counter()
    import hopftwist.cli

    import_s = time.perf_counter() - t0
    tr = tracer.Tracer()
    tr.install()
    try:
        return hopftwist.cli.main(argv)
    finally:
        tr.uninstall()
        payload = {"stats": tr.stats, "import_s": import_s, "absent": tr.absent}
        sys.stderr.write(MARKER + json.dumps(payload) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
