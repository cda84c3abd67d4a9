"""Run one cherloc CLI job under the tracer.

    PERFBENCH_SPAWN_NS=<monotonic ns> python3 perfbench/traced_child.py TRACE_JSON ARGS...

ARGS are the arguments of `python -m cherloc.cli`.  Startup time is the
interval from the parent's spawn timestamp to the end of
`import cherloc.cli`; the trace is written when the job ends.
"""

import os
import sys
import time


def main() -> int:
    import cherloc.cli

    startup_ns = time.monotonic_ns() - int(os.environ["PERFBENCH_SPAWN_NS"])
    from tracer import Tracer

    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cherloc.cli.main(argv)
    finally:
        tracer.dump(trace_path, startup_ns)


if __name__ == "__main__":
    sys.exit(main())
