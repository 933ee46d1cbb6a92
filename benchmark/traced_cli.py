"""Run one relhpe CLI command under the tracer.

    python3 traced_cli.py TRACE_OUT RUN_ID ARGV...

Imports relhpe.cli (timed as the 'cli.import' span), wraps the functions
listed in tracer.PLAN, calls relhpe.cli.main(ARGV) and writes the spans
and counters to TRACE_OUT as JSON lines when the command ends.
"""

import sys
import time

if __name__ == "__main__":
    trace_out, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter_ns()
    import relhpe.cli
    t1 = time.perf_counter_ns()

    from tracer import Tracer, install

    tracer = Tracer(run_id)
    tracer.record_span("cli.import", t0, t1)
    install(tracer)
    try:
        rc = relhpe.cli.main(argv)
    finally:
        tracer.write(trace_out)
    sys.exit(rc)
