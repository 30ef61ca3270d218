"""Traced stand-in for `python -m xyswap`: imports the CLI, wraps the
package's layers, calls `xyswap.cli.run` with the given argv and exits
with its code.  The CLI's own output goes to stdout unchanged; one
`PERFBENCH_TRACE <json>` line on stderr carries the import time, the run
time and the span totals.
"""

import time

_start = time.perf_counter()
import xyswap.cli  # noqa: E402  (the import itself is measured)

_imported = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracer as tracing  # noqa: E402


def main():
    warnings = tracing.WarningCounter.attach()
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    code = xyswap.cli.run(sys.argv[1:])
    run_s = time.perf_counter() - start
    sys.stdout.flush()
    dump = tracer.dump()
    dump["counters"].update(warnings.counts)
    report = {"import_ms": 1e3 * (_imported - _start), "run_ms": 1e3 * run_s, "trace": dump}
    sys.stderr.write("PERFBENCH_TRACE " + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
