"""One benchmark request: a fresh interpreter runs graphpower.cli.main once.

Usage: python3 child.py '<json spec>' where the spec holds "argv" (the CLI
arguments) and "trace" (whether to record spans). The benchmark process puts
the checkout's `src` on PYTHONPATH. The child prints one JSON record on its
real stdout: when set-up ended (on the system-wide monotonic clock, which the
benchmark process compares with the time it spawned the child), the latency
of main, the exit code main would give the `graphpower` command, the CLI's
captured stdout and stderr, any exception that escaped main, the peak RSS,
the mean time a fixed calibration loop took just before and just after main
and, when tracing, the spans.
"""

import time
import sys

import graphpower.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imported after set-up ends on purpose)
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def calibrate(rounds=5000):
    """Time a fixed pure-Python loop of the kind graphpower runs (small
    integer rows, list and dict work). The benchmark divides by it to take
    out how fast the shared host happens to run the child. The cycle
    collector is off meanwhile, so that what main leaves on the heap cannot
    slow the loop and make main look faster."""
    gc.disable()
    t0 = time.perf_counter()
    rows = [[(i * 7 + j * 13) % 17 - 8 for j in range(16)] for i in range(16)]
    seen, acc = {}, 1
    for k in range(rounds):
        row, other = rows[k & 15], rows[(k * 5 + 3) & 15]
        q = row[k % 16] or 1
        rows[k & 15] = [a * q - b for a, b in zip(row, other)]
        acc = (acc * 1000003 + sum(rows[k & 15])) % (1 << 61)
        seen[acc & 4095] = k
        if k % 64 == 63:
            rows = [[x % 1000003 for x in r] for r in rows]
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def main():
    before = calibrate()
    spec = json.loads(sys.argv[1])
    tracer = wrapped = missing = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        wrapped, missing = tracing.install(tracer)
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = graphpower.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what escapes main ends the real command in a traceback
            rc = 1
            exception = traceback.format_exc(limit=-3)
        latency = time.perf_counter() - t0
    calibration = (before + calibrate()) / 2
    record = {
        "ready": READY,
        "calibration": calibration,
        "latency": latency,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "exception": exception,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "program": os.path.dirname(graphpower.cli.__file__),
    }
    if tracer is not None:
        record.update(spans=tracer.spans, wrapped=wrapped, missing=missing)
    sys.stdout.write(json.dumps(record))


if __name__ == "__main__":
    main()
