"""Run one benchmark operation in this (fresh) interpreter and report it.

Usage: python3 op.py '<json spec>'

The spec names the source tree, the operation and the moment the parent
started this process.  Everything up to the timed call (interpreter start,
``import fmzv``, building the prime list) is set-up.  The operation's own
stdout is captured and digested; the report is one JSON line on stdout.

While the operation runs, a timer signal times a fixed loop every
REF_INTERVAL_S, in this process and so on whichever CPU the operation is on at
that moment.  The median of those readings ("ref_s") tells the parent how fast
the shared host ran during the operation; the time spent in the loop is taken
out of the operation's wall and CPU time.
"""

import hashlib
import io
import json
import re
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stdout

SUMMARY = re.compile(r"suite \S+: (\d+) cases, (\d+) passed, (\d+) failed\n\Z")
REF_ITERATIONS = 100_000   # run.py holds the loop's nominal time, REF_S
REF_INTERVAL_S = 0.2


def _time_reference(readings):
    """Append (wall, cpu) seconds of one pass of the fixed reference loop."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i
    readings.append((time.perf_counter() - t0, time.process_time() - c0))


def _cli_op(cli, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refuses bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from fmzv import cli
    from fmzv.modmath import sieve_primes
    from fmzv.relations import dimension_estimate, dseq, fib

    if spec["kind"] == "dims":
        lo, hi = map(int, spec["primes"].split(".."))
        primes = sieve_primes(lo, hi)
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["t_spawn"]
    if spec.get("probe"):
        print(json.dumps({"setup_s": setup_s}))
        return

    readings = []
    _time_reference(readings)  # one reading even for an operation under REF_INTERVAL_S
    signal.signal(signal.SIGALRM, lambda *_: _time_reference(readings))
    signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
    before = len(readings)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if spec["kind"] == "cli":
        rc, text = _cli_op(cli, spec["argv"])
    else:
        k = spec["weight"]
        level2 = dimension_estimate(k, "zeta2", primes)
        level1 = dimension_estimate(k, "zeta", primes)
    signal.setitimer(signal.ITIMER_REAL, 0)
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    inside = readings[before:]
    _time_reference(readings)

    rep = {
        "setup_s": setup_s,
        "wall_s": t1 - t0 - sum(w for w, _ in inside),
        "cpu_s": cpu1 - cpu0 - sum(c for _, c in inside),
        "ref_s": statistics.median(w for w, _ in readings),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spec["kind"] == "cli":
        m = SUMMARY.search(text)
        rep.update(rc=rc, sha256=hashlib.sha256(text.encode()).hexdigest(),
                   cases=int(m.group(1)) if m else None,
                   failed_cases=int(m.group(3)) if m else None)
        rep["work"] = rep["cases"] or 0
    else:
        rep.update(rc=0, result=[list(level2), list(level1)],
                   conjectured=[fib(k), dseq(k - 3)],
                   work=2 * 2 ** (k - 1) * len(primes))
    if tracer is not None:
        rep["layers"] = tracer.metrics(t0, t1, cases=rep.get("cases") or 0)
    print(json.dumps(rep))


if __name__ == "__main__":
    main()
