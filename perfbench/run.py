"""fmzv benchmark: what a user of the research tool waits for, per operation.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each operation is one CLI-shaped call (``fmzv.cli.main(argv)``) or one pair
of ``dimension_estimate`` calls, run in a fresh interpreter with ``--jobs 1``;
processes start one at a time.  Users pay the warm-up of the evaluator's memo
and ``lru_cache`` tables on every invocation, so every operation pays it too.
Operations repeat until ``--seconds`` is spent.  Times are scaled to a fixed
host speed (see REF_S) and averaged over the run's operations.  ``--seed``
picks one of a few windows of consecutive primes (same prime count, similar
size); seed 0 is the ranges named in BENCHMARK.json.

Every operation is checked: exit code 0, every case passing, the case count
and the sha256 of stdout equal to the outputs recorded in expected.json, the
dims results equal to the recorded ones and to fib/dseq, and a warm cache file
left unchanged.  The last stdout line is one JSON object; the exit code is 1
if any operation failed.  ``--trace 1`` runs traced operations between
untraced ones and reports the per-layer metrics (see tracing.py) instead.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OP = HERE / "op.py"

# base --primes range of each workload; expected.json holds its shifted windows
WORKLOADS = {
    "key-w7-coldcache": {"cli": ["verify", "--suite", "key", "--wmax", "7"],
                         "cache": "cold", "primes": "5..400"},
    "ppt-r6-warmcache": {"cli": ["verify", "--suite", "ppt"],
                         "cache": "warm", "primes": "5..200"},
    "depth2-bigp": {"cli": ["verify", "--suite", "depth2", "--kmax", "9"],
                    "cache": None, "primes": "1000..1400"},
    "dims-w8": {"weight": 8, "primes": "11..260"},
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "work_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "evaluator.cells_computed": "count",
    "evaluator.compute_self_s": "s",
    "evaluator.lookups": "count",
    "evaluator.memo_hit_ratio": "ratio",
    "evaluator.cache_load_s": "s",
    "evaluator.cache_hits": "count",
    "evaluator.cache_appends": "count",
    "evaluator.cache_append_s": "s",
    "modmath.batch_inv_calls": "count",
    "modmath.batch_inv_s": "s",
    "modmath.recon_s": "s",
    "bernoulli.zk_calls": "count",
    "bernoulli.zk_s": "s",
    "identities.ppt_constants_calls": "count",
    "identities.ppt_constants_self_s": "s",
    "identities.rows_self_s": "s",
    "identities.render_s": "s",
    "identities.cases": "count",
    "lattice.cut_calls": "count",
    "lattice.cut_self_s": "s",
    "lattice.hnf_s": "s",
    "lattice.lll_s": "s",
    "lattice.lll_rank": "count",
    "lattice.lll_in_bits": "bits",
    "lattice.lll_out_bits": "bits",
    "relations.matrix_s": "s",
    "relations.lattice_self_s": "s",
    "relations.verified": "count",
    "relations.refuted": "count",
    "trace.dominant_share": "ratio",
    "trace.overhead_s": "s",
}

MIN_OPS = 3            # untraced operations per run, whatever --seconds says
SETUP_PROBES = 3       # extra processes before each untraced operation that only set up
# The host is shared, and the speed of each virtual CPU drifts by up to 1.7x
# over seconds to minutes, so raw times of runs a few minutes apart disagree by
# more than any bound.  op.py times a fixed loop inside every operation, on the
# CPU the operation runs on, and reports the median reading as "ref_s"; each
# operation's times are scaled by REF_S / ref_s.  REF_S is about the loop's
# time on an unloaded 2-vCPU Xeon host and only sets the scale: scaled times
# read as seconds on such a host.  Nothing of the program runs in the loop.
REF_S = 0.006
RUN_LIMIT_S = 170      # a run ends within this, fixture build aside
FIXTURE_LIMIT_S = 600


def clock():
    # CLOCK_MONOTONIC is system-wide, so a child can subtract the parent's reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_windows():
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def op_spec(wl, window, cache_path=None, trace=False, probe=False):
    spec = {"src": str(SRC), "trace": trace, "probe": probe}
    if "weight" in wl:
        spec.update(kind="dims", weight=wl["weight"], primes=window["primes"])
    else:
        argv = ["--jobs", "1"]
        if cache_path is not None:
            argv += ["--cache", str(cache_path)]
        spec.update(kind="cli", argv=argv + wl["cli"] + ["--primes", window["primes"]])
    return spec


def run_op(spec, timeout):
    """(report, None) from one operation in a new interpreter, or (None, error)."""
    spec = dict(spec, t_spawn=clock())
    try:
        proc = subprocess.run([sys.executable, str(OP), json.dumps(spec)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, "operation process exited %d: %s" % (proc.returncode, tail[0])
    return json.loads(proc.stdout.splitlines()[-1]), None


def problems(wl, window, rep):
    """Reasons an operation's output is wrong; empty when it is right."""
    out = []
    if rep["rc"] != 0:
        out.append("exit code %s" % rep["rc"])
    if "weight" in wl:
        dims = [dim for _, dim in rep["result"]]
        if dims != rep["conjectured"]:
            out.append("dims %s, conjectured %s" % (dims, rep["conjectured"]))
        if "result" in window and rep["result"] != window["result"]:
            out.append("result %s, recorded %s" % (rep["result"], window["result"]))
        return out
    if rep["cases"] is None:
        out.append("no suite summary line on stdout")
    elif rep["failed_cases"]:
        out.append("%d cases failed" % rep["failed_cases"])
    if "cases" in window and rep["cases"] != window["cases"]:
        out.append("%s cases, recorded %d" % (rep["cases"], window["cases"]))
    if "sha256" in window and rep["sha256"] != window["sha256"]:
        out.append("stdout differs from the recorded output")
    return out


def file_state(path):
    data = Path(path).read_bytes()
    return [len(data), hashlib.sha256(data).hexdigest()]


def warm_fixture(name, wl, window):
    """(path, state) of the cache file prefilled by the workload's own command.

    It is built once per source tree; its size and sha256 at build time are
    kept beside it, and a run refuses a file that no longer matches them.
    """
    h = hashlib.sha256()
    for f in sorted((SRC / "fmzv").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    path = WORK / ("%s-%s-%s.cache" % (name, window["primes"].replace("..", "-"),
                                       h.hexdigest()[:16]))
    built = path.with_name(path.name + ".state")
    if not (path.exists() and built.exists()):
        tmp = path.with_name(path.name + ".tmp%d" % os.getpid())
        tmp.unlink(missing_ok=True)
        rep, err = run_op(op_spec(wl, window, tmp), FIXTURE_LIMIT_S)
        why = [err] if err else problems(wl, window, rep)
        if why:
            tmp.unlink(missing_ok=True)
            raise RuntimeError("building the warm cache failed: " + "; ".join(why))
        built.write_text(json.dumps(file_state(tmp)))
        os.replace(tmp, path)
    state = file_state(path)
    if json.loads(built.read_text()) != state:
        raise RuntimeError("the warm cache %s changed after it was built" % path)
    return path, state


def measure(name, wl, window, seconds, trace):
    """Run operations of one workload for `seconds`; returns (reports, failures, setups).

    reports is a list of (traced, report), each report carrying the host
    "scale" of its operation; failures a list of messages, one per failed
    operation; setups the scaled set-up times of the probe processes.
    """
    WORK.mkdir(exist_ok=True)
    fixture, fixture_state = (warm_fixture(name, wl, window) if wl.get("cache") == "warm"
                              else (None, None))
    start = time.perf_counter()
    setups = []
    reports, failures, took = [], [], {False: [], True: []}
    while True:
        traced = trace and len(reports) % 2 == 1
        t0 = time.perf_counter()
        probes = []
        for _ in range(0 if trace else SETUP_PROBES):
            rep, err = run_op(op_spec(wl, window, probe=True), RUN_LIMIT_S)
            if err:
                raise RuntimeError("set-up probe failed: " + err)
            probes.append(rep["setup_s"])
        cache = fixture
        if wl.get("cache") == "cold":
            cache = WORK / ("cold-%d-%d.cache" % (os.getpid(), len(reports)))
            cache.write_bytes(b"")
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        rep, err = run_op(op_spec(wl, window, cache, traced), max(left, 1))
        if rep is not None:
            rep["scale"] = REF_S / rep["ref_s"]
            setups += [v * rep["scale"] for v in probes]
        took[traced].append(time.perf_counter() - t0)
        why = [err] if err else problems(wl, window, rep)
        if fixture and file_state(fixture) != fixture_state:
            why.append("the warm cache file changed")
        if wl.get("cache") == "cold":
            cache.unlink()
        reports.append((traced, rep))
        if why:
            failures.append("; ".join(why))
        if err:
            break
        elapsed = time.perf_counter() - start
        kind = trace and not traced
        nxt = statistics.median(took[kind] or took[not kind])
        enough = len(reports) >= (2 if trace else MIN_OPS)
        if (enough and elapsed + nxt > seconds) or elapsed + nxt > RUN_LIMIT_S:
            break
    return reports, failures, setups


def summarize(reports, setups, trace):
    """(metrics, notes): the run's metrics by name, plus lines for the reader."""
    plain = [r for t, r in reports if r is not None and not t]
    if not trace:
        # the mean, not the median: the host's slow phases outlast an operation,
        # and a mean over all of the run's time averages them out best
        wall = statistics.mean(r["wall_s"] * r["scale"] for r in plain)
        return {
            "wall_s": wall,
            "cpu_s": statistics.mean(r["cpu_s"] * r["scale"] for r in plain),
            "work_per_s": statistics.mean(r["work"] for r in plain) / wall,
            "setup_s": statistics.median(setups + [r["setup_s"] * r["scale"] for r in plain]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }, ["operations timed: %d; set-up samples: %d" % (len(plain), len(setups) + len(plain)),
            "raw wall_s of each operation: " + " ".join("%.3f" % r["wall_s"] for r in plain),
            "host scale of each operation: " + " ".join("%.3f" % r["scale"] for r in plain)]
    traced = [r for t, r in reports if r is not None and t]
    metrics = {m: statistics.median(r["layers"][m] for r in traced)
               for m in PER_LAYER if m != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.mean(r["wall_s"] * r["scale"] for r in traced)
                                   - statistics.mean(r["wall_s"] * r["scale"] for r in plain))
    layers = [r["layers"]["trace.dominant_layer"] for r in traced]
    dominant = max(set(layers), key=layers.count)
    return metrics, ["traced operations: %d; untraced: %d" % (len(traced), len(plain)),
                     "dominant layer: %s" % dominant]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fmzv" / "cli.py").is_file():
        print("error: no fmzv source tree at %s" % SRC, file=sys.stderr)
        return 2

    windows = load_windows()[args.workload]
    window = windows[args.seed % len(windows)]
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        reports, failures, setups = measure(args.workload, wl, window, args.seconds, trace)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    kinds = {traced for traced, rep in reports if rep is not None}
    if kinds != ({False, True} if trace else {False}):
        for f in failures:
            print("error: %s" % f, file=sys.stderr)
        return 1
    metrics, notes = summarize(reports, setups, trace)
    units = PER_LAYER if trace else END_TO_END

    print("workload %s  seed %d  primes %s  trace %d"
          % (args.workload, args.seed, window["primes"], args.trace))
    for note in notes:
        print("  " + note)
    for m, v in metrics.items():
        print("  %-34s %.6g %s" % (m, v, units[m]))
    print("  %-34s %.6g (%d of %d operations)" % ("fail_ratio", len(failures) / len(reports),
                                                  len(failures), len(reports)))
    for f in failures:
        print("  FAILED: " + f)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(reports),
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
