"""Record the reference outputs that run.py checks every operation against.

Run from the repository root, only at a commit whose outputs are the reference:

    python3 perfbench/record_expected.py

Each workload gets WINDOWS windows of consecutive primes: window 0 is its base
range, window o drops the o smallest primes of it and adds the next o primes
above it.  For each window three operations run through the benchmark's own
path; they must agree, and their stdout sha256 and case count (or the dims
results) are written to expected.json.
"""

import json
import sys

import run

WINDOWS = 3


def windows(base):
    sys.path.insert(0, str(run.SRC))
    from fmzv.modmath import sieve_primes

    lo, hi = map(int, base.split(".."))
    n = len(sieve_primes(lo, hi))
    ahead = sieve_primes(lo, 2 * hi + 100)
    out = [base]
    for o in range(1, WINDOWS):
        out.append("%d..%d" % (ahead[o], ahead[o + n - 1]))
    return out


def main():
    expected = {}
    for name, wl in run.WORKLOADS.items():
        expected[name] = []
        for primes in windows(wl["primes"]):
            window = {"primes": primes}
            reports, failures, _ = run.measure(name, wl, window, 0, False)
            if failures:
                sys.exit("%s %s: %s" % (name, primes, failures))
            reps = [rep for _, rep in reports]
            if "weight" in wl:
                keys = {json.dumps(r["result"]) for r in reps}
                window["result"] = reps[0]["result"]
            else:
                keys = {(r["sha256"], r["cases"]) for r in reps}
                window.update(sha256=reps[0]["sha256"], cases=reps[0]["cases"])
            if len(keys) != 1:
                sys.exit("%s %s: operations disagree" % (name, primes))
            print(name, window, file=sys.stderr)
            expected[name].append(window)
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
