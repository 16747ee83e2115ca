"""Command-line front end.

Exit codes: 0 success (all checks pass), 1 runtime or I/O failure (a failing
suite, a bad cache, or any other error raised while computing), 2 argument
errors only, bad cells included, 3 a dependent basis in `discover`.
"""

import argparse
import json
import math
import os
import re
import sys

from .evaluator import (
    VARIANTS,
    CacheError,
    ResidueCache,
    check_cell,
    parse_index,
    parse_signs,
)
from .harmonic import all_compositions
from .identities import SUITES, WEIGHT_GUARD, render_table
from .modmath import sieve_primes
from .relations import (
    DEFAULT_HEIGHT_BOUND,
    AmbiguousRelationError,
    ValueMatrix,
    _fit,
    _train_split,
    build_matrix,
    descriptor_str,
    dimension_estimate,
    dseq,
    fib,
)

CACHE_ENV = "FMZV_CACHE"
DIMS_GUARD = 7
SIGNS_HELP = "; write --signs=-,+ when the first sign is -"
# bound flag -> the suites that take it
BOUND_FLAGS = {}
for _suite in SUITES.values():
    for _param in _suite.params:
        if _param.guard is not None:
            BOUND_FLAGS.setdefault(_param.flag or _param.name, []).append(_suite.name)


class UsageError(Exception):
    pass


def _parse_prime_range(text):
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise UsageError("prime range must look like lo..hi, got %r" % text)
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo < 5 or hi < lo:
        raise UsageError("prime range needs 5 <= lo <= hi, got %s" % text)
    return sieve_primes(lo, hi)


def _primes_above(text, weight, least, command):
    """The primes of the range text above weight + 2, at least `least` of them."""
    primes = [p for p in _parse_prime_range(text) if p > weight + 2]
    if len(primes) < least:
        raise UsageError("%s needs at least %d prime%s above weight + 2, got %d in %s; "
                         "widen --primes" % (command, least, "" if least == 1 else "s",
                                             len(primes), text))
    return primes


def _cell(variant, index_text, signs_text):
    """The checked (variant, index, signs) cell given by the arguments."""
    try:
        signs = parse_signs(signs_text) if signs_text else None
        return check_cell(variant, parse_index(index_text), signs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _bound(value, name, guard=None):
    """The value, checked to be >= 1 and, if a guard is given, <= guard."""
    if value < 1:
        raise UsageError("%s must be >= 1" % name)
    if guard is not None and value > guard:
        raise UsageError("%s > %d refused (cost guard); lower the bound" % (name, guard))
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fmzv",
        description="Finite multiple zeta values mod p: computation, identity "
                    "verification, and relation discovery.")
    parser.add_argument("--cache", help="residue cache file (env %s; flag wins)" % CACHE_ENV)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate one value at each prime of a range")
    p.add_argument("--variant", choices=VARIANTS, default="zeta2")
    p.add_argument("--index", required=True, help="comma-separated index, e.g. 1,2")
    p.add_argument("--signs", help="euler signs, e.g. +,- (euler only)" + SIGNS_HELP)
    p.add_argument("--primes", default="5..200", help="inclusive range lo..hi")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p = sub.add_parser("verify", help="run an identity verification suite")
    p.add_argument("--suite", required=True, choices=tuple(SUITES))
    p.add_argument("--primes", default="5..200")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    for flag, names in BOUND_FLAGS.items():
        p.add_argument("--" + flag, type=int, help="bound of " + ", ".join(names))

    p = sub.add_parser("discover", help="express a value over a candidate basis")
    p.add_argument("--target", required=True, help="target index, e.g. 2,1")
    p.add_argument("--variant", choices=VARIANTS, default="zeta2",
                   help="variant of the target column")
    p.add_argument("--signs", help="euler signs for the target (euler only)" + SIGNS_HELP)
    p.add_argument("--basis", required=True,
                   help="'odd' (all-odd level-2 indices), 'odd3' (odd>=3 level-2 "
                        "indices), or explicit semicolon-separated indices")
    p.add_argument("--basis-variant", choices=tuple(v for v in VARIANTS if v != "euler"),
                   help="variant of explicit basis columns (default: target variant)")
    p.add_argument("--weight", type=int, help="weight of the keyword basis "
                                              "(default: target weight)")
    p.add_argument("--primes", default="5..200")
    p.add_argument("--height-bound", type=int, default=DEFAULT_HEIGHT_BOUND)
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("dims", help="dimension experiment for one weight")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--primes", default="5..200")
    p.add_argument("--height-bound", type=int, default=DEFAULT_HEIGHT_BOUND)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p = sub.add_parser("cache", help="inspect or clear the residue cache")
    p.add_argument("action", choices=("info", "clear"))
    return parser


def _print(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _run_compute(args, cache):
    _, index, signs = cell = _cell(args.variant, args.index, args.signs)
    # every prime of a range is at least 5, so weight 0 drops none
    primes = _primes_above(args.primes, 0, 1, "compute")
    m = build_matrix([cell], primes, cache=cache, jobs=args.jobs)
    pairs = [(p, v) for p, (v,) in zip(m.primes, m.cells)]
    if args.format == "json":
        _print(json.dumps({"variant": args.variant,
                           "index": list(index),
                           "signs": None if signs is None else list(signs),
                           "rows": [[p, v] for p, v in pairs]}, indent=2))
    else:
        _print(render_table(("prime", "residue"), [(str(p), str(v)) for p, v in pairs],
                            args.format))
    return 0


def _run_verify(args, cache):
    primes = _parse_prime_range(args.primes)
    suite = SUITES[args.suite]
    flags = {p.flag or p.name: p for p in suite.params if p.guard is not None}
    unknown = [f for f in BOUND_FLAGS if getattr(args, f) is not None and f not in flags]
    if unknown:
        raise UsageError("suite %s does not take --%s" % (suite.name, ", --".join(unknown)))
    # a bound not given is left to Suite.resolve, which takes its default
    bounds = {p.name: _bound(getattr(args, f), f, p.guard)
              for f, p in flags.items() if getattr(args, f) is not None}
    rep = suite.run(bounds, primes, cache, args.jobs)
    _print(getattr(rep, "to_" + args.format)())
    return 0 if rep.passed else 1


def _keyword_basis(keyword, weight):
    least = 1 if keyword == "odd" else 3
    return [("zeta2", ix, None) for ix in all_compositions(weight)
            if all(x % 2 and x >= least for x in ix)]


def _run_discover(args, cache):
    target = _cell(args.variant, args.target, args.signs)
    weight = _bound(sum(target[1]) if args.weight is None else args.weight, "weight",
                    WEIGHT_GUARD)
    if args.basis in ("odd", "odd3"):
        basis = _keyword_basis(args.basis, weight)
    else:
        bvariant = args.basis_variant or args.variant
        if bvariant == "euler":
            raise UsageError("explicit euler basis columns are not supported")
        basis = [_cell(bvariant, part, None) for part in args.basis.split(";") if part]
    if not basis:
        raise UsageError("basis is empty for weight %d" % weight)
    if target in basis:
        raise UsageError("target %s already occurs in the basis" % descriptor_str(target))

    # a fit re-checks on the last third of its primes, so each half needs 3
    primes = _primes_above(args.primes, max(sum(ix) for _, ix, _ in [target] + basis), 6,
                           "discover")
    half_a, half_b = primes[0::2], primes[1::2]
    # one matrix; the stability check refits it on each half of its rows
    m = build_matrix([target] + basis, primes, cache=cache, jobs=args.jobs)
    fits = []
    for name, rows in (("all primes", slice(None)), ("half a", slice(0, None, 2)),
                       ("half b", slice(1, None, 2))):
        sub = ValueMatrix(m.columns, m.primes[rows], m.cells[rows])
        fits.append(_fit(sub, target, basis, args.height_bound))
        if fits[-1] is None:  # say why stability will read "unknown"
            train = _train_split(sub.primes)[0]
            print("note: the fit on %s (primes %s) found no verified relation; it trained on "
                  "%d primes, %.1f bits" % (name, ",".join(map(str, sub.primes)), len(train),
                                            sum(map(math.log2, train))), file=sys.stderr)
    coeffs, ca, cb = fits
    if coeffs is None or ca is None or cb is None:
        stability = "unknown"
    else:
        stability = "stable" if coeffs == ca == cb else "unstable"
    doc = {
        "target": descriptor_str(target),
        "basis": [descriptor_str(b) for b in basis],
        "coefficients": None if coeffs is None else [str(c) for c in coeffs],
        "status": "expressed" if coeffs is not None else "no_relation",
        "stability": stability,
        "primes": primes,
        "primes_half_a": half_a,
        "primes_half_b": half_b,
        "height_bound": args.height_bound,
    }
    _print(json.dumps(doc, indent=2))
    return 0


def _run_dims(args, cache):
    k = _bound(args.weight, "weight", DIMS_GUARD)
    primes = _primes_above(args.primes, k, 4, "dims")
    wants = {"zeta2": fib(k), "zeta": dseq(k - 3) if k >= 3 else 0}
    rows = [(level, *dimension_estimate(k, variant=variant, primes=primes,
                                        height_bound=args.height_bound,
                                        cache=cache, jobs=args.jobs), wants[variant])
            for level, variant in (("2", "zeta2"), ("1", "zeta"))]
    if args.format == "json":
        doc = {"weight": k}
        for lv, m, d, w in rows:
            doc["level" + lv] = {"relations": m, "estimated_dim": d,
                                 "conjectured_dim": w, "agree": d == w}
        doc.update(columns=2 ** (k - 1), primes=primes)
        _print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        _print(render_table(("level", "relations", "estimated_dim", "conjectured_dim", "agree"),
                            [(lv, str(m), str(d), str(w), "true" if d == w else "false")
                             for lv, m, d, w in rows], "csv"))
    else:
        _print("\n".join("level %s weight %d: %d relations among %d columns, "
                         "estimated dim %d, conjectured %d (%s)"
                         % (lv, k, m, 2 ** (k - 1), d, w, "agree" if d == w else "DISAGREE")
                         for lv, m, d, w in rows))
    return 0


def _run_cache(action, path):
    """info loads the cache to count its cells; clear removes the file unread."""
    if path is None:
        raise UsageError("no cache path configured (use --cache or %s)" % CACHE_ENV)
    if action == "info":
        _print("%s: %d cells" % (path, len(ResidueCache(path))))
        return 0
    if os.path.exists(path):
        os.remove(path)
    _print("%s: cleared" % path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cache = None
    try:
        _bound(args.jobs, "--jobs")
        _bound(getattr(args, "height_bound", 1), "--height-bound")
        path = args.cache or os.environ.get(CACHE_ENV) or None
        if args.command == "cache":
            return _run_cache(args.action, path)
        cache = ResidueCache(path) if path else None
        run = {"compute": _run_compute, "verify": _run_verify,
               "discover": _run_discover, "dims": _run_dims}[args.command]
        return run(args, cache)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AmbiguousRelationError as exc:
        print("ambiguous: %s" % exc, file=sys.stderr)
        return 3
    except (OSError, CacheError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if cache is not None:
            cache.close()


if __name__ == "__main__":
    sys.exit(main())
