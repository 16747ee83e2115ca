"""Numeric verification suites for the closed forms, identities, and conjectures.

Every suite returns a Report of per-case rows; a row passes iff its two sides
are exactly equal (residues mod p, or canonical strings for symbolic rows).
A case of weight k skips primes p <= k + 2, so Bernoulli indices stay positive
and small denominators stay invertible.
"""

import csv
import io
import itertools
import json
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial

from .bernoulli import L2, Zk
from .evaluator import _finish_all, check_cell, check_index, per_prime
from .evaluator import value_of  # noqa: F401  bound here for perfbench/tracing.py's LOOKUPS
from .harmonic import (
    R_terms,
    all_compositions,
    antipode_sum,
    compositions,
    lemma_R_check,
    lemma_g_check,
)
from .modmath import check_prime, crt_combine, mod_inv, rat_reconstruct
from .relations import _train_split

__all__ = [
    "Case",
    "Report",
    "SUITES",
    "coeff_C",
    "ppt_constants",
    "default_weighted_indices",
    "render_table",
]


# ---------------------------------------------------------------------------
# report plumbing

# One row of a report: the case's name, its prime (None for a symbolic check), the
# two sides as strings, and whether they agree.
Case = namedtuple("Case", "case prime lhs rhs passed")


# A suite's run: the suite's name, its params dict, and its Cases.
class Report(namedtuple("Report", "suite params cases", defaults=((),))):
    @property
    def total(self):
        return len(self.cases)

    @property
    def failed(self):
        return sum(1 for c in self.cases if not c.passed)

    @property
    def passed(self):
        # a run that checked nothing proves nothing
        return self.total > 0 and self.failed == 0

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "cases": [
                {"case": c.case, "prime": c.prime, "lhs": c.lhs, "rhs": c.rhs, "pass": c.passed}
                for c in self.cases
            ],
            "summary": {"total": self.total, "passed": self.total - self.failed, "failed": self.failed},
        }
        return json.dumps(doc, indent=2)

    def _table(self, fmt, yes, no):
        return render_table(("case", "prime", "lhs", "rhs", "pass"),
                            [(c.case, "" if c.prime is None else str(c.prime), c.lhs, c.rhs,
                              yes if c.passed else no) for c in self.cases], fmt)

    def to_csv(self) -> str:
        return self._table("csv", "true", "false")

    def to_text(self) -> str:
        return self._table("text", "pass", "FAIL") + (
            "suite %s: %d cases, %d passed, %d failed\n"
            % (self.suite, self.total, self.total - self.failed, self.failed))


def render_table(headers, rows, fmt) -> str:
    """The rows, a list of tuples of strings, under the headers: as csv when fmt is
    "csv", else as text columns two spaces apart, each line right-stripped."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    # one %-format per line pads every column at once, about twice as fast as ljust
    line = "  ".join("%%-%ds" % max(map(len, column)) for column in zip(headers, *rows))
    return "\n".join([(line % row).rstrip() for row in (headers, *rows)]) + "\n"


def _frac_mod(q: Fraction, p: int) -> int:
    return q.numerator * mod_inv(q.denominator, p) % p


def _indices_of_weight_up_to(wmax, dmax=None):
    return tuple(index for k in range(1, wmax + 1) for index in all_compositions(k)
                 if dmax is None or len(index) <= dmax)


def _istr(index):
    return "(" + ",".join(map(str, index)) + ")"


# ---------------------------------------------------------------------------
# the C coefficient

def coeff_C(index) -> int:
    """Alternating binomial sum over proper partial weights; 0 in depth 1."""
    index = tuple(index)
    if len(index) < 1:
        raise ValueError("coeff_C needs depth >= 1")
    k = sum(index)
    total = 0
    s = 0
    for kj in index[:-1]:
        s += kj
        total += (-1) ** s * math.comb(k, s)
    return total


# ---------------------------------------------------------------------------
# suites

def _listed(rows, primes):
    """(factors, rows): the rows some prime checks (p > weight + 2), and the distinct
    factors they name, each cell checked once, at its slot.  A listed row holds its
    sides as lists of terms (coeff, slots), slots the tuple of its factors' slots, and
    the tuple of the distinct slots it names, in first-named order."""
    top, slots, listed = max(primes, default=0), {}, []

    def place(terms):
        return [(coeff, tuple(slots.setdefault(f, len(slots)) for f in term))
                for coeff, *term in terms]

    for name, k, lhs, rhs in rows:
        if k + 2 < top:
            lhs, rhs = place(lhs), place(rhs)
            listed.append((name, k, lhs, rhs, tuple(dict.fromkeys(
                slot for _, term in (*lhs, *rhs) for slot in term))))
    factors = [f if f[0] in ("Zk", "L2") else check_cell(*f, None) for f in slots]
    return factors, listed


def _prime_rows(listed, p):
    """per_prime's plan of the Cases at p of the listed rows (see _listed) of weight below
    p - 2: the distinct cells they name, in first-named order, and the finish that reads
    them once each and evaluates each constant once, the Zk from the largest weight down
    (see bernoulli.Zk)."""
    factors, rows = listed
    rows = [row for row in rows if p > row[1] + 2]
    cells, consts = [], []
    for slot in dict.fromkeys(itertools.chain.from_iterable(row[4] for row in rows)):
        (consts if factors[slot][0] in ("Zk", "L2") else cells).append(slot)
    return [factors[slot] for slot in cells], partial(_cases, factors, rows, p, cells, consts)


def _cases(factors, rows, p, cells, consts, read):
    values, zks = [None] * len(factors), []
    for slot in consts:
        if factors[slot][0] == "Zk":
            zks.append((factors[slot][1], slot))
        else:
            values[slot] = L2(p)
    for k, slot in sorted(zks, reverse=True):
        values[slot] = Zk(k, p)
    for slot, v in zip(cells, read()):
        values[slot] = v

    def side(terms):
        total = 0
        for coeff, slots in terms:
            if type(coeff) is Fraction:  # not isinstance: Fraction is an ABC, slow to test
                coeff = _frac_mod(coeff, p)
            for slot in slots:
                coeff *= values[slot]
            total += coeff
        return total % p

    cases = []
    for name, _, lhs, rhs, _ in rows:
        lhs, rhs = side(lhs), side(rhs)
        cases.append(Case(name, p, str(lhs), str(rhs), lhs == rhs))
    return cases


def _prop21_rows(kmax):
    """Depth-1 closed forms: weight 1 vs the Fermat quotient, weight >= 2 vs Zk."""
    for k in range(1, kmax + 1):
        rhs = (-2, ("L2",)) if k == 1 else (2 - 2 ** k, ("Zk", k))
        yield "k=%d" % k, k, [(1, ("zeta2", (k,)))], [rhs]


def _depth2_rows(kmax):
    """Odd-weight depth-2 closed form against the binomial expression times Zk."""
    for k in range(3, kmax + 1, 2):
        for k1, k2 in compositions(k, 2):
            yield _istr((k1, k2)), k, [(1, ("zeta2", (k1, k2)))], [
                (Fraction((-1) ** k2 * math.comb(k, k2) + 2 ** k - 2, 2), ("Zk", k))]


def _key_rows(wmax):
    """Level-1 value as the alternating prefix/reversed-suffix convolution of level-2 values."""
    for index in _indices_of_weight_up_to(wmax):
        yield _istr(index), sum(index), [(1, ("zeta", index))], [
            ((-1) ** sum(index[i:]), ("zeta2", index[:i]), ("zeta2", index[i:][::-1]))
            for i in range(len(index) + 1)]


def _parity_rows(wmax):
    """Level-2 value as the signed convolution of reversed level-1 prefixes and star suffixes."""
    for index in _indices_of_weight_up_to(wmax):
        k, r = sum(index), len(index)
        yield _istr(index), k, [(1, ("zeta2", index))], [
            ((-1) ** (i + r + k), ("zeta", index[:i][::-1]), ("zeta2star", index[i:]))
            for i in range(r + 1)]


def _antipode_num_rows(dmax, wmax):
    """Alternating prefix/star-suffix sums: symbolically zero, and zero mod each prime."""
    for index in _indices_of_weight_up_to(wmax, dmax):
        yield "num %s" % _istr(index), sum(index), [
            ((-1) ** j, ("zeta2", index[:j][::-1]), ("zeta2star", index[j:]))
            for j in range(len(index) + 1)], []


def _antipode_sym_rows(dmax, wmax, primes, cache):
    rows = []
    for index in _indices_of_weight_up_to(wmax, dmax):
        diff = antipode_sum(index)
        rows.append(Case(case="sym %s" % _istr(index), prime=None,
                         lhs="0" if diff.is_zero() else str(diff), rhs="0",
                         passed=diff.is_zero()))
    return rows


def _example24_rows(wmax):
    """Two closed-form rewrites: odd-weight pairs and even-weight triples."""
    half = Fraction(1, 2)
    for k in range(3, wmax + 1, 2):
        for k1, k2 in compositions(k, 2):
            yield "i %s" % _istr((k1, k2)), k, [(1, ("zeta2", (k1, k2)))], [
                (-half, ("zeta2", (k,))), (-half, ("zeta", (k2, k1)))]
    for k in range(4, wmax + 1, 2):
        for k1, k2, k3 in compositions(k, 3):
            yield "ii %s" % _istr((k1, k2, k3)), k, [(1, ("zeta2", (k1, k2, k3)))], [
                (half, ("zeta", (k1, k2, k3))), (-half, ("zeta2", (k1 + k2, k3))),
                (-half, ("zeta2", (k1, k2 + k3))),
                (half, ("zeta", (k1, k2)), ("zeta2", (k3,)))]


def _sum_formula_rows(kmax):
    """Fixed-depth sum formulas against binomial-weighted all-odd block sums."""
    for k in range(1, kmax + 1):
        # odd-entry block compositions of B(k,i) and B1(k,i), shared across r
        odd = {i: [c for c in compositions(k, i) if all(x % 2 for x in c)]
               for i in range(k % 2 or 2, k + 1, 2)}
        odd1 = {i: [c for c in cs if all(x >= 3 for x in c)] for i, cs in odd.items()}
        # math.comb's arguments are >= 0: i <= r, and a block of i parts >= 3 needs k >= 3i
        for r in range(1, k + 1):
            sign = (-1) ** (k + r)
            yield "S(%d,%d)" % (k, r), k, [(1, ("zeta2", c)) for c in compositions(k, r)], [
                (sign * math.comb((k - i) // 2, r - i), ("zeta2", c))
                for i, cs in odd.items() if i <= r for c in cs]
            yield "S1(%d,%d)" % (k, r), k, [
                (1, ("zeta2", c)) for c in compositions(k, r, min_part=2)], [
                (sign * math.comb((k - 3 * i) // 2, r - i), ("zeta2", c))
                for i, cs in odd1.items() if i <= r for c in cs]


@lru_cache(maxsize=None)  # read by ppt_constants, then by the held-out rows: built once
def _one_odd_compositions(k, r, i):
    """Compositions of the odd k into r parts with part i odd and every other part even:
    doubling each part of a composition of (k + 1) / 2 and taking 1 from part i is a
    bijection onto them that keeps the lexicographic order.  To be read only."""
    return [(*d[:i - 1], d[i - 1] - 1, *d[i:])
            for d in (tuple(2 * x for x in c) for c in compositions((k + 1) // 2, r))]


def _ppt_special_rows(rmax, _recon_weight_max):
    """One-odd-rest-even pattern sums as rational multiples of the depth-1 value:
    the displayed two-power binomial constant of the all-twos-and-one-1 patterns."""
    for r in range(1, rmax + 1):
        k = 2 * r - 1
        for i in range(1, r + 1):
            coeff = Fraction((-1) ** (r - 1) * math.comb(k, 2 * i - 1), 2 ** (2 * r - 2))
            yield ("special r=%d i=%d" % (r, i), k,
                   [(1, ("zeta2", (2,) * (i - 1) + (1,) + (2,) * (r - i)))],
                   [(coeff, ("zeta2", (k,)))])


def ppt_constants(k, primes, cache=None):
    """Reconstructed rational c with (one-odd pattern sum) = c * zeta2(k), for each
    pattern (k, r, i) of the odd weight k.

    The primes are taken as build_matrix takes them: each checked, repeats once, in
    ascending order.  Uses every prime p > k + 2 where the reference zeta2(k) is
    nonzero.  The cells the cache holds at p are read from its dict of p; the others,
    reference and compositions alike, are swept once, with those of the other primes
    of p's group (per_prime), and not at all when the cache holds them all, or a zero
    reference; the compositions are cached only after a nonzero reference.  Returns a
    dict (k, r, i) -> Fraction, or None when reconstruction fails.
    """
    if k % 2 == 0:
        raise ValueError("one-odd patterns have odd weight, got %d" % k)
    check_index((k,))
    primes = sorted(set(map(check_prime, primes)))
    comps = {(k, r, i): _one_odd_compositions(k, r, i)
             for r in range(1, (k + 1) // 2 + 1) for i in range(1, r + 1)}
    # the reference zeta2(k) is one of the cells: the pattern (k, 1, 1)'s one composition
    cells = [("zeta2", c, None) for cs in comps.values() for c in cs]
    pairs = {pat: [] for pat in comps}
    for pat, pair in itertools.chain.from_iterable(
            per_prime(partial(_ppt_plan, k, comps, cells, cache), primes, 1, cache)):
        pairs[pat].append(pair)
    return {pat: rat_reconstruct(*crt_combine(pr)) if pr else None for pat, pr in pairs.items()}


def _ppt_plan(k, comps, cells, cache, p):
    # ppt_constants' plan at p: no cell at a prime <= k + 2 or with a cached zero reference
    if p <= k + 2 or cache is not None and cache.get("zeta2", (k,), None, p) == 0:
        return (), _finish_all
    return cells, partial(_ppt_pairs, comps, p)


def _ppt_pairs(comps, p, read):
    # (pattern, (its constant mod p, p)) for each pattern, after a nonzero reference
    (ref,) = read(1)
    if not ref:
        return ()
    inv, values = mod_inv(ref, p), iter(read())
    return [(pat, (sum(itertools.islice(values, len(cs))) * inv % p, p))
            for pat, cs in comps.items()]


def _ppt_setup(rmax):
    recon_weight_max = 2 * rmax + 1
    return (rmax, recon_weight_max), {"rmax": rmax, "recon_weight_max": recon_weight_max}


def _ppt_recon_rows(rmax, recon_weight_max, primes, cache):
    """The constant of every one-odd pattern of weight <= recon_weight_max,
    reconstructed from training primes and re-verified on held-out primes."""
    rows = []
    for k in range(3, recon_weight_max + 1, 2):
        train, held = _train_split([p for p in primes if p > k + 2])
        held_rows = []
        for pat, c in ppt_constants(k, train, cache).items():
            name = "pattern k=%d r=%d i=%d" % pat
            if c is None:
                rows.append(Case(case=name, prime=None, lhs="reconstruction failed",
                                 rhs="rational constant", passed=False))
                continue
            # a constant is checked only on held-out primes
            rows.append(Case(case=name + " c", prime=None, lhs=str(c),
                             rhs=str(c) if held else "no held-out prime", passed=bool(held)))
            held_rows.append((name + " heldout", k,
                              [(c.denominator, ("zeta2", x)) for x in _one_odd_compositions(*pat)],
                              [(c.numerator, ("zeta2", (k,)))]))
        for part in per_prime(partial(_prime_rows, _listed(held_rows, held)), held, 1, cache):
            rows.extend(part)
    return rows


def default_weighted_indices(level, wmax=None, dmax=None):
    """Index families for the permutation-weighted checks.

    Level 1: every index of depth <= dmax and weight <= wmax.  Level 2: the
    hypothesis family (all entries even except an odd last entry).  Unset
    bounds take the weighted suite's defaults.
    """
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2, got %r" % (level,))
    wmax = _default("weighted%d" % level, "wmax") if wmax is None else wmax
    dmax = _default("weighted%d" % level, "dmax") if dmax is None else dmax
    return [index for index in _indices_of_weight_up_to(wmax, dmax)
            if level == 1 or index[-1] % 2 == 1 and all(x % 2 == 0 for x in index[:-1])]


def _weighted_rows(level, indices):
    """Position-weighted permutation sums against C-coefficient multiples of Zk."""
    variant, factor = ("zeta", 2) if level == 1 else ("zeta2", 1)
    for index in indices:
        yield (_istr(index), sum(index),
               [(coeff, (variant, permuted)) for coeff, permuted in R_terms(index)],
               _weighted_rhs(index, factor))


def _weighted_rhs(index, factor):
    """The rhs of a weighted row: the sum of C over the head's permutations, times Zk.  A
    generator, so that C, whose binomials grow with the weight, is summed only for a row
    that _listed keeps: one that some prime of the run checks."""
    csum = sum(coeff_C(head + index[-1:]) for head in itertools.permutations(index[:-1]))
    if csum:
        yield (-1) ** len(index) * factor * csum, ("Zk", sum(index))


def _weighted_setup(level, wmax, dmax, indices):
    if indices is None:
        indices = default_weighted_indices(level, wmax, dmax)
    indices = [check_index(ix) for ix in indices]
    for index in indices:
        if not index:
            raise ValueError("empty index not allowed")
        if len(index) > PERM_DEPTH_GUARD:
            raise ValueError("depth > %d rejected (cost r!)" % PERM_DEPTH_GUARD)
        if level == 2 and (index[-1] % 2 == 0 or any(x % 2 for x in index[:-1])):
            raise ValueError("level-2 weighted identity needs even entries with an odd last entry, got %r" % (index,))
    return (level, indices), {"level": level, "indices": len(indices)}


def _conj38_rows(rmax):
    """Weighted vanishing sums over {1,2}-indices with a fixed count of twos."""
    # the lhs runs over the {1,2}-indices of depth r with a twos, of weight r + a,
    # zero coefficients left out
    for r in range(1, rmax + 1):
        for a in range(0, r + 1):
            lhs = []
            for twos in itertools.combinations(range(r), a):
                coeff = (-1) ** sum(1 for t in twos if t % 2 == 0) * 2 ** a - 1
                if coeff:
                    lhs.append((coeff, ("zeta2", tuple(2 if t in twos else 1 for t in range(r)))))
            yield "r=%d a=%d" % (r, a), r + a, lhs, []


def _lemma_rows(g_kmax, r_wmax, r_dmax, primes, cache):
    """Symbolic checks of the two combinatorial recursions (no primes involved)."""
    checks = [("g k=%d r=%d a=%d" % (k, r, a), lemma_g_check(k, r, a))
              for k in range(1, g_kmax + 1) for r in range(1, k + 1) for a in range(0, r + 1)]
    checks += [("R %s" % _istr(index), lemma_R_check(index))
               for index in _indices_of_weight_up_to(r_wmax, r_dmax) if len(index) >= 2]
    return [Case(case=name, prime=None, lhs="0" if ok else "nonzero", rhs="0", passed=ok)
            for name, ok in checks]


# ---------------------------------------------------------------------------
# the suite table

WEIGHT_GUARD = 12      # CLI cap on weight and count bounds
DEPTH_GUARD = 6        # CLI cap on depth bounds
PERM_DEPTH_GUARD = 4   # the weighted suites sum over r! permutations per case


# A bound of a suite.  One with a guard can be set from the CLI, up to the guard,
# with --flag (the name unless given); the others are API-only.
Param = namedtuple("Param", "name default guard flag", defaults=(None, None))


class Suite(namedtuple("Suite", "name params rows fixed setup",
                       defaults=(None, None, None))):
    """A verification suite, run as SUITES[name].run(bounds, primes, cache, jobs).

    rows(*args) yields the (case, weight, lhs, rhs) rows, listed once per run and
    checked at every prime p > weight + 2.  Each side is an iterable of terms, read
    only if some prime checks the row: (coeff, factor, ...), where coeff is an int or
    a Fraction, and a factor is a cell (variant, index) or one of the constants
    ("Zk", k) and ("L2",).  The term stands for coeff times the product of its
    factors' values mod p; (c,) is the constant c and [] is 0.  A row passes iff its
    sides agree mod p; the cells the rows name are all the cells they read at p,
    each read once, in one sweep of p's group of primes.
    fixed(*args, primes, cache) gives the other cases: symbolic checks, and ppt's
    reconstruction with its held-out rows.
    setup(*bounds) turns the bounds into (args, report params); by default both are
    the bounds."""

    def resolve(self, bounds):
        """(args, report params) of the bounds; one that is None or missing takes its default;
        one the suite does not take, or a bool or non-int for an int default, is a ValueError."""
        unknown = sorted(set(bounds) - {p.name for p in self.params})
        if unknown:
            raise ValueError("suite %s does not take %s" % (self.name, ", ".join(unknown)))
        values = [p.default if bounds.get(p.name) is None else bounds[p.name]
                  for p in self.params]
        for p, v in zip(self.params, values):
            if isinstance(p.default, int) and (isinstance(v, bool) or not isinstance(v, int)):
                raise ValueError("suite %s: %s must be an int, got %r" % (self.name, p.name, v))
        if self.setup is None:
            return values, {p.name: v for p, v in zip(self.params, values)}
        return self.setup(*values)

    def run(self, bounds, primes=(), cache=None, jobs=1) -> Report:
        """Report of the suite over the primes, sorted and de-duplicated, each a
        prime >= 5 (ValueError otherwise); bounds as in resolve."""
        primes = sorted(set(map(check_prime, primes)))
        args, params = self.resolve(bounds)
        rows = []
        if self.rows is not None:
            for part in per_prime(partial(_prime_rows, _listed(self.rows(*args), primes)),
                                  primes, jobs, cache):
                rows.extend(part)
        if self.fixed is not None:
            rows.extend(self.fixed(*args, primes, cache))
        rows.sort(key=lambda c: (c.case, -1 if c.prime is None else c.prime))
        return Report(suite=self.name, params=params, cases=rows)


SUITES = {s.name: s for s in (
    Suite("key", (Param("wmax", 7, WEIGHT_GUARD),), rows=_key_rows),
    Suite("parity", (Param("wmax", 7, WEIGHT_GUARD),), rows=_parity_rows),
    Suite("antipode", (Param("dmax", 5, DEPTH_GUARD), Param("wmax", 8, WEIGHT_GUARD)),
          rows=_antipode_num_rows, fixed=_antipode_sym_rows),
    Suite("prop21", (Param("kmax", 9, WEIGHT_GUARD),), rows=_prop21_rows),
    Suite("depth2", (Param("kmax", 9, WEIGHT_GUARD),), rows=_depth2_rows),
    Suite("example24", (Param("wmax", 9, WEIGHT_GUARD),), rows=_example24_rows),
    Suite("sumformula", (Param("kmax", 10, WEIGHT_GUARD),), rows=_sum_formula_rows),
    Suite("ppt", (Param("rmax", 6, DEPTH_GUARD),),
          rows=_ppt_special_rows, fixed=_ppt_recon_rows, setup=_ppt_setup),
    Suite("weighted1", (Param("wmax", 8, WEIGHT_GUARD), Param("dmax", 4, PERM_DEPTH_GUARD),
                        Param("indices", None)),
          rows=_weighted_rows, setup=partial(_weighted_setup, 1)),
    Suite("weighted2", (Param("wmax", 9, WEIGHT_GUARD), Param("dmax", 4, PERM_DEPTH_GUARD),
                        Param("indices", None)),
          rows=_weighted_rows, setup=partial(_weighted_setup, 2)),
    Suite("conj38", (Param("rmax", 8, WEIGHT_GUARD),), rows=_conj38_rows),
    Suite("lemmas", (Param("g_kmax", 10, WEIGHT_GUARD, "kmax"),
                     Param("r_wmax", 8, WEIGHT_GUARD, "wmax"),
                     Param("r_dmax", 4, DEPTH_GUARD, "dmax")), fixed=_lemma_rows),
)}


def _default(suite, name):
    return next(p.default for p in SUITES[suite].params if p.name == name)
