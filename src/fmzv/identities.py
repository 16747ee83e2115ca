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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

from .bernoulli import L2, Zk
from .evaluator import per_prime, plan, value_of, values_at
from .harmonic import (
    all_compositions,
    antipode_sum,
    compositions,
    lemma_R_check,
    lemma_g_check,
)
from .modmath import crt_combine, mod_inv, rat_reconstruct
from .relations import _train_split

__all__ = [
    "Case",
    "Report",
    "coeff_C",
    "verify_prop21",
    "verify_depth2",
    "verify_key_identity",
    "verify_parity",
    "verify_antipode",
    "verify_example24",
    "verify_sum_formula",
    "verify_ppt",
    "ppt_constants",
    "verify_weighted_perm",
    "default_weighted_indices",
    "verify_conj38",
    "verify_lemmas",
]


# ---------------------------------------------------------------------------
# report plumbing

@dataclass
class Case:
    case: str
    prime: int | None
    lhs: str
    rhs: str
    passed: bool


@dataclass
class Report:
    suite: str
    params: dict
    cases: list[Case] = field(default_factory=list)

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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["case", "prime", "lhs", "rhs", "pass"])
        for c in self.cases:
            writer.writerow([c.case, "" if c.prime is None else c.prime, c.lhs, c.rhs,
                             "true" if c.passed else "false"])
        return buf.getvalue()

    def to_text(self) -> str:
        headers = ("case", "prime", "lhs", "rhs", "pass")
        rows = [(c.case, "" if c.prime is None else str(c.prime), c.lhs, c.rhs,
                 "pass" if c.passed else "FAIL") for c in self.cases]
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
        for r in rows:
            lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip())
        lines.append("suite %s: %d cases, %d passed, %d failed"
                     % (self.suite, self.total, self.total - self.failed, self.failed))
        return "\n".join(lines) + "\n"


def _filtered(primes, weight):
    return [p for p in primes if p > weight + 2]


def _frac_mod(q: Fraction, p: int) -> int:
    return q.numerator * mod_inv(q.denominator, p) % p


@lru_cache(maxsize=None)
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

def _prime_rows(rows, p, cache):
    """The Cases at p of the rows of weight below p - 2.

    Each distinct cell is read once, in the order first named, and each
    distinct constant factor evaluated once.
    """
    rows = [row for row in rows if p > row[1] + 2]
    factors = {}
    for _, _, lhs, rhs in rows:
        for term in (*lhs, *rhs):
            for factor in term[1:]:
                factors[factor] = None
    values = {}
    for factor in factors:
        if factor[0] == "Zk":
            values[factor] = Zk(factor[1], p)
        elif factor[0] == "L2":
            values[factor] = L2(p)
    cells = [f for f in factors if f not in values]
    values.update(zip(cells, values_at([(v, ix, None) for v, ix in cells], p, cache)))

    def side(terms):
        total = 0
        for coeff, *term in terms:
            if type(coeff) is Fraction:  # not isinstance: Fraction is an ABC, slow to test
                coeff = _frac_mod(coeff, p)
            for factor in term:
                coeff *= values[factor]
            total += coeff
        return total % p

    cases = []
    for name, _, lhs, rhs in rows:
        lhs, rhs = side(lhs), side(rhs)
        cases.append(Case(case=name, prime=p, lhs=str(lhs), rhs=str(rhs), passed=lhs == rhs))
    return cases


def _prop21_rows(kmax):
    for k in range(1, kmax + 1):
        rhs = (-2, ("L2",)) if k == 1 else (2 - 2 ** k, ("Zk", k))
        yield "k=%d" % k, k, [(1, ("zeta2", (k,)))], [rhs]


def _depth2_rows(kmax):
    for k in range(3, kmax + 1, 2):
        for k1 in range(1, k):
            k2 = k - k1
            yield _istr((k1, k2)), k, [(1, ("zeta2", (k1, k2)))], [
                (Fraction((-1) ** k2 * math.comb(k, k2) + 2 ** k - 2, 2), ("Zk", k))]


def _key_rows(wmax):
    for index in _indices_of_weight_up_to(wmax):
        yield _istr(index), sum(index), [(1, ("zeta", index))], [
            ((-1) ** sum(index[i:]), ("zeta2", index[:i]), ("zeta2", index[i:][::-1]))
            for i in range(len(index) + 1)]


def _parity_rows(wmax):
    for index in _indices_of_weight_up_to(wmax):
        k, r = sum(index), len(index)
        yield _istr(index), k, [(1, ("zeta2", index))], [
            ((-1) ** (i + r + k), ("zeta", index[:i][::-1]), ("zeta2star", index[i:]))
            for i in range(r + 1)]


def _antipode_num_rows(dmax, wmax):
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
    half = Fraction(1, 2)
    for k in range(3, wmax + 1, 2):
        for k1 in range(1, k):
            k2 = k - k1
            yield "i %s" % _istr((k1, k2)), k, [(1, ("zeta2", (k1, k2)))], [
                (-half, ("zeta2", (k,))), (-half, ("zeta", (k2, k1)))]
    for k in range(4, wmax + 1, 2):
        for k1 in range(1, k - 1):
            for k2 in range(1, k - k1):
                k3 = k - k1 - k2
                yield "ii %s" % _istr((k1, k2, k3)), k, [(1, ("zeta2", (k1, k2, k3)))], [
                    (half, ("zeta", (k1, k2, k3))), (-half, ("zeta2", (k1 + k2, k3))),
                    (-half, ("zeta2", (k1, k2 + k3))),
                    (half, ("zeta", (k1, k2)), ("zeta2", (k3,)))]


def _comb0(n, m):
    # binomial with the hard-zero convention outside 0 <= m <= n
    if m < 0 or n < 0 or m > n:
        return 0
    return math.comb(n, m)


def _sum_formula_rows(kmax):
    for k in range(1, kmax + 1):
        # odd-entry block compositions of B(k,i) and B1(k,i), shared across r
        odd = {i: [c for c in compositions(k, i) if all(x % 2 for x in c)]
               for i in range(k % 2 or 2, k + 1, 2)}
        odd1 = {i: [c for c in cs if all(x >= 3 for x in c)] for i, cs in odd.items()}
        for r in range(1, k + 1):
            sign = (-1) ** (k + r)
            yield "S(%d,%d)" % (k, r), k, [(1, ("zeta2", c)) for c in compositions(k, r)], [
                (sign * _comb0((k - i) // 2, r - i), ("zeta2", c))
                for i, cs in odd.items() if i <= r for c in cs]
            yield "S1(%d,%d)" % (k, r), k, [
                (1, ("zeta2", c)) for c in compositions(k, r, min_part=2)], [
                (sign * _comb0((k - 3 * i) // 2, r - i), ("zeta2", c))
                for i, cs in odd1.items() if i <= r for c in cs]


def _one_odd_compositions(k, r, i):
    """Compositions of k into r parts with part i odd and every other part even."""
    def rec(remaining, pos):
        if pos == r:
            if remaining == 0:
                yield ()
            return
        lo = 1 if pos == i - 1 else 2
        tail_min = sum(1 if q == i - 1 else 2 for q in range(pos + 1, r))
        for x in range(lo, remaining - tail_min + 1, 2):
            for rest in rec(remaining - x, pos + 1):
                yield (x,) + rest
    return list(rec(k, 0))


def _ppt_special_rows(rmax, _recon_weight_max):
    for r in range(1, rmax + 1):
        k = 2 * r - 1
        for i in range(1, r + 1):
            coeff = Fraction((-1) ** (r - 1) * math.comb(k, 2 * i - 1), 2 ** (2 * r - 2))
            yield ("special r=%d i=%d" % (r, i), k,
                   [(1, ("zeta2", (2,) * (i - 1) + (1,) + (2,) * (r - i)))],
                   [(coeff, ("zeta2", (k,)))])


def _one_odd_patterns(max_weight):
    pats = []
    for k in range(3, max_weight + 1, 2):
        for r in range(1, (k + 1) // 2 + 1):
            for i in range(1, r + 1):
                pats.append((k, r, i))
    return pats


def ppt_constants(max_weight, primes, cache=None, min_weight=1):
    """Reconstructed rational c with (one-odd pattern sum) = c * (depth-1 value).

    Covers the patterns of weight min_weight..max_weight.  Uses every prime
    where the depth-1 reference value is nonzero; returns a dict
    (k, r, i) -> Fraction or None when reconstruction fails.
    """
    comps = {pat: _one_odd_compositions(*pat)
             for pat in _one_odd_patterns(max_weight) if pat[0] >= min_weight}
    pairs = {pat: [] for pat in comps}
    for p in primes:
        at_p = {pat: cs for pat, cs in comps.items() if p > pat[0] + 2}
        # one sweep at p for the compositions and the depth-1 reference of every pattern
        table = plan([("zeta2", c, None) for (k, _, _), cs in at_p.items() for c in ((k,), *cs)],
                     p, cache)
        for (k, r, i), cs in at_p.items():
            ref = value_of("zeta2", (k,), None, p, cache, table)
            if ref:
                lhs = sum(value_of("zeta2", c, None, p, cache, table) for c in cs)
                pairs[k, r, i].append((lhs * mod_inv(ref, p) % p, p))
    return {pat: rat_reconstruct(*crt_combine(pr)) if pr else None for pat, pr in pairs.items()}


def _ppt_setup(rmax):
    recon_weight_max = 2 * rmax + 1
    return (rmax, recon_weight_max), {"rmax": rmax, "recon_weight_max": recon_weight_max}


def _ppt_recon_rows(rmax, recon_weight_max, primes, cache):
    rows = []
    for k, pats in itertools.groupby(_one_odd_patterns(recon_weight_max), key=lambda t: t[0]):
        train, held = _train_split(_filtered(primes, k))
        # the training primes depend only on k, so one call serves every pattern of weight k
        consts = ppt_constants(k, train, cache, min_weight=k) if train else {}
        held_rows = []
        for pat in pats:
            name = "pattern k=%d r=%d i=%d" % pat
            c = consts.get(pat)
            if c is None:
                rows.append(Case(case=name, prime=None, lhs="reconstruction failed",
                                 rhs="rational constant", passed=False))
                continue
            rows.append(Case(case=name + " c", prime=None, lhs=str(c), rhs=str(c), passed=True))
            held_rows.append((name + " heldout", k,
                              [(c.denominator, ("zeta2", x)) for x in _one_odd_compositions(*pat)],
                              [(c.numerator, ("zeta2", (k,)))]))
        for p in held:
            rows.extend(_prime_rows(held_rows, p, cache))
    return rows


def default_weighted_indices(level, wmax=None, dmax=None):
    """Index families for the permutation-weighted checks.

    Level 1: every index of depth <= dmax and weight <= wmax.  Level 2: the
    hypothesis family (all entries even except an odd last entry).  Unset
    bounds take the weighted suite's defaults.
    """
    wmax = _default("weighted%d" % level, "wmax") if wmax is None else wmax
    dmax = _default("weighted%d" % level, "dmax") if dmax is None else dmax
    return [index for index in _indices_of_weight_up_to(wmax, dmax)
            if level == 1 or index[-1] % 2 == 1 and all(x % 2 == 0 for x in index[:-1])]


def _weighted_terms(index):
    # (coefficient, permuted index) of the position-weighted sum, zero coefficients left out
    r = len(index)
    for perm in itertools.permutations(range(r)):
        coeff = r + 1 - 2 * (perm.index(r - 1) + 1)
        if coeff:
            yield coeff, tuple(index[t] for t in perm)


def _weighted_rows(level, indices):
    variant, factor = ("zeta", 2) if level == 1 else ("zeta2", 1)
    for index in indices:
        k, r = sum(index), len(index)
        # the sum of C over the permutations of the head
        csum = sum(coeff_C(head + index[-1:]) for head in itertools.permutations(index[:-1]))
        yield (_istr(index), k,
               [(coeff, (variant, permuted)) for coeff, permuted in _weighted_terms(index)],
               [((-1) ** r * factor * csum, ("Zk", k))] if csum else [])


def _weighted_setup(level, wmax, dmax, indices):
    if indices is None:
        indices = default_weighted_indices(level, wmax, dmax)
    indices = [tuple(ix) for ix in indices]
    for index in indices:
        if not index:
            raise ValueError("empty index not allowed")
        if len(index) > PERM_DEPTH_GUARD:
            raise ValueError("depth > %d rejected (cost r!)" % PERM_DEPTH_GUARD)
        if level == 2 and (index[-1] % 2 == 0 or any(x % 2 for x in index[:-1])):
            raise ValueError("level-2 weighted identity needs even entries with an odd last entry, got %r" % (index,))
    return (level, indices), {"level": level, "indices": len(indices)}


def _conj38_rows(rmax):
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
    rows = []
    for k in range(1, g_kmax + 1):
        for r in range(1, k + 1):
            for a in range(0, r + 1):
                ok = lemma_g_check(k, r, a)
                rows.append(Case(case="g k=%d r=%d a=%d" % (k, r, a), prime=None,
                                 lhs="0" if ok else "nonzero", rhs="0", passed=ok))
    for index in _indices_of_weight_up_to(r_wmax, r_dmax):
        if len(index) >= 2:
            ok = lemma_R_check(index)
            rows.append(Case(case="R %s" % _istr(index), prime=None,
                             lhs="0" if ok else "nonzero", rhs="0", passed=ok))
    return rows


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
    """A verification suite.

    rows(*args) yields the (case, weight, lhs, rhs) rows, built once per run and
    checked at every prime p > weight + 2.  Each side is a list of terms
    (coeff, factor, ...): coeff is an int or a Fraction, and a factor is a cell
    (variant, index) or one of the constants ("Zk", k) and ("L2",).  The term
    stands for coeff times the product of its factors' values mod p; (c,) is the
    constant c and [] is 0.  A row passes iff its sides agree mod p; the cells the
    rows name are all the cells they read at p, each read once, in one sweep.
    fixed(*args, primes, cache) gives the other cases: symbolic checks, and ppt's
    reconstruction with its held-out rows.
    setup(*bounds) turns the bounds into (args, report params); by default both are
    the bounds."""

    def resolve(self, bounds):
        """(args, report params) of the bounds; one that is None or missing takes its default."""
        values = [p.default if bounds.get(p.name) is None else bounds[p.name]
                  for p in self.params]
        if self.setup is None:
            return values, {p.name: v for p, v in zip(self.params, values)}
        return self.setup(*values)

    def run(self, bounds, primes=(), cache=None, jobs=1) -> Report:
        """Report of the suite; a bound that is None or missing takes its default."""
        args, params = self.resolve(bounds)
        primes = list(primes)
        rows = []
        if self.rows is not None:
            for part in per_prime(partial(_prime_rows, list(self.rows(*args))),
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


def verify_prop21(kmax=_default("prop21", "kmax"), primes=(), cache=None, jobs=1) -> Report:
    """Depth-1 closed forms: weight 1 vs the Fermat quotient, weight >= 2 vs Zk."""
    return SUITES["prop21"].run({"kmax": kmax}, primes, cache, jobs)


def verify_depth2(kmax=_default("depth2", "kmax"), primes=(), cache=None, jobs=1) -> Report:
    """Odd-weight depth-2 closed form against the binomial expression times Zk."""
    return SUITES["depth2"].run({"kmax": kmax}, primes, cache, jobs)


def verify_key_identity(wmax=_default("key", "wmax"), primes=(), cache=None, jobs=1) -> Report:
    """Level-1 value as the alternating prefix/reversed-suffix convolution of level-2 values."""
    return SUITES["key"].run({"wmax": wmax}, primes, cache, jobs)


def verify_parity(wmax=_default("parity", "wmax"), primes=(), cache=None, jobs=1) -> Report:
    """Level-2 value as the signed convolution of reversed level-1 prefixes and star suffixes."""
    return SUITES["parity"].run({"wmax": wmax}, primes, cache, jobs)


def verify_antipode(dmax=_default("antipode", "dmax"), wmax=_default("antipode", "wmax"),
                    primes=(), cache=None, jobs=1) -> Report:
    """Alternating prefix/star-suffix sums: symbolically zero, and zero mod each prime."""
    return SUITES["antipode"].run({"dmax": dmax, "wmax": wmax}, primes, cache, jobs)


def verify_example24(wmax=_default("example24", "wmax"), primes=(), cache=None, jobs=1) -> Report:
    """Two closed-form rewrites: odd-weight pairs and even-weight triples."""
    return SUITES["example24"].run({"wmax": wmax}, primes, cache, jobs)


def verify_sum_formula(kmax=_default("sumformula", "kmax"), primes=(), cache=None,
                       jobs=1) -> Report:
    """Fixed-depth sum formulas against binomial-weighted all-odd block sums."""
    return SUITES["sumformula"].run({"kmax": kmax}, primes, cache, jobs)


def verify_ppt(rmax=_default("ppt", "rmax"), primes=(), cache=None, jobs=1) -> Report:
    """One-odd-rest-even pattern sums as rational multiples of the depth-1 value.

    Part one checks the displayed two-power binomial constant for the
    all-twos-and-one-1 patterns; part two reconstructs the constant for every
    one-odd pattern of weight <= 2 rmax + 1 from training primes and
    re-verifies it on held-out primes.
    """
    return SUITES["ppt"].run({"rmax": rmax}, primes, cache, jobs)


def verify_weighted_perm(level, indices=None, primes=(), cache=None, jobs=1) -> Report:
    """Position-weighted permutation sums against C-coefficient multiples of Zk."""
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    return SUITES["weighted%d" % level].run({"indices": indices}, primes, cache, jobs)


def verify_conj38(rmax=_default("conj38", "rmax"), primes=(), cache=None, jobs=1) -> Report:
    """Weighted vanishing sums over {1,2}-indices with a fixed count of twos."""
    return SUITES["conj38"].run({"rmax": rmax}, primes, cache, jobs)


def verify_lemmas(g_kmax=_default("lemmas", "g_kmax"), r_wmax=_default("lemmas", "r_wmax"),
                  r_dmax=_default("lemmas", "r_dmax")) -> Report:
    """Symbolic checks of the two combinatorial recursions (no primes involved)."""
    return SUITES["lemmas"].run({"g_kmax": g_kmax, "r_wmax": r_wmax, "r_dmax": r_dmax})
