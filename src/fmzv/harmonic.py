"""Symbolic harmonic (stuffle) algebra on formal index symbols.

An IndexCombination is a finite Q-linear combination of index tuples; the
empty tuple is the unit.  The stuffle product follows the usual recursion
  (a::u) * (b::v) = a::(u * b::v) + b::(a::u * v) + (a+b)::(u * v)
with exact Fraction coefficients throughout, so the lemma checkers below are
exact verifications, not congruences.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations

from .evaluator import check_index, values_at
from .evaluator import value_of  # noqa: F401  bound here for perfbench/tracing.py's LOOKUPS
from .modmath import check_prime, mod_inv

__all__ = [
    "IndexCombination",
    "stuffle",
    "star_expand",
    "antipode_sum",
    "compositions",
    "all_compositions",
    "gen_g",
    "gen_g1",
    "lemma_g_check",
    "R_terms",
    "gen_R",
    "lemma_R_check",
    "evaluate_combination",
]


def _merge(data, terms):
    """Add each (index, coeff) of terms into the sparse sum data, in place, dropping an
    index whose coefficient reaches 0; returns data."""
    for index, coeff in terms:
        c = data.get(index, 0) + coeff
        if c:
            data[index] = c
        else:
            data.pop(index, None)
    return data


class IndexCombination:
    """Finitely supported map index -> Fraction, with + , scalar *, and stuffle *."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms = _merge({}, ((tuple(index), Fraction(c)) for index, c in terms or ()))

    @classmethod
    def _of(cls, data):
        # the combination whose terms are the dict data, taken uncopied and unchecked
        out = cls.__new__(cls)
        out._terms = data
        return out

    @classmethod
    def term(cls, index, coeff=1):
        return cls({tuple(index): Fraction(coeff)})

    @classmethod
    def unit(cls):
        return cls.term(())

    @classmethod
    def zero(cls):
        return cls()

    def coeff(self, index) -> Fraction:
        return self._terms.get(tuple(index), Fraction(0))

    def terms(self):
        """Items in canonical order: weight, then depth, then entries."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), len(kv[0]), kv[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, IndexCombination):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.terms()))

    def __add__(self, other):
        return IndexCombination._of(_merge(dict(self._terms), other._terms.items()))

    def __neg__(self):
        return IndexCombination._of({i: -c for i, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, IndexCombination):
            return stuffle(self, other)
        scalar = Fraction(other)
        if not scalar:
            return IndexCombination()
        return IndexCombination._of({i: c * scalar for i, c in self._terms.items()})

    __rmul__ = __mul__

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for index, coeff in self.terms():
            sym = "[%s]" % ",".join(map(str, index))
            if coeff == 1:
                parts.append(sym)
            elif coeff == -1:
                parts.append("-" + sym)
            else:
                parts.append("%s*%s" % (coeff, sym))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


@lru_cache(maxsize=None)
def _stuffle_words(u, v):
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = {}
    for head, urest, vrest in (
        (u[0], u[1:], v),
        (v[0], u, v[1:]),
        (u[0] + v[0], u[1:], v[1:]),
    ):
        _merge(out, (((head,) + w, c) for w, c in _stuffle_words(urest, vrest)))
    return tuple(sorted(out.items()))


def stuffle(a: IndexCombination, b: IndexCombination) -> IndexCombination:
    """Bilinear extension of the recursive stuffle product; unit is [()]."""
    data = {}
    for u, cu in a._terms.items():
        for v, cv in b._terms.items():
            cc = cu * cv
            _merge(data, [(w, cc * mult) for w, mult in _stuffle_words(u, v)])
    return IndexCombination._of(data)


def star_expand(index) -> IndexCombination:
    """Expand a non-strict (star) index into strict symbols.

    One term per way of contracting runs of adjacent entries; all coefficients 1.
    """
    index = tuple(index)
    r = len(index)
    if r == 0:
        return IndexCombination.unit()
    # one term per subset of the r-1 adjacent gaps that stay "strict"
    subsets = chain.from_iterable(combinations(range(1, r), n) for n in range(r))
    return IndexCombination((tuple(sum(index[a:b]) for a, b in zip((0, *gaps), (*gaps, r))), 1)
                            for gaps in subsets)


def antipode_sum(index) -> IndexCombination:
    """Alternating prefix/suffix expansion; symbolically zero for depth >= 1.

    Sum over j of (-1)^j [k_j,...,k_1] * star_expand(k_{j+1},...,k_r), the
    product being the stuffle.
    """
    index = tuple(index)
    r = len(index)
    if r < 1:
        raise ValueError("antipode_sum needs depth >= 1")
    total = IndexCombination()
    for j in range(r + 1):
        prefix = IndexCombination.term(tuple(reversed(index[:j])))
        suffix = star_expand(index[j:])
        total = total + (-1) ** j * stuffle(prefix, suffix)
    return total


def compositions(k: int, r: int, min_part: int = 1):
    """Yield all (k_1,...,k_r) with entries >= min_part summing to k."""
    if r == 0:
        if k == 0:
            yield ()
        return
    for first in range(min_part, k - min_part * (r - 1) + 1):
        for rest in compositions(k - first, r - 1, min_part):
            yield (first,) + rest


def all_compositions(k: int):
    """All compositions of k of every depth."""
    for r in range(1, k + 1):
        yield from compositions(k, r)


def gen_g(k: int, r: int, a: int) -> IndexCombination:
    """Sum of all weight-k depth-r indices with exactly a even entries."""
    return _gen_g_min(k, r, a, 1)


def gen_g1(k: int, r: int, a: int) -> IndexCombination:
    """Same as gen_g but entries restricted to >= 2."""
    return _gen_g_min(k, r, a, 2)


def _gen_g_min(k, r, a, min_part):
    if not (1 <= r <= k and 0 <= a <= r):
        raise ValueError("need 1 <= r <= k and 0 <= a <= r, got k=%r r=%r a=%r" % (k, r, a))
    return IndexCombination((comp, 1) for comp in compositions(k, r, min_part)
                            if sum(1 for x in comp if x % 2 == 0) == a)


def _lemma_g_side(k, r, a, restricted: bool) -> bool:
    gen = gen_g1 if restricted else gen_g
    excess = (k - 3 * r + a) if restricted else (k - r - a)
    lhs = IndexCombination()
    for i in range(1, excess // 2 + 1):
        lhs = lhs + stuffle(IndexCombination.term((2 * i,)), gen(k - 2 * i, r, a))
    rhs = Fraction(excess, 2) * gen(k, r, a)
    if r + 1 <= k and a + 1 <= r + 1:
        rhs = rhs + (a + 1) * gen(k, r + 1, a + 1)
    return lhs == rhs


def lemma_g_check(k: int, r: int, a: int) -> bool:
    """Exact symbolic check of the even-count recursion identity for g (entries >= 1)
    and for g1 (entries >= 2)."""
    return _lemma_g_side(k, r, a, restricted=False) and _lemma_g_side(k, r, a, restricted=True)


def R_terms(index):
    """The (coefficient, permuted index) terms of gen_R, one per permutation, unmerged:
    the coefficient is r+1-2*(landing position of the last entry), zero ones left out."""
    r = len(index)
    for perm in permutations(range(r)):
        coeff = r + 1 - 2 * (perm.index(r - 1) + 1)
        if coeff:
            yield coeff, tuple(index[i] for i in perm)


def gen_R(index) -> IndexCombination:
    """Signed permutation sum: the terms of R_terms(index), merged."""
    index = tuple(index)
    if not index:
        raise ValueError("gen_R needs depth >= 1")
    return IndexCombination((permuted, coeff) for coeff, permuted in R_terms(index))


def lemma_R_check(index) -> bool:
    """Exact symbolic check of the permutation-sum recursion, depth >= 2."""
    index = tuple(index)
    r = len(index)
    if r < 2:
        raise ValueError("lemma_R_check needs depth >= 2")
    head, last = index[:-1], index[-1]

    def drop(tup, *positions):
        return tuple(x for i, x in enumerate(tup) if i not in positions)

    lhs = IndexCombination()
    for i in range(r - 1):
        lhs = lhs + stuffle(IndexCombination.term((head[i],)), gen_R(drop(head, i) + (last,)))

    rhs = (r - 2) * gen_R(index)
    for i in range(r - 1):
        rhs = rhs + gen_R(drop(head, i) + (head[i] + last,))
    for i in range(r - 1):
        for j in range(i + 1, r - 1):
            merged = (head[i] + head[j],) + drop(head, i, j) + (last,)
            rhs = rhs + 2 * gen_R(merged)
    return lhs == rhs


def evaluate_combination(comb: IndexCombination, variant: str, p: int, cache=None) -> int:
    """Sum of coeff * value over the combination's terms, mod p.

    Signed (euler) variants are not supported here: a bare index carries no
    sign vector.  Raises if p is not a prime >= 5, even for the zero combination,
    or if a coefficient denominator vanishes mod p, before any value is read.
    """
    if variant not in ("zeta", "zeta2", "zeta2star"):
        raise ValueError("evaluate_combination takes an unsigned variant, got %r" % (variant,))
    check_prime(p)
    terms = [(check_index(index), coeff) for index, coeff in comb.terms()]
    for index, coeff in terms:
        if coeff.denominator % p == 0:
            raise ValueError(
                "coefficient %s of term %r has denominator divisible by %d" % (coeff, index, p)
            )
    values = values_at([(variant, index, None) for index, _ in terms], p, cache)
    return sum(coeff.numerator * mod_inv(coeff.denominator, p) * v
               for (_, coeff), v in zip(terms, values)) % p
