"""Integer-relation discovery among residue columns across many primes.

A relation is an integer vector c with sum(c_j * column_j) = 0 mod p for
every prime checked.  Candidates come out of the lattice of vectors that
vanish mod every training prime, written down in Hermite normal form and
reduced by LLL; "verified" only ever means "holds at every training and
held-out prime we looked at", never a proof.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd

from .evaluator import check_cell, parse_signs, per_prime, signs_to_str, values_at
from .harmonic import all_compositions
from .lattice import congruence_cut, lll_reduce
from .modmath import check_prime

__all__ = [
    "AmbiguousRelationError",
    "RelationCandidate",
    "ValueMatrix",
    "normalize_descriptor",
    "descriptor_str",
    "build_matrix",
    "relation_lattice",
    "express_in_basis",
    "dimension_estimate",
    "fib",
    "dseq",
]

DEFAULT_HEIGHT_BOUND = 10 ** 6


class AmbiguousRelationError(Exception):
    """Two independent verified relations hit the target: the basis is dependent."""


def normalize_descriptor(desc):
    """Coerce (variant, index) or (variant, index, signs) to a canonical triple."""
    if len(desc) == 2:
        variant, index = desc
        signs = None
    elif len(desc) == 3:
        variant, index, signs = desc
    else:
        raise ValueError("descriptor must be (variant, index[, signs]), got %r" % (desc,))
    if isinstance(signs, str):
        signs = parse_signs(signs)
    return check_cell(variant, index, signs)


def descriptor_str(desc) -> str:
    variant, index, signs = normalize_descriptor(desc)
    body = ",".join(map(str, index))
    if signs is None:
        return "%s(%s)" % (variant, body)
    return "%s(%s;%s)" % (variant, body, signs_to_str(signs))


def _canonical_perm(descriptors):
    """Column order: by (weight, depth, index, variant, signs), stable."""
    def key(item):
        _, (variant, index, signs) = item
        return (sum(index), len(index), index, variant, signs or ())
    return [i for i, _ in sorted(enumerate(descriptors), key=key)]


@dataclass(frozen=True)
class ValueMatrix:
    columns: tuple          # canonical-order descriptor triples
    primes: tuple           # ascending
    cells: tuple            # cells[t][j] = value of columns[j] mod primes[t]


@dataclass(frozen=True)
class RelationCandidate:
    coefficients: tuple     # over the matrix columns; nonzero, gcd 1, first nonzero > 0
    height: int
    verified_on: tuple      # held-out primes the congruence was re-checked on
    status: str             # "verified" | "refuted" | "candidate"


def build_matrix(descriptors, primes, cache=None, jobs=1) -> ValueMatrix:
    descs = [normalize_descriptor(d) for d in descriptors]
    if not descs:
        raise ValueError("need at least one descriptor")
    primes = sorted(set(primes))
    if not primes:
        raise ValueError("need at least one prime")
    for p in primes:
        check_prime(p)
    wmax = max(sum(ix) for _, ix, _ in descs)
    if primes[0] <= wmax + 2:
        raise ValueError("smallest prime %d must exceed max weight + 2 = %d"
                         % (primes[0], wmax + 2))
    order = _canonical_perm(descs)
    columns = tuple(descs[i] for i in order)
    cells = tuple(per_prime(partial(values_at, columns), primes, jobs, cache))
    return ValueMatrix(columns=columns, primes=tuple(primes), cells=cells)


def _normalize_vector(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    v = [x // g for x in v]
    lead = next(x for x in v if x)
    if lead < 0:
        v = [-x for x in v]
    return tuple(v)


def _train_split(primes):
    split = max(1, (2 * len(primes) + 2) // 3)
    return list(primes[:split]), list(primes[split:])


def relation_lattice(matrix: ValueMatrix, height_bound=DEFAULT_HEIGHT_BOUND):
    """Candidate relations among the matrix columns, checked on held-out primes.

    The lattice of vectors vanishing mod every training prime is written
    down in Hermite normal form by one congruence_cut, LLL-reduced, and
    filtered to max-norm <= height_bound; every survivor is then re-checked
    against all matrix rows by direct dot products over its nonzero entries.
    """
    train, held = _train_split(matrix.primes)
    basis = lll_reduce(congruence_cut(matrix.cells[:len(train)], train))
    seen = set()
    picked = []
    for v in basis:
        if not any(v) or max(abs(x) for x in v) > height_bound:
            continue
        v = _normalize_vector(v)
        if v not in seen:
            seen.add(v)
            picked.append(v)
    out = []
    for v in sorted(picked, key=lambda u: (max(abs(x) for x in u), u)):
        nz = [(j, c) for j, c in enumerate(v) if c]
        ok = all(sum(c * row[j] for j, c in nz) % p == 0
                 for p, row in zip(matrix.primes, matrix.cells))
        if not held:
            status = "candidate"
        else:
            status = "verified" if ok else "refuted"
        out.append(RelationCandidate(coefficients=v,
                                     height=max(abs(x) for x in v),
                                     verified_on=tuple(held),
                                     status=status))
    return out


def express_in_basis(target, basis, primes, height_bound=DEFAULT_HEIGHT_BOUND,
                     cache=None, jobs=1):
    """Rational coefficients writing the target column over the basis columns.

    Returns a list of Fraction aligned with the basis argument, or None when
    no verified relation involving the target survives the height bound.
    Raises AmbiguousRelationError when two independent verified relations hit
    the target (the basis set is then itself dependent).
    """
    target = normalize_descriptor(target)
    basis = [normalize_descriptor(b) for b in basis]
    if target in basis:
        raise ValueError("target %s already occurs in the basis" % descriptor_str(target))
    descs = [target] + basis
    matrix = build_matrix(descs, primes, cache=cache, jobs=jobs)
    perm = _canonical_perm(descs)
    col_of = {orig: j for j, orig in enumerate(perm)}
    tcol = col_of[0]
    hits = [c for c in relation_lattice(matrix, height_bound)
            if c.status == "verified" and c.coefficients[tcol] != 0]
    if not hits:
        return None
    if len(hits) > 1:
        raise AmbiguousRelationError(
            "%d independent relations involve %s" % (len(hits), descriptor_str(target)))
    coeffs = hits[0].coefficients
    ct = coeffs[tcol]
    return [Fraction(-coeffs[col_of[i + 1]], ct) for i in range(len(basis))]


def dimension_estimate(k, variant="zeta2", primes=(), height_bound=DEFAULT_HEIGHT_BOUND,
                       cache=None, jobs=1):
    """(verified relation count, estimated dimension) for all weight-k columns."""
    if k < 1:
        raise ValueError("weight must be >= 1")
    descs = [(variant, ix) for ix in all_compositions(k)]
    matrix = build_matrix(descs, primes, cache=cache, jobs=jobs)
    rels = relation_lattice(matrix, height_bound)
    m = sum(1 for c in rels if c.status == "verified")
    return m, 2 ** (k - 1) - m


def fib(k: int) -> int:
    """F_1 = F_2 = 1; counts the all-odd compositions of weight k."""
    if k < 1:
        raise ValueError("fib needs k >= 1")
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def dseq(k: int) -> int:
    """d_0 = 1, d_1 = 0, d_2 = 1, d_k = d_{k-2} + d_{k-3}.

    dseq(k - 3) counts the compositions of k into odd parts >= 3.
    """
    if k < 0:
        raise ValueError("dseq needs k >= 0")
    vals = [1, 0, 1]
    for i in range(3, k + 1):
        vals.append(vals[i - 2] + vals[i - 3])
    return vals[k]
