"""Integer-relation discovery among residue columns across many primes.

A relation is an integer vector c with sum(c_j * column_j) = 0 mod p for
every prime checked.  Candidates come out of the lattice of vectors that
vanish mod every training prime, written down in Hermite normal form and
reduced by LLL; "verified" only ever means "holds at every training and
held-out prime we looked at", never a proof.  A basis expression is a fit
of one value matrix; a stability check fits slices of its rows (prime sets)
without building the matrix again.  build_matrix is also the one way to
evaluate cells over primes outside a suite, `fmzv compute` included.
"""

from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import gcd

from .evaluator import check_cell, per_prime, signs_to_str, values_at
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
    """A verified relation among the basis columns alone: the basis is dependent."""


def normalize_descriptor(desc):
    """Coerce (variant, index) or (variant, index, signs) to a canonical triple."""
    if len(desc) == 2:
        variant, index = desc
        signs = None
    elif len(desc) == 3:
        variant, index, signs = desc
    else:
        raise ValueError("descriptor must be (variant, index[, signs]), got %r" % (desc,))
    return check_cell(variant, index, signs)


def descriptor_str(desc) -> str:
    variant, index, signs = normalize_descriptor(desc)
    body = ",".join(map(str, index))
    if signs is None:
        return "%s(%s)" % (variant, body)
    return "%s(%s;%s)" % (variant, body, signs_to_str(signs))


# columns: canonical-order descriptor triples; primes: ascending;
# cells[t][j]: the value of columns[j] mod primes[t]
ValueMatrix = namedtuple("ValueMatrix", "columns primes cells")

# coefficients: over the matrix columns, nonzero, gcd 1, first nonzero > 0;
# height: the largest |coefficient|; verified_on: the held-out primes the congruence
# was re-checked on; status: "verified" | "refuted" | "candidate"
RelationCandidate = namedtuple("RelationCandidate", "coefficients height verified_on status")


def build_matrix(descriptors, primes, cache=None, jobs=1) -> ValueMatrix:
    """The descriptors' values at every prime: the API for values over primes.

    The primes are sorted and de-duplicated, and any prime >= 5 will do: the
    p > weight + 2 floor is relation_lattice's.  Each prime is one sweep of
    all the columns, through the cache if one is given.
    """
    descs = [normalize_descriptor(d) for d in descriptors]
    if not descs:
        raise ValueError("need at least one descriptor")
    primes = sorted(set(map(check_prime, primes)))
    if not primes:
        raise ValueError("need at least one prime")
    # canonical column order: by (weight, depth, index, variant, signs), stable
    columns = tuple(sorted(descs, key=lambda d: (sum(d[1]), len(d[1]), d[1], d[0], d[2] or ())))
    cells = tuple(per_prime(partial(values_at, columns), primes, jobs, cache))
    return ValueMatrix(columns=columns, primes=tuple(primes), cells=cells)


def _normalize_vector(v):
    g = gcd(*v)
    v = [x // g for x in v]
    lead = next(x for x in v if x)
    if lead < 0:
        v = [-x for x in v]
    return tuple(v)


def _train_split(primes):
    split = max(1, (2 * len(primes) + 2) // 3)
    return list(primes[:split]), list(primes[split:])


def _above_floor(columns, primes) -> list:
    """The primes sorted and distinct, each a prime above the largest column weight + 2."""
    primes, floor = sorted(set(map(check_prime, primes))), max(sum(d[1]) for d in columns) + 2
    if primes and primes[0] <= floor:
        raise ValueError("smallest prime %d must exceed max weight + 2 = %d" % (primes[0], floor))
    return primes


def relation_lattice(matrix: ValueMatrix, height_bound=DEFAULT_HEIGHT_BOUND):
    """Candidate relations among the matrix columns, checked on held-out primes.

    The lattice of vectors vanishing mod every training prime is written
    down in Hermite normal form by one congruence_cut, LLL-reduced, and
    filtered to max-norm <= height_bound; every survivor is then re-checked
    against all matrix rows by direct dot products over its nonzero entries.
    Every prime must exceed the largest column weight + 2.
    """
    _above_floor(matrix.columns, matrix.primes)
    train, held = _train_split(matrix.primes)
    basis = lll_reduce(congruence_cut(matrix.cells[:len(train)], train))
    picked = {_normalize_vector(v) for v in basis
              if any(v) and max(abs(x) for x in v) <= height_bound}
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


def _fit(matrix: ValueMatrix, target, basis, height_bound):
    """express_in_basis on a matrix whose columns are the target and the basis."""
    rels = [c.coefficients for c in relation_lattice(matrix, height_bound)
            if c.status == "verified"]
    if not rels:
        return None
    t = matrix.columns.index(target)
    if len(rels) > 1 or not rels[0][t]:
        raise AmbiguousRelationError("the basis for %s has a verified relation among its "
                                     "columns alone" % descriptor_str(target))
    return [Fraction(-rels[0][matrix.columns.index(b)], rels[0][t]) for b in basis]


def express_in_basis(target, basis, primes, height_bound=DEFAULT_HEIGHT_BOUND,
                     cache=None, jobs=1):
    """Rational coefficients writing the target column over the basis columns.

    Returns a list of Fraction aligned with the basis argument, or None when
    no verified relation survives the height bound.  Raises
    AmbiguousRelationError when there is a verified relation among the basis
    columns alone, seen as a second verified relation or as one the target
    is not in.
    """
    target = normalize_descriptor(target)
    basis = [normalize_descriptor(b) for b in basis]
    if target in basis:
        raise ValueError("target %s already occurs in the basis" % descriptor_str(target))
    primes = _above_floor([target] + basis, primes)
    matrix = build_matrix([target] + basis, primes, cache=cache, jobs=jobs)
    return _fit(matrix, target, basis, height_bound)


def dimension_estimate(k, variant="zeta2", primes=(), height_bound=DEFAULT_HEIGHT_BOUND,
                       cache=None, jobs=1):
    """(verified relation count, estimated dimension) for all weight-k columns."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("weight must be an integer >= 1, got %r" % (k,))
    descs = [(variant, ix) for ix in all_compositions(k)]
    matrix = build_matrix(descs, _above_floor(descs, primes), cache=cache, jobs=jobs)
    rels = relation_lattice(matrix, height_bound)
    m = sum(1 for c in rels if c.status == "verified")
    return m, 2 ** (k - 1) - m


def fib(k: int) -> int:
    """F_1 = F_2 = 1; counts the all-odd compositions of weight k."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("fib needs an integer k >= 1, got %r" % (k,))
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def dseq(k: int) -> int:
    """d_0 = 1, d_1 = 0, d_2 = 1, d_k = d_{k-2} + d_{k-3}.

    dseq(k - 3) counts the compositions of k into odd parts >= 3.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("dseq needs an integer k >= 0, got %r" % (k,))
    vals = [1, 0, 1]
    for i in range(3, k + 1):
        vals.append(vals[i - 2] + vals[i - 3])
    return vals[k]
