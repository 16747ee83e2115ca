import hashlib
import json
import random
from fractions import Fraction

import pytest

from fmzv.harmonic import all_compositions
from fmzv.lattice import congruence_cut, hnf, hnf_contains, lll_reduce
from fmzv.modmath import mod_inv, sieve_primes
from fmzv.relations import _train_split, build_matrix


def dot(u, v):
    assert len(u) == len(v)
    return sum(a * b for a, b in zip(u, v))


def dense_cut(basis, weights, p):
    """Reference cut: dense residues and rows over all n entries, then hnf."""
    residues = [dot(b, weights) % p for b in basis]
    pivot = next((j for j, s in enumerate(residues) if s), None)
    if pivot is None:
        return [list(b) for b in basis]
    inv = mod_inv(residues[pivot], p)
    out = []
    for j, b in enumerate(basis):
        if j == pivot:
            continue
        t = residues[j] * inv % p
        out.append([a - t * c for a, c in zip(b, basis[pivot])])
    out.append([p * c for c in basis[pivot]])
    return hnf(out)


def upfront_lll(rows, delta_num=99, delta_den=100):
    """Reference LLL: the whole Gram-Schmidt data up front, every row updated on a swap."""
    B = [list(r) for r in rows]
    n = len(B)
    if n <= 1:
        return B
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = dot(B[i], B[j])
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            else:
                if u == 0:
                    raise ValueError("rows are linearly dependent")
                d[i + 1] = u

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            B[k] = [a - q * b for a, b in zip(B[k], B[l])]
            lam[k][l] -= q * d[l + 1]
            for t in range(l):
                lam[k][t] -= q * lam[l][t]

    k = 1
    while k < n:
        red(k, k - 1)
        if delta_den * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < delta_num * d[k] ** 2:
            B[k], B[k - 1] = B[k - 1], B[k]
            for t in range(k - 1):
                lam[k][t], lam[k - 1][t] = lam[k - 1][t], lam[k][t]
            lam_kk = lam[k][k - 1]
            dk_new = (d[k - 1] * d[k + 1] + lam_kk ** 2) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_kk * t) // d[k]
                lam[i][k - 1] = (dk_new * t + lam_kk * lam[i][k]) // d[k + 1]
            d[k] = dk_new
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return B


def gram_schmidt(rows):
    """Exact Gram-Schmidt over Fraction; returns (bstar, mu)."""
    bstar = []
    mu = []
    for i, b in enumerate(rows):
        v = [Fraction(x) for x in b]
        mu.append([Fraction(0)] * len(rows))
        for j in range(i):
            denom = sum(x * x for x in bstar[j])
            mu[i][j] = sum(Fraction(a) * x for a, x in zip(b, bstar[j])) / denom
            v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
    return bstar, mu


def assert_lll_reduced(rows, delta=Fraction(99, 100)):
    bstar, mu = gram_schmidt(rows)
    norms = [sum(x * x for x in v) for v in bstar]
    for i in range(len(rows)):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2), (i, j, mu[i][j])
    for k in range(1, len(rows)):
        assert norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1], k


def random_unimodular_mix(rows, rng, steps=30):
    rows = [list(r) for r in rows]
    for _ in range(steps):
        i, j = rng.sample(range(len(rows)), 2)
        q = rng.randint(-3, 3)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return rows


def test_hnf_small_example():
    assert hnf([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]
    assert hnf([[0, 0, 0]]) == []
    assert hnf([]) == []


def test_hnf_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged"):
        hnf([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged"):
        hnf([[0, 0], [1], [2, 3]])  # a zero row is dropped before the check


def test_hnf_pivot_normalization():
    out = hnf([[-3, 1], [0, 5]])
    for row in out:
        pivot = next(x for x in row if x)
        assert pivot > 0
    # entries above a pivot sit in [0, pivot)
    assert out == [[3, 4], [0, 5]]


def test_hnf_invariant_under_row_mixing():
    rng = random.Random(10)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = rng.randint(n, 5)
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        mixed = random_unimodular_mix(rows, rng)
        assert hnf(rows) == hnf(mixed)


def test_hnf_contains_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        h = hnf(rows)
        for r in rows:
            assert hnf_contains(h, r)
        coeffs = [rng.randint(-3, 3) for _ in rows]
        combo = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(4)]
        assert hnf_contains(h, combo)


def test_hnf_contains_negative():
    h = hnf([[2, 0], [0, 2]])
    assert not hnf_contains(h, [1, 0])
    assert not hnf_contains(h, [1, 1])
    assert hnf_contains(h, [4, -2])
    assert hnf_contains(h, [0, 0])


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_congruence_cut_basics():
    w = [1, 2, 3]
    cut = congruence_cut([w], [5])
    assert cut == [[1, 0, 3], [0, 1, 1], [0, 0, 5]]
    for v in cut:
        assert dot(v, w) % 5 == 0
    # index of the sublattice is exactly p
    diag = 1
    for row in cut:
        diag *= next(x for x in row if x)
    assert diag == 5
    # every lattice member satisfies the congruence
    rng = random.Random(12)
    for _ in range(20):
        coeffs = [rng.randint(-4, 4) for _ in cut]
        combo = [sum(c * r[i] for c, r in zip(coeffs, cut)) for i in range(3)]
        assert dot(combo, w) % 5 == 0


def test_congruence_cut_row_zero_mod_p_adds_no_pivot():
    assert congruence_cut([[0, 0]], [7]) == identity(2)
    assert congruence_cut([[5, -10, 0]], [5]) == identity(3)
    rng = random.Random(27)
    for n in (1, 3, 8):
        rows = [[rng.randrange(13) for _ in range(n)] for _ in range(2)]
        zero = [5 * rng.randint(-9, 9) for _ in range(n)]
        assert_prefixes_match_dense_chain(rows, [11, 13])
        want = congruence_cut(rows, [11, 13])
        for at in range(3):
            assert congruence_cut(rows[:at] + [zero] + rows[at:],
                                  [11, 13][:at] + [5] + [11, 13][at:]) == want


def test_lll_classic_example():
    rows = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
    red = lll_reduce(rows)
    assert hnf(red) == hnf(rows)
    assert_lll_reduced(red)


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce([[1, 2], [2, 4]])


def test_lll_random_bases():
    rng = random.Random(13)
    for trial in range(15):
        n = rng.randint(2, 5)
        m = n + rng.randint(0, 2)
        while True:
            rows = [[rng.randint(-50, 50) for _ in range(m)] for _ in range(n)]
            try:
                red = lll_reduce(rows)
                break
            except ValueError:
                continue
        assert hnf(red) == hnf(rows)
        assert_lll_reduced(red)


def test_lll_large_entries():
    rng = random.Random(14)
    base = [[10 ** 12 if i == j else rng.randint(-10 ** 9, 10 ** 9) for j in range(4)]
            for i in range(4)]
    red = lll_reduce(base)
    assert hnf(red) == hnf(base)
    assert_lll_reduced(red)


def test_lll_finds_short_kernel_vector():
    # plant the relation 3*x0 - x1 = 0 mod a large modulus and recover it
    M = 10 ** 9 + 7
    w = [2, 6, M - 1]
    cut = congruence_cut([w], [M])
    assert cut == [[1, 0, 2], [0, 1, 6], [0, 0, M]]
    red = lll_reduce(cut)
    short = min(red, key=lambda v: max(abs(x) for x in v))
    assert max(abs(x) for x in short) <= 3
    assert dot(short, w) % M == 0
    # the planted relations lie in the cut lattice
    assert hnf_contains(hnf(cut), [3, -1, 0])
    assert hnf_contains(hnf(cut), [1, 0, 2])


def knapsack_basis(rng, n, m, bits):
    # identity plus m dense columns, the shape of the relation engine's cut lattices
    return [[int(i == j) for j in range(n)] + [rng.getrandbits(bits) for _ in range(m)]
            for i in range(n)]


def dims_cut_basis(k, variant, primes=sieve_primes(5, 200)):
    # the basis dimension_estimate(k, variant, primes) hands to LLL; the default primes
    # are those of `dims --weight k`
    matrix = build_matrix([(variant, ix) for ix in all_compositions(k)],
                          [p for p in primes if p > k + 2])
    train = _train_split(matrix.primes)[0]
    return congruence_cut(matrix.cells[:len(train)], train)


def test_lll_matches_upfront_reference_on_dense_bases():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(2, 8)
        m = n + rng.randint(0, 3)
        rows = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(m)] for _ in range(n)]
        assert lll_reduce(rows) == upfront_lll(rows)


def test_lll_matches_upfront_reference_on_knapsack_bases():
    rng = random.Random(21)
    for n, m, bits in [(2, 1, 200), (3, 3, 60), (8, 3, 200), (15, 2, 120), (20, 1, 200),
                       (25, 3, 60), (40, 1, 60)]:
        rows = knapsack_basis(rng, n, m, bits)
        assert lll_reduce(rows) == upfront_lll(rows), (n, m, bits)


@pytest.mark.parametrize("k", [6, 7])
@pytest.mark.parametrize("variant", ["zeta2", "zeta"])
def test_lll_matches_upfront_reference_on_dims_cut_bases(k, variant):
    basis = dims_cut_basis(k, variant)
    assert len(basis) == 2 ** (k - 1)
    assert lll_reduce(basis) == upfront_lll(basis)


def test_lll_dependency_at_the_last_row():
    with pytest.raises(ValueError):
        lll_reduce([[1, 0], [0, 1], [1, 1]])
    rng = random.Random(22)
    for _ in range(10):
        rows = knapsack_basis(rng, 6, 2, 80)
        coeffs = [rng.randint(-5, 5) for _ in rows]
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0]))])
        with pytest.raises(ValueError):
            upfront_lll(rows)
        with pytest.raises(ValueError):
            lll_reduce(rows)


def test_lll_rank_0_and_1_unchanged():
    assert lll_reduce([]) == []
    assert lll_reduce([[3, -4, 0]]) == [[3, -4, 0]]
    assert lll_reduce([[0, 0]]) == [[0, 0]]


def assert_is_hnf_of(h, rows):
    # upper echelon with positive pivots, and entries above each pivot in [0, pivot)
    pivots = [next(j for j, x in enumerate(row) if x) for row in h]
    assert pivots == sorted(set(pivots))
    for i, (row, j) in enumerate(zip(h, pivots)):
        assert row[j] > 0
        assert all(0 <= above[j] < row[j] for above in h[:i])
    # the same lattice: the rows lie in h's span, and h in the span of vectors x . rows,
    # each checked here by hand, which the HNF of [rows | identity] gives beside their x
    assert all(hnf_contains(h, r) for r in rows)
    n, spans = len(rows), []
    for row in hnf([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]):
        v, x = row[:-n], row[-n:]
        assert v == [dot(x, column) for column in zip(*rows)]
        if any(v):
            spans.append(v)
    assert all(hnf_contains(spans, r) for r in h)


def test_hnf_has_the_defining_properties():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(1, 7)
        rows = [[rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(m)]
                for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.3:
            rows.append([0] * m)
        if rng.random() < 0.3 and len(rows) > 1:
            # rank-deficient: one row is a combination of two others
            a, b = rng.sample(rows, 2)
            rows.append([2 * x - 3 * y for x, y in zip(a, b)])
        rng.shuffle(rows)
        assert_is_hnf_of(hnf(rows), rows)


def test_hnf_negative_pivots_have_the_defining_properties():
    rows = [[-3, 1, 0], [0, -5, 2], [-6, 7, -4]]
    assert_is_hnf_of(hnf(rows), rows)
    assert hnf([[0, 0], [-2, 0], [0, 0]]) == [[2, 0]]


def assert_prefixes_match_dense_chain(rows, primes):
    # the closed form on every prefix equals the dense reference cut chain, which ends
    # in hnf
    ref = identity(len(rows[0]))
    for t, (w, p) in enumerate(zip(rows, primes), 1):
        ref = dense_cut(ref, w, p)
        assert congruence_cut(rows[:t], primes[:t]) == ref, (rows[:t], primes[:t])


def test_congruence_cut_chains_match_dense_hnf():
    rng = random.Random(24)
    primes = sieve_primes(10 ** 4, 10 ** 4 + 400)[:8]
    for n in (3, 8, 20):
        assert_prefixes_match_dense_chain(
            [[rng.randrange(p) for _ in range(n)] for p in primes], primes)
    rng = random.Random(26)
    for n in (1, 2, 5, 12, 20):
        for primes in ((2, 3, 5, 7, 11, 13), sieve_primes(10 ** 4, 10 ** 4 + 200)[:8]):
            rows = []
            for p in primes:
                w = [rng.randrange(p) for _ in range(n)]
                # zero and multiple-of-p weights give rows of residue 0
                for j in rng.sample(range(n), n // 3):
                    w[j] = rng.choice((0, p, -2 * p))
                rows.append(w)
            assert_prefixes_match_dense_chain(rows, primes)
    # the weight-6 dims matrix, training and held-out rows together
    matrix = build_matrix([("zeta2", ix) for ix in all_compositions(6)], sieve_primes(11, 300))
    assert_prefixes_match_dense_chain(matrix.cells, matrix.primes)


def sparse_rows(rng, n, m, per_row, bound):
    # n rows of m columns, each with per_row nonzero entries in [-bound, bound] at random columns
    rows = [[0] * m for _ in range(n)]
    for row in rows:
        for j in rng.sample(range(m), per_row):
            row[j] = rng.choice((-1, 1)) * rng.randint(1, bound)
    return rows


def assert_lll_matches_upfront(rows):
    # equal output, or ValueError from both on dependent rows; True when independent
    try:
        want = upfront_lll(rows)
    except ValueError:
        with pytest.raises(ValueError):
            lll_reduce(rows)
        return False
    assert lll_reduce(rows) == want, rows
    return True


def test_lll_matches_upfront_reference_on_sparse_bases():
    rng = random.Random(25)
    independent = 0
    for _ in range(30):
        # a few nonzeros per row at random positions, small and large entries
        n = rng.randint(2, 20)
        m = n + rng.randint(0, 10)
        rows = sparse_rows(rng, n, m, rng.randint(1, 3), rng.choice((3, 10 ** 6)))
        independent += assert_lll_matches_upfront(rows)
    for _ in range(20):
        # the same, with a block of dense columns in the middle
        n = rng.randint(2, 20)
        m = n + rng.randint(2, 10)
        rows = sparse_rows(rng, n, m, 2, 50)
        mid = m // 2
        for row in rows:
            row[mid - 1:mid + 1] = [rng.getrandbits(80) for _ in range(2)]
        independent += assert_lll_matches_upfront(rows)
    for _ in range(20):
        # rows on disjoint blocks of columns, a few of them then mixed into others
        n = rng.randint(2, 12)
        width = rng.randint(1, 3)
        rows = [[0] * (n * width) for _ in range(n)]
        for i, row in enumerate(rows):
            row[i * width:(i + 1) * width] = [rng.randint(-10 ** 4, 10 ** 4) or 1
                                              for _ in range(width)]
        for _ in range(rng.randint(0, 3)):
            i, j = rng.sample(range(n), 2)
            q = rng.randint(-4, 4)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        independent += assert_lll_matches_upfront(rows)
    assert independent >= 50


def test_lll_rejects_ragged_rows():
    for rows in ([[1], [3, 4]], [[1, 2], [3]], [[1, 0], [0, 1], [1]]):
        with pytest.raises(ValueError):
            lll_reduce(rows)


# sha256 of json.dumps(lll_reduce(basis)) for the weight-8 `dims` cut bases over
# sieve_primes(11, 260), as recorded before the row operations became sparse
W8_LLL_SHA256 = {
    "zeta2": "60e1ca220ad4a818968ecf4a1a11c8830fcb076072cbf83bbca0f70e01f41a13",
    "zeta": "beb59e9bc58a665b6d755903e344df2cb5dc82447350872efbcb0f51fa94568e",
}


@pytest.mark.parametrize("variant", ["zeta2", "zeta"])
def test_lll_weight8_dims_cut_bases_pinned(variant):
    basis = dims_cut_basis(8, variant, sieve_primes(11, 260))
    reduced = json.dumps(lll_reduce(basis)).encode()
    assert hashlib.sha256(reduced).hexdigest() == W8_LLL_SHA256[variant]


def test_congruence_cut_rejects_bad_input():
    for rows, primes in [
        ([[1, 2], [3, 4]], [5, 5]),             # repeated prime
        ([[1, 2], [3, 4], [1, 1]], [5, 7, 5]),
        ([[1, 2], [0, 5]], [5, 5]),
        ([[1, 2], [3]], [5, 7]),                # ragged rows
        ([[1], [3, 4]], [5, 7]),
        ([[1, 2], [3, 4]], [5]),                # row count differs from prime count
        ([[1, 2]], [5, 7]),
        ([], [5]),
        ([], []),
    ]:
        with pytest.raises(ValueError, match="distinct primes"):
            congruence_cut(rows, primes)
