"""Exact integer lattice tools: congruence lattices in HNF, LLL, and an HNF oracle.

Everything is plain Python ints, so no precision is ever lost; the LLL
reduction keeps the Gram-Schmidt data in integral form (denominators d[i],
numerators lam[i][j]) and only performs divisions that are exact.

The relation engine's lattices are sparse, identity plus a few dense
columns: congruence_cut writes their HNF down in closed form, and LLL works
over the rows' nonzeros.  hnf and hnf_contains (plain elimination over
whole rows, and membership) stay as the independent route tests compare
lattice spans with.
"""

from itertools import compress, repeat
from math import prod
from operator import add, mul, sub

__all__ = ["hnf", "hnf_contains", "congruence_cut", "lll_reduce"]

_DELTA_NUM, _DELTA_DEN = 99, 100  # lll_reduce's Lovasz constant delta = 99/100


def hnf(rows):
    """Row-style Hermite normal form, by gcd elimination over whole rows.

    Returns the nonzero rows of an upper-echelon basis with positive pivots
    and entries above each pivot reduced into [0, pivot).  The row lattice is
    unchanged.  The package does not call it; tests compare spans with it.
    """
    work = [list(r) for r in rows if any(r)]
    if any(len(r) != len(work[0]) for r in work):
        raise ValueError("ragged rows")

    def eliminate(r, col, targets):
        # work[i] -= q * work[r] for i in targets, q the floor quotient at col
        for i in targets:
            q = work[i][col] // work[r][col]
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]

    r = 0
    for col in range(len(work[0]) if work else 0):
        # move the least nonzero |entry| of rows r.. to row r and reduce the rows below
        # by it, until it is the column's only one: the pivot
        while r < len(work):
            live = [i for i in range(r, len(work)) if work[i][col]]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(work[i][col]))
            work[r], work[i0] = work[i0], work[r]
            if len(live) == 1:
                if work[r][col] < 0:
                    work[r] = [-a for a in work[r]]
                eliminate(r, col, range(r))
                r += 1
                break
            eliminate(r, col, range(r + 1, len(work)))
    return work[:r]


def hnf_contains(hnf_rows, vector):
    """Membership of an integer vector in the row lattice given by hnf() (tests only)."""
    v = list(vector)
    for row in hnf_rows:
        col = next(j for j, x in enumerate(row) if x)
        if v[col] % row[col]:
            return False
        q = v[col] // row[col]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def congruence_cut(rows, primes):
    """HNF basis of {v : v . rows[t] = 0 mod primes[t] for every t}, in closed form.

    The HNF is unique, so it is written down (row-style HNF, Cohen, A Course in
    Computational Algebraic Number Theory, 2.4.2).  Let j_p be the last column
    where p's row is nonzero mod p (without one, p is skipped).  Column c's
    pivot D_c is the product of the primes with j_p = c.  Row c is D_c at c
    plus, in each later column j with D_j > 1 taken in increasing order, the
    entry in [0, D_j) that by CRT makes the row's dot product with the rows of
    the primes at j vanish mod each, summed over c and the pivot columns only.
    """
    if (not rows or len(rows) != len(primes) or len(set(primes)) != len(primes)
            or len({len(r) for r in rows}) != 1):
        raise ValueError("need one row, all of one length, for each of distinct primes")
    n = len(rows[0])
    at = {}                 # j_p -> [(p, p's row mod p)]
    for p, row in zip(primes, rows):
        r = [x % p for x in row]
        j = next((j for j in range(n - 1, -1, -1) if r[j]), None)
        if j is not None:
            at.setdefault(j, []).append((p, r))
    crt = {}                # j -> (D_j, [(p, r, f)]), f = -1 / r[j] mod p and 0 mod D_j / p
    for j in sorted(at):
        D = prod(p for p, _ in at[j])
        crt[j] = D, [(p, r, -(D // p) * pow(r[j] * (D // p), -1, p) % D) for p, r in at[j]]
    basis = []
    for c in range(n):
        row = [0] * n
        row[c] = crt[c][0] if c in crt else 1
        nz = [c]
        for j, (D, eqs) in crt.items():
            if j > c:
                row[j] = sum(sum(row[k] * r[k] for k in nz) % p * f for p, r, f in eqs) % D
                nz.append(j)
        basis.append(row)
    return basis


def lll_reduce(rows):
    """LLL-reduce a basis of linearly independent integer rows, exactly.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7, with
    incremental Gram-Schmidt in all-integer form: d[0] = 1, mu[i][j] =
    lam[i][j] / d[j+1], |b*_i|^2 = d[i+1] / d[i].  Row i's data is computed
    when the reduction first reaches it (kmax), and swaps update it only up
    to kmax.  All divisions are exact.  Dependent or ragged rows raise
    ValueError.

    Rows are updated in place over the nonzero entries of the row subtracted,
    and dot products run over the shorter of the two supports.  A row's
    support is rebuilt when it is next read after the row was reduced.
    """
    B = [list(r) for r in rows]
    n = len(B)
    if n <= 1:
        return B
    if any(len(b) != len(B[0]) for b in B):
        raise ValueError("ragged rows")

    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    nz = [None] * n             # nz[i]: support of B[i], None while stale

    def support(i):
        s = nz[i]
        if s is None:
            s = nz[i] = list(compress(range(len(B[i])), B[i]))
        return s

    def gram_schmidt(i):
        # lam[i] and d[i+1] from the current rows 0..i
        bi, li, si = B[i], lam[i], support(i)
        for j in range(i + 1):
            bj, sj = B[j], support(j)
            s = si if len(si) <= len(sj) else sj
            u = sum(map(mul, map(bi.__getitem__, s), map(bj.__getitem__, s)))
            lj = lam[j]
            for t in range(j):
                u = (d[t + 1] * u - li[t] * lj[t]) // d[t]
            if j < i:
                li[j] = u
            elif u == 0:
                raise ValueError("rows are linearly dependent")
            else:
                d[i + 1] = u

    def red(k, l):
        # B[k] -= q * B[l], called only when 2 |lam[k][l]| > d[l+1], so q != 0
        lk, ll, dl = lam[k], lam[l], d[l + 1]
        q = (2 * lk[l] + dl) // (2 * dl)
        bk, bl = B[k], B[l]
        for j in support(l):
            bk[j] -= q * bl[j]
        nz[k] = None
        lk[l] -= q * dl
        if q == 1:
            lk[:l] = map(sub, lk[:l], ll)
        elif q == -1:
            lk[:l] = map(add, lk[:l], ll)
        else:
            lk[:l] = map(sub, lk[:l], map(mul, repeat(q, l), ll))

    gram_schmidt(0)
    kmax, k = 0, 1
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        lk = lam[k]
        if 2 * abs(lk[k - 1]) > d[k]:
            red(k, k - 1)
        lam_kk, dk, dk1 = lk[k - 1], d[k], d[k + 1]
        if _DELTA_DEN * (dk1 * d[k - 1] + lam_kk ** 2) < _DELTA_NUM * dk ** 2:
            B[k], B[k - 1] = B[k - 1], B[k]
            nz[k], nz[k - 1] = nz[k - 1], nz[k]
            lk[:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lk[:k - 1]
            dk_new = (d[k - 1] * dk1 + lam_kk ** 2) // dk
            for i in range(k + 1, kmax + 1):
                li = lam[i]
                t = li[k]
                li[k] = (dk1 * li[k - 1] - lam_kk * t) // dk
                li[k - 1] = (dk_new * t + lam_kk * li[k]) // dk1
            d[k] = dk_new
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                if 2 * abs(lk[l]) > d[l + 1]:
                    red(k, l)
            k += 1
    return B
