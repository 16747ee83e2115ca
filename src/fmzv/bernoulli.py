"""Bernoulli numbers mod p, plus the two depth-1 constants.

Conventions: B_1 = -1/2 (the generating function x/(e^x - 1)); Zk(k, p) is
B_{p-k}/k mod p for k >= 2; L2(p) is the Fermat quotient (2^{p-1} - 1)/p mod p.

Zk needs B_n, n = p - k, which is 0 for even k (odd n >= 3).  For odd k, n is
even, and Voronoi's congruence (a^n - 1) B_n/n = a^{n-1} sum_{j<p} j^{n-1}
floor(ja/p) (mod p), p not dividing a (Ireland-Rosen, ch. 15), gives Zk:
floor(ja/p) counts the i < a with j > c_i = floor(ip/a), sum_{j<p} j^{n-1} = 0,
a^n = a^{1-k} and B_n/n = -Zk mod p, so (a - a^k) Zk = sum_{i=1}^{a-1} H_{c_i},
where H_x = sum_{j<=x} j^{p-1-k} mod p.  Zk takes the least a >= 3 with
a^{k-1} != 1 mod p, so that a - a^k inverts: 3 but at a few pairs, such as
(k, p) = (7, 13).  a = 2 would give the half-range sum, zeta2(k) itself, and
make prop21 check a sum against itself.  H_{p-1-x} = H_x (n - 1 is odd) and
c_{a-i} = p - 1 - c_i, so at a = 3 the sum is 2 H_{floor(p/3)}, E. Lehmer's
third-range sum (Ann. of Math. 39, 1938).  j^{p-1-k} is completely
multiplicative in j, so its table up to the cut takes one modular pow per prime
j and one product per composite j, mod p: about p/(3 ln p) pows.  A suite reads
H_{floor(p/3)} off its group sweep (evaluator._sweep, the "third" cells that
identities._prime_rows plans) and passes it to Zk, which then builds no table;
a library call, or a pair with a > 3, builds its own, and no call keeps one.
The table route behind bernoulli_mod inverts a power series in O(p^2) and is
kept as the independent oracle for it.
"""

import math
from functools import lru_cache
from itertools import accumulate

from .modmath import check_prime, mod_inv

__all__ = ["bernoulli_mod", "Zk", "L2"]


@lru_cache(maxsize=4)
def _bernoulli_table(p: int) -> tuple[int, ...]:
    # B_0..B_{p-2} mod p by inverting the series (e^x - 1)/x truncated at degree
    # p - 2, whose coefficients 1/(i+1)! all invert mod p
    n = p - 2
    fact = [1] * (n + 2)
    for i in range(1, n + 2):
        fact[i] = fact[i - 1] * i % p
    c = [mod_inv(fact[i + 1], p) for i in range(n + 1)]  # c_i = 1/(i+1)!
    b = [0] * (n + 1)
    b[0] = 1
    for m in range(1, n + 1):
        acc = 0
        for i in range(1, m + 1):
            acc = (acc + c[i] * b[m - i]) % p
        b[m] = -acc % p
    return tuple(b[m] * fact[m] % p for m in range(n + 1))


def bernoulli_mod(n: int, p: int) -> int:
    """B_n mod p.  Requires 0 <= n <= p - 2 (so all needed factorials invert)."""
    check_prime(p)
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= p - 2:
        raise ValueError("need an integer 0 <= n <= p - 2, got n=%r p=%d" % (n, p))
    return _bernoulli_table(p)[n]


def _power_table(e: int, p: int, h: int) -> list[int]:
    # [m^e mod p for m in 0..h], e >= 1, 1 <= h < p: one pow per prime m, one product
    # per composite m, read off spf[m] = its smallest prime factor (0 for a prime);
    # each d writes its multiples from d*d on, and the smallest d writes last
    spf = [0] * (h + 1)
    for d in range(math.isqrt(h), 1, -1):
        spf[d * d::d] = [d] * ((h - d * d) // d + 1)
    t = [0, 1] + [0] * (h - 1)
    for m in range(2, h + 1):
        q = spf[m]
        t[m] = t[q] * t[m // q] % p if q else pow(m, e, p)
    return t


def Zk(k: int, p: int, third: int | None = None) -> int:
    """The depth-1 constant B_{p-k}/k mod p; defined for k >= 2, p > k + 2.

    0 for even k; for odd k, (sum_{i=1}^{a-1} H_{c_i}) / (a - a^k) mod p by
    Voronoi's congruence (see the module docstring), where c_i = floor(ip/a) is
    read at min(c_i, p - 1 - c_i), H_x = sum_{j<=x} j^{p-1-k} and a >= 3 is the
    least with a^{k-1} != 1 mod p.  third, if given, is H_{floor(p/3)} mod p, as a
    suite reads it off its group sweep: at a = 3 Zk is then 2 third / (3 - 3^k), with
    no table built; at a > 3 it is ignored.  Otherwise the call builds a table of the
    powers up to its largest cut and reads each H_{c_i} off its prefix sums; nothing is
    kept.  bernoulli_mod(p - k, p) / k is the O(p^2) oracle for this.
    """
    check_prime(p)
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError("Zk needs an integer k >= 2, got %r" % (k,))
    if p <= k + 2:
        raise ValueError("Zk needs p > k + 2, got k=%d p=%d" % (k, p))
    if k % 2 == 0:
        return 0
    a = next(b for b in range(3, p) if pow(b, k - 1, p) != 1)
    if a == 3 and third is not None:
        return 2 * third * mod_inv(3 - pow(3, k, p), p) % p
    # H_{p-1-c} = H_c: each cut c_i = floor(ip/a) is read at min(c_i, p - 1 - c_i)
    cuts = [min(c, p - 1 - c) for c in (i * p // a for i in range(1, a))]
    sums = list(accumulate(_power_table(p - 1 - k, p, max(cuts))))
    return sum(sums[c] for c in cuts) * mod_inv(a - pow(a, k, p), p) % p


def L2(p: int) -> int:
    """Fermat quotient of 2: (2^{p-1} - 1)/p mod p."""
    check_prime(p)
    return (pow(2, p - 1, p * p) - 1) // p % p
