"""Bernoulli numbers mod p, plus the two depth-1 constants.

Conventions: B_1 = -1/2 (the generating function x/(e^x - 1)); Zk(k, p) is
B_{p-k}/k mod p for k >= 2; L2(p) is the Fermat quotient (2^{p-1} - 1)/p mod p.

Zk needs one Bernoulli number, which the Kummer/Glaisher power-sum congruence
sum_{m=1}^{p-1} m^n = p B_n (mod p^2), for even n with 2 <= n <= p - 3, gives
(Ireland-Rosen, ch. 15).  Pairing m with p - m halves the sum: for even n,
(p - m)^n = m^n - n p m^{n-1} (mod p^2), so it is sum_{m=1}^{h} m^{n-1} (2m - n p)
with h = (p - 1)/2.  The powers m^{n-1} mod p^2 are completely multiplicative
in m, so only the primes m <= h need a modular pow; every composite m is a
product of two earlier entries, read off a smallest-prime-factor table.  That
is O(p) multiplications mod p^2 and about p/(2 ln p) pows.  Zk keeps the table
of its latest call, and the next weight down at the same prime, k - 2, reads
m^{n+1} = m^{n-1} m^2 off it with one product per m and no pow.  The table
route behind bernoulli_mod inverts a power series in O(p^2) and is kept as the
independent oracle for it.
"""

import math
from functools import lru_cache
from operator import mul

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


def _power_table(e: int, p: int) -> list[int]:
    # [m^e mod p^2 for m in 0..(p-1)/2], e >= 1: one pow per prime m, one product
    # per composite m, read off spf[m] = its smallest prime factor (0 for a prime);
    # each d writes its multiples from d*d on, and the smallest d writes last
    p2, h = p * p, (p - 1) // 2
    spf = [0] * (h + 1)
    for d in range(math.isqrt(h), 1, -1):
        spf[d * d::d] = [d] * ((h - d * d) // d + 1)
    a = [0, 1] + [0] * (h - 1)
    for m in range(2, h + 1):
        q = spf[m]
        a[m] = a[q] * a[m // q] % p2 if q else pow(m, e, p2)
    return a


_kept = [0, 0, []]  # p, e and the m^e table of the latest Zk call that summed powers


def Zk(k: int, p: int) -> int:
    """The depth-1 constant B_{p-k}/k mod p; defined for k >= 2, p > k + 2.

    With n = p - k, B_n is 0 for odd n >= 3 (k = 2 and every even k), and for
    even n, 2 <= n <= p - 3, it is (sum_{m=1}^{p-1} m^n mod p^2) / p mod p by
    the Kummer/Glaisher power-sum congruence.  The sum is taken as
    sum_{m=1}^{h} m^{n-1} (2m - n p), h = (p - 1)/2, pairing m with p - m; the
    powers m^{n-1} mod p^2 take one modular pow per prime m <= h and one
    product of two earlier powers per composite m.  The table of the latest
    call is kept, and a call at the same prime with k two below it multiplies
    each entry by m^2 instead, so a prime's weights are cheapest taken from the
    largest down.  bernoulli_mod(p - k, p) / k is the O(p^2) oracle for this.
    """
    check_prime(p)
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError("Zk needs an integer k >= 2, got %r" % (k,))
    if p <= k + 2:
        raise ValueError("Zk needs p > k + 2, got k=%d p=%d" % (k, p))
    n = p - k
    if n % 2:
        return 0
    p2, e = p * p, n - 1
    kept_p, kept_e, a = _kept
    if kept_p == p and e == kept_e + 2:
        a = [x * m * m % p2 for m, x in enumerate(a)]
    else:
        a = _power_table(e, p)
    _kept[:] = p, e, a
    s = 2 * sum(map(mul, a, range(len(a)))) - n * p * sum(a)
    return s % p2 // p * mod_inv(k, p) % p


def L2(p: int) -> int:
    """Fermat quotient of 2: (2^{p-1} - 1)/p mod p."""
    check_prime(p)
    return (pow(2, p - 1, p * p) - 1) // p % p
