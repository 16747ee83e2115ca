"""Modular arithmetic workhorses: primes, inverses, CRT, rational reconstruction.

All residues are plain ints in [0, m).  Primes 2 and 3 are excluded throughout
the package; every prime-taking function insists on p >= 5.
"""

import math
from fractions import Fraction

__all__ = [
    "is_prime",
    "sieve_primes",
    "mod_inv",
    "batch_inv",
    "crt_combine",
    "rat_reconstruct",
]

# deterministic Miller-Rabin witnesses, valid for n < 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for the sizes this package uses."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:  # no prime factor <= 37, and a composite n has one <= sqrt(n) < 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """Validate a working prime (odd, >= 5); returns p for chaining."""
    if not isinstance(p, int) or p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5, got %r" % (p,))
    return p


def sieve_primes(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi] inclusive, ascending.  Requires 5 <= lo <= hi."""
    if not 5 <= lo <= hi:
        raise ValueError("need 5 <= lo <= hi, got lo=%r hi=%r" % (lo, hi))
    flags = bytearray([1]) * (hi - lo + 1)
    for q in range(2, math.isqrt(hi) + 1):
        if not is_prime(q):
            continue
        start = max(q * q, ((lo + q - 1) // q) * q)
        for m in range(start, hi + 1, q):
            flags[m - lo] = 0
    return [lo + i for i, f in enumerate(flags) if f]


def mod_inv(a: int, p: int) -> int:
    """Inverse of a mod p; raises ZeroDivisionError when a = 0 mod p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 is not invertible mod %d" % p)
    return pow(a, -1, p)


def batch_inv(values: list[int], p: int) -> list[int]:
    """Inverses of all entries mod p with a single modular inversion.

    Standard prefix-product trick: one pow(-1) plus 3(n-1) multiplications.
    Raises ZeroDivisionError identifying the first entry that is 0 mod p.
    """
    n = len(values)
    if n == 0:
        return []
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(values):
        v %= p
        if v == 0:
            raise ZeroDivisionError("entry %d is 0 mod %d" % (i, p))
        prefix[i] = acc
        acc = acc * v % p
    inv_acc = pow(acc, -1, p)
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = prefix[i] * inv_acc % p
        inv_acc = inv_acc * (values[i] % p) % p
    return out


def crt_combine(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine [(residue, prime), ...] into (R, M) with R = r_i mod p_i, M = prod p_i.

    Primes must be pairwise distinct.  Empty input gives (0, 1).
    """
    seen = set()
    R, M = 0, 1
    for r, p in pairs:
        check_prime(p)
        if p in seen:
            raise ValueError("duplicate prime %d in CRT input" % p)
        seen.add(p)
        # solve x = R (mod M), x = r (mod p)
        t = (r - R) * pow(M, -1, p) % p
        R += M * t
        M *= p
    return R % M, M


def rat_reconstruct(R: int, M: int) -> Fraction | None:
    """Smallest rational n/d with n = R*d mod M, |n|, d <= sqrt(M/2), or None.

    Half-extended Euclid with the symmetric bound; the bound makes the answer
    unique when it exists.
    """
    if M < 2:
        raise ValueError("modulus must be >= 2")
    R %= M
    bound = math.isqrt(M // 2)
    r0, r1 = M, R
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    # r1 = s*M + t1*R, so a common factor of t1 and M would divide r1 as well:
    # gcd(r1, t1) == 1 makes t1 invertible mod M
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, abs(t1)) != 1:
        return None
    n, d = (r1, t1) if t1 > 0 else (-r1, -t1)
    return Fraction(n, d)
