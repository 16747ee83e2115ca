"""Closed forms in depth one and two.

Depth-1 level-2 values reduce to two classical quantities mod p: the Fermat
quotient of 2 at weight 1, and a Bernoulli quotient at every higher weight.
Depth-2 values of odd weight reduce to one binomial expression times the same
Bernoulli quotient.  The identity suites re-derive these over whole prime
ranges; here we just look at the numbers.
"""

from fmzv import L2, SUITES, Zk, eval_zeta2
from fmzv.modmath import mod_inv, sieve_primes


def main():
    p = 13
    print("reference quantities at p = %d:" % p)
    print("  L(2) = (2^(p-1) - 1)/p  =", L2(p))
    for k in (2, 3, 4, 5):
        print("  Z(%d) = B_(p-%d)/%d      = %d" % (k, k, k, Zk(k, p)))
    print()

    print("depth 1: zeta2(1) = -2 L(2), zeta2(k) = (2 - 2^k) Z(k) for k >= 2")
    for k in range(1, 6):
        lhs = eval_zeta2((k,), p)
        rhs = (-2 * L2(p)) % p if k == 1 else (2 - pow(2, k, p)) * Zk(k, p) % p
        marker = "(vanishes: even weight)" if k % 2 == 0 and k > 1 else ""
        print("  k=%d: %d = %d %s" % (k, lhs, rhs, marker))
    print()

    print("depth 2, odd weight k1+k2:")
    print("  zeta2(k1,k2) = [(-1)^k2 binom(k,k2) + 2^k - 2] Z(k) / 2")
    for k1, k2 in ((1, 2), (2, 1), (1, 4), (2, 3), (3, 2), (4, 1)):
        k = k1 + k2
        lhs = eval_zeta2((k1, k2), p)
        binom = 1
        for i in range(k2):
            binom = binom * (k - i) // (i + 1)
        rhs = mod_inv(2, p) * (((-1) ** k2 * binom + pow(2, k, p) - 2) % p) % p * Zk(k, p) % p
        print("  (%d,%d): %d = %d" % (k1, k2, lhs, rhs))
    print()

    print("now the full suites over all primes up to 120:")
    primes = sieve_primes(5, 120)
    for rep in (SUITES["prop21"].run({"kmax": 9}, primes),
                SUITES["depth2"].run({"kmax": 9}, primes)):
        print("  suite %-8s %d cases, %d failed" % (rep.suite, rep.total, rep.failed))
        assert rep.passed


if __name__ == "__main__":
    main()
