"""A first tour of the values this library computes.

Four variants share one summation skeleton over 0 < m_1 < ... < m_r bounded
by p (level one) or p/2 (level two): the plain sum, the level-two sum, its
non-strict star companion, and the sign-twisted Euler sum.  Everything is an
exact residue mod p.
"""

from fmzv import build_matrix, eval_euler, eval_zeta, eval_zeta2, eval_zeta2_star
from fmzv.modmath import sieve_primes


def show(title, fn, index, primes):
    rows = ", ".join("p=%d: %d" % (p, fn(index, p)) for p in primes)
    print("%-24s %s" % (title, rows))


def main():
    primes = sieve_primes(5, 40)

    print("== depth 1, index (1) ==")
    print("level 1 is always 0 (the full harmonic sum telescopes):")
    show("zeta(1)", eval_zeta, (1,), primes)
    print("level 2 keeps only the first half and does not vanish:")
    show("zeta2(1)", eval_zeta2, (1,), primes)
    print()

    print("== depth 2, index (1,2) vs its reversal (2,1) ==")
    show("zeta(1,2)", eval_zeta, (1, 2), primes)
    show("zeta(2,1)", eval_zeta, (2, 1), primes)
    print("the reversal flips sign exactly when the weight is odd:")
    for p in primes:
        a, b = eval_zeta((1, 2), p), eval_zeta((2, 1), p)
        assert (a + b) % p == 0
    print("checked: zeta(1,2) + zeta(2,1) = 0 mod every prime above")
    print()

    print("== star variant (non-strict inequalities) ==")
    show("zeta2*(1,2)", eval_zeta2_star, (1, 2), primes)
    print("depth 1 star and non-star coincide:")
    for p in primes:
        assert eval_zeta2_star((3,), p) == eval_zeta2((3,), p)
    print("checked: zeta2*(3) = zeta2(3)")
    print()

    print("== Euler sums: a sign (-1)^m on chosen slots ==")
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        tag = "".join("+" if s > 0 else "-" for s in signs)
        vals = ", ".join("p=%d: %d" % (p, eval_euler((1, 2), signs, p)) for p in primes[:4])
        print("  euler(1,2;%s)  %s" % (tag, vals))
    print("all-plus signs reproduce the level-1 value:")
    for p in primes:
        assert eval_euler((1, 2), (1, 1), p) == eval_zeta((1, 2), p)
    print("checked: euler(1,2;++) = zeta(1,2)")
    print()

    print("== bulk evaluation across a prime range ==")
    m = build_matrix([("zeta2", (2, 1))], sieve_primes(5, 60))
    print("zeta2(2,1):", " ".join("%d:%d" % (p, v) for p, (v,) in zip(m.primes, m.cells)))


if __name__ == "__main__":
    main()
