"""Sum formulas at level two, and the rational constants behind one-odd indices.

Summing the level-two value over every composition of k into r parts gives a
combination of all-odd block sums; restricting parts to be at least 2 gives a
parallel formula with odd parts at least 3.  A sharper phenomenon: an index
with exactly one odd entry (the rest even) evaluates to a fixed rational
multiple of the depth-one value of the same weight, uniformly in the prime.
This script tabulates S(k, r), then reconstructs those rationals from residues
and prints the triangle that the binomial closed form predicts.
"""

from fractions import Fraction

from fmzv import SUITES, ppt_constants
from fmzv.evaluator import eval_zeta2
from fmzv.harmonic import compositions
from fmzv.modmath import sieve_primes

from math import comb


def sum_over_compositions(k, r, p, min_part=1):
    return sum(eval_zeta2(c, p) for c in compositions(k, r, min_part)) % p


def main():
    p = 97
    print("S(k, r) = sum of zeta2 over all compositions of k into r parts, at p = %d:" % p)
    print("  k\\r " + "".join("%6d" % r for r in range(1, 7)))
    for k in range(1, 8):
        row = [sum_over_compositions(k, r, p) for r in range(1, min(k, 6) + 1)]
        print("  %3d " % k + "".join("%6d" % v for v in row))
    print()

    rep = SUITES["sumformula"].run({"kmax": 9}, sieve_primes(5, 120))
    print("both sum formulas against their all-odd right sides: %d cases, %d failed"
          % (rep.total, rep.failed))
    assert rep.passed
    print()

    print("one-odd constants: zeta2(index with a single odd entry) / zeta2(weight),")
    print("reconstructed from residues at primes up to 200:")
    primes = sieve_primes(5, 200)
    consts = {pat: c for k in (3, 5, 7, 9) for pat, c in ppt_constants(k, primes).items()}
    for (k, r, i), c in sorted(consts.items()):
        print("  weight %d, depth %d, odd slot %d: %s" % (k, r, i, c))
    print()

    print("the 2^(i-1),1,2^(r-i) family matches its binomial closed form:")
    for r in range(2, 5):
        k = 2 * r - 1
        for i in range(1, r + 1):
            predicted = Fraction((-1) ** (r - 1) * comb(2 * r - 1, 2 * i - 1), 2 ** (2 * r - 2))
            got = consts[(k, r, i)]
            mark = "ok" if got == predicted else "MISMATCH"
            print("  r=%d i=%d: %s  (predicted %s) %s" % (r, i, got, predicted, mark))
            assert got == predicted


if __name__ == "__main__":
    main()
