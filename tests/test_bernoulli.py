import math
from fractions import Fraction

import pytest

import fmzv.bernoulli as bernoulli
import fmzv.identities as ids
from fmzv.bernoulli import L2, Zk, bernoulli_mod
from fmzv.modmath import mod_inv, sieve_primes


def bernoulli_fraction(n):
    # independent oracle: exact rationals via sum_j binom(n+1, j) B_j = 0
    table = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * table[j]
        table.append(-acc / (m + 1))
    return table[n]


def frac_mod(q, p):
    return q.numerator * mod_inv(q.denominator, p) % p


def kummer_oracle(k, p):
    # the power-sum congruence taken literally: one pow per m in [1, p)
    return sum(pow(m, p - k, p * p) for m in range(1, p)) % (p * p) // p * mod_inv(k, p) % p


def test_fraction_oracle_known_values():
    known = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, v in known.items():
        assert bernoulli_fraction(n) == v


def test_bernoulli_mod_examples():
    assert bernoulli_mod(0, 7) == 1
    assert bernoulli_mod(4, 7) == 3  # -1/30 = -4 = 3 mod 7
    assert bernoulli_mod(5, 11) == 0
    for p in (5, 7, 11, 13):
        assert bernoulli_mod(1, p) == (p - 1) * mod_inv(2, p) % p  # B_1 = -1/2


def test_bernoulli_mod_against_fraction_oracle():
    for p in (5, 7, 11, 13, 17, 19, 23):
        for n in range(0, p - 1):
            q = bernoulli_fraction(n)
            assert q.denominator % p != 0  # von Staudt-Clausen keeps p out for n <= p-2... checked
            assert bernoulli_mod(n, p) == frac_mod(q, p)


def test_bernoulli_mod_rejects_large_n():
    with pytest.raises(ValueError):
        bernoulli_mod(6, 7)
    with pytest.raises(ValueError):
        bernoulli_mod(-1, 7)
    with pytest.raises(ValueError, match="p must be a prime"):
        bernoulli_mod(2, 9)


@pytest.mark.parametrize("n", [True, False, 2.0, "2", None])
def test_bernoulli_mod_refuses_an_n_that_is_not_an_int(n):
    # as Zk refuses such a weight; True read B_1 and 2.0 failed in the table lookup
    with pytest.raises(ValueError, match="integer"):
        bernoulli_mod(n, 7)


def test_odd_vanishing():
    for p in (7, 11, 13, 17):
        for n in range(3, p - 1, 2):
            assert bernoulli_mod(n, p) == 0


def test_Zk_examples():
    assert Zk(3, 7) == 1
    for p in sieve_primes(7, 60):
        assert Zk(2, p) == 0
    assert Zk(4, 11) == 0
    with pytest.raises(ValueError):
        Zk(1, 7)
    with pytest.raises(ValueError):
        Zk(3, 5)


@pytest.mark.parametrize("k", [3.0, True, "3", None])
def test_Zk_refuses_a_weight_that_is_not_an_int(k):
    # as check_index does for index entries: a float never reaches the kept table
    with pytest.raises(ValueError, match="integer k >= 2"):
        Zk(k, 101)


def test_L2_examples():
    assert L2(7) == 2
    assert L2(5) == 3
    # definition check against direct big-int computation
    for p in sieve_primes(5, 100):
        assert L2(p) == (2 ** (p - 1) - 1) // p % p


def test_Zk_matches_table_oracle():
    # Voronoi's congruence against the series-inversion table, every k at every prime
    for p in sieve_primes(5, 200):
        for k in range(2, p - 2):
            assert Zk(k, p) == bernoulli_mod(p - k, p) * mod_inv(k, p) % p


def test_Zk_matches_table_oracle_large_primes():
    for p in (1009, 1409):
        for k in (3, 5, 7, 9):
            assert Zk(k, p) == bernoulli_mod(p - k, p) * mod_inv(k, p) % p


def test_Zk_even_weight_vanishes():
    # p - k is odd, and B_n = 0 for odd n >= 3
    for p in sieve_primes(5, 200):
        for k in range(2, p - 2, 2):
            assert Zk(k, p) == 0


def test_Zk_matches_kummer_oracle():
    # the third-range sum against the power sum, every k at every prime: k ascending, so
    # every table is built afresh, then k descending, so each is derived from k + 2's
    # (afresh where k + 2's is too short: a = 3 there and a > 3 at k)
    for p in sieve_primes(5, 400):
        ks = range(2, p - 2)
        want = [kummer_oracle(k, p) for k in ks]
        assert [Zk(k, p) for k in ks] == want
        assert [Zk(k, p) for k in reversed(ks)] == want[::-1]


def test_Zk_kept_table_follows_its_prime_and_weight():
    # the kept table belongs to one prime: q = p + 2 at the same k, whose exponent is
    # p's + 2, must not derive from it; ascending and repeated weights, weights 4 below,
    # and even weights in between, leave every value as the oracle's
    p, q = 101, 103
    calls = [(9, p), (9, q), (7, p), (7, q), (5, q), (5, p), (3, p), (3, p), (9, p),
             (8, p), (7, p), (6, p), (5, p), (3, p), (7, p), (11, p), (7, p), (3, p),
             (9, p), (7, q)]
    assert [Zk(k, r) for k, r in calls] == [kummer_oracle(k, r) for k, r in calls]


def test_Zk_builds_one_table_per_prime_in_a_depth2_run(monkeypatch):
    # depth2 names Zk at k = 9, 7, 5, 3 (odd, so each sums powers); taken from the
    # largest down, each prime builds one table where one per call (216) were built.
    # Each table ends at floor(p/3), the cut of a = 3, and so never at a = 2's (p - 1)/2
    built, calls = [], []
    build, zk = bernoulli._power_table, ids.Zk

    def record(e, p, h):
        table = build(e, p, h)
        built.append((p, len(table)))
        return table

    monkeypatch.setattr(bernoulli, "_kept", [0, 0, []])
    monkeypatch.setattr(bernoulli, "_power_table", record)
    monkeypatch.setattr(ids, "Zk", lambda k, p: calls.append((k, p)) or zk(k, p))
    primes = sieve_primes(1000, 1400)
    rep = ids.SUITES["depth2"].run({"kmax": 9}, primes)
    assert rep.total == 1080 and rep.failed == 0
    assert len(calls) == 216 and len(set(calls)) == 216
    assert built == [(p, p // 3 + 1) for p in primes] and len(primes) == 54


@pytest.mark.parametrize("k, p, a", [(9, 41, 4), (13, 73, 4), (7, 13, 5), (19, 37, 5),
                                     (31, 61, 6)])
def test_Zk_takes_the_least_a_from_3_whose_a_to_the_k_minus_1_is_not_1(monkeypatch, k, p, a):
    # b^(k-1) = 1 mod p for 3 <= b < a, so b - b^k does not invert; the table ends at
    # the largest folded cut min(c, p - 1 - c), c = floor(i p / a)
    h = max(min(c, p - 1 - c) for c in (i * p // a for i in range(1, a)))
    assert [pow(b, k - 1, p) == 1 for b in range(3, a + 1)] == [True] * (a - 3) + [False]
    want = bernoulli_mod(p - k, p) * mod_inv(k, p) % p
    assert kummer_oracle(k, p) == want
    built, build = [], bernoulli._power_table
    monkeypatch.setattr(bernoulli, "_power_table",
                        lambda e, p, h: built.append(h) or build(e, p, h))
    # fresh: after nothing, and after k + 2 at the same prime, whose a = 3 table is too short
    for kept in ([0, 0, []], [p, p - 3 - k, build(p - 3 - k, p, p // 3)]):
        monkeypatch.setattr(bernoulli, "_kept", kept)
        assert Zk(k, p) == want and built.pop() == h and len(bernoulli._kept[2]) == h + 1
    # derived, with no table built: from any kept table at k + 2 that covers the cut
    # (a run leaves none, as a = 3 at k + 2), and at k - 2, where a = 3, from this
    # call's longer table, cut down to floor(p/3)
    monkeypatch.setattr(bernoulli, "_kept", [p, p - 3 - k, build(p - 3 - k, p, (p - 1) // 2)])
    assert Zk(k, p) == want and len(bernoulli._kept[2]) == h + 1
    assert Zk(k - 2, p) == kummer_oracle(k - 2, p) and len(bernoulli._kept[2]) == p // 3 + 1
    assert built == []


@pytest.mark.parametrize("p", [20011, 100003])
def test_Zk_matches_kummer_oracle_large_primes(p):
    # past bernoulli_mod's O(p^2) reach: the unpaired power sum mod p^2, one pow per m < p
    assert [Zk(k, p) for k in range(13, 2, -2)] == [kummer_oracle(k, p) for k in range(13, 2, -2)]


def test_Zk_matches_kummer_oracle_benchmark_primes():
    # every prime the depth2 benchmark's windows reach
    for p in sieve_primes(1000, 1450):
        for k in (3, 5, 7, 9):
            assert Zk(k, p) == kummer_oracle(k, p)


def test_Zk_small_half_ranges():
    # a = 3 at every odd k here, so the cut floor(p/3) is 2 at p = 7 and 3 at p = 11.
    # k = p - 4 is n = 4, the smallest even n and so the first k that sums powers; at
    # p = 5 that k is 1, so the only k is 2 (n = 3, odd).
    pinned = {5: [0], 7: [0, 1, 0], 11: [0, 5, 0, 1, 0, 10, 0]}  # Zk(k, p) for k = 2..p-3
    for p, values in pinned.items():
        ks = range(2, p - 2)
        assert [Zk(k, p) for k in ks] == values
        assert [kummer_oracle(k, p) for k in ks] == values
        assert [frac_mod(bernoulli_fraction(p - k) / k, p) for k in ks] == values
