import copy
import math
import types
from fractions import Fraction

import pytest

import fmzv.bernoulli as bernoulli
import fmzv.evaluator as ev
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
    # as check_index does for index entries: a float never reaches the power table
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
    # the third-range sum against the power sum, every k at every prime, k ascending and
    # then descending: each call builds its own table, so the order changes nothing
    for p in sieve_primes(5, 400):
        ks = range(2, p - 2)
        want = [kummer_oracle(k, p) for k in ks]
        assert [Zk(k, p) for k in ks] == want
        assert [Zk(k, p) for k in reversed(ks)] == want[::-1]


def test_Zk_values_do_not_depend_on_call_order():
    # two primes two apart at the same k, ascending and repeated weights, weights 4
    # below, and even weights in between, leave every value as the oracle's
    p, q = 101, 103
    calls = [(9, p), (9, q), (7, p), (7, q), (5, q), (5, p), (3, p), (3, p), (9, p),
             (8, p), (7, p), (6, p), (5, p), (3, p), (7, p), (11, p), (7, p), (3, p),
             (9, p), (7, q)]
    assert [Zk(k, r) for k, r in calls] == [kummer_oracle(k, r) for k, r in calls]


def test_Zk_leaves_no_state():
    # every value the module holds, but its functions, imported modules and the
    # interpreter's builtins, is as it was after library calls at two primes, weights up
    # and down, and a pair with a > 3
    def state():
        return {name: v for name, v in vars(bernoulli).items() if name != "__builtins__"
                and not callable(v) and not isinstance(v, types.ModuleType)}

    before = copy.deepcopy(state())
    calls = [(3, 101), (9, 101), (5, 103), (11, 103), (7, 101), (3, 103), (7, 13), (5, 13)]
    assert [Zk(k, p) for k, p in calls] == [kummer_oracle(k, p) for k, p in calls]
    assert state() == before


def test_Zk_builds_no_table_in_a_depth2_run(monkeypatch):
    # depth2 names Zk at k = 9, 7, 5, 3 (odd, so each sums powers); a = 3 at every one of
    # the 216 (k, p) over 1000..1400, so each takes its third-range sum from the group
    # sweep and no power table is built
    built, calls = [], []
    build, zk = bernoulli._power_table, ids.Zk

    def record(e, p, h):
        table = build(e, p, h)
        built.append((p, len(table)))
        return table

    monkeypatch.setattr(bernoulli, "_power_table", record)
    monkeypatch.setattr(ids, "Zk", lambda k, p, third=None: calls.append((k, p)) or
                        zk(k, p, third))
    primes = sieve_primes(1000, 1400)
    rep = ids.SUITES["depth2"].run({"kmax": 9}, primes)
    assert rep.total == 1080 and rep.failed == 0
    assert len(calls) == 216 and len(set(calls)) == 216 and len(primes) == 54
    assert built == []


# the pairs (k, p) at which 3^(k-1) = 1 mod p, so that Zk takes an a > 3
A_ABOVE_3 = [(7, 13), (9, 41), (11, 61), (13, 73), (19, 37), (31, 61)]


def test_Zk_from_the_suite_route_matches_kummer_oracle(monkeypatch):
    # every odd k < p - 2 at every prime of 5..400, in the groups a suite sweeps them in:
    # Zk from the third-range sum the sweep reads, and at the pairs with a > 3 from a
    # table of its own, which is built there and nowhere else
    primes = sieve_primes(5, 400)
    rows = [("k=%d" % k, k, [(1, ("Zk", k))], []) for k in range(3, primes[-1] - 2, 2)]
    built, build = [], bernoulli._power_table
    monkeypatch.setattr(bernoulli, "_power_table",
                        lambda e, p, h: built.append((p - 1 - e, p)) or build(e, p, h))
    rep = ids.Suite("zk", (), rows=lambda: rows).run({}, primes)
    got = {(int(c.case[2:]), c.prime): int(c.lhs) for c in rep.cases}
    assert sorted(got) == sorted((k, p) for p in primes for k in range(3, p - 2, 2))
    assert got == {(k, p): kummer_oracle(k, p) for k, p in got}
    assert sorted(built) == sorted((k, p) for k, p in got if pow(3, k - 1, p) == 1)
    assert set(A_ABOVE_3) <= set(built)
    assert len(ev._groups(primes)) > 1


@pytest.mark.parametrize("k, p, a", [(9, 41, 4), (13, 73, 4), (7, 13, 5), (19, 37, 5),
                                     (31, 61, 6), (15, 1093, 4), (21, 1181, 4)])
def test_Zk_takes_the_least_a_from_3_whose_a_to_the_k_minus_1_is_not_1(monkeypatch, k, p, a):
    # b^(k-1) = 1 mod p for 3 <= b < a, so b - b^k does not invert; the table ends at
    # the largest folded cut min(c, p - 1 - c), c = floor(i p / a)
    h = max(min(c, p - 1 - c) for c in (i * p // a for i in range(1, a)))
    assert [pow(b, k - 1, p) == 1 for b in range(3, a + 1)] == [True] * (a - 3) + [False]
    want = bernoulli_mod(p - k, p) * mod_inv(k, p) % p
    assert kummer_oracle(k, p) == want
    built, build = [], bernoulli._power_table

    def record(e, q, cut):
        table = build(e, q, cut)
        built.append(len(table))
        return table

    monkeypatch.setattr(bernoulli, "_power_table", record)
    # two calls in a row each build a table of their own, up to the cut
    assert [Zk(k, p), Zk(k, p)] == [want, want] and built == [h + 1, h + 1]
    # at k - 2, where a = 3, a table up to floor(p/3), or none from a given sum
    built.clear()
    third = sum(pow(j, p - 1 - (k - 2), p) for j in range(1, p // 3 + 1)) % p
    assert Zk(k - 2, p) == kummer_oracle(k - 2, p) and built == [p // 3 + 1]
    built.clear()
    assert Zk(k - 2, p, third) == kummer_oracle(k - 2, p)
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
