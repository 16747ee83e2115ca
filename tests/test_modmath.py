import math
import random
from fractions import Fraction

import pytest

from fmzv.modmath import (
    batch_inv,
    crt_combine,
    is_prime,
    mod_inv,
    rat_reconstruct,
    sieve_primes,
)


def trial_division_primes(lo, hi):
    # independent oracle: plain trial division
    out = []
    for n in range(lo, hi + 1):
        if n < 2:
            continue
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_sieve_examples():
    assert sieve_primes(5, 20) == [5, 7, 11, 13, 17, 19]
    assert sieve_primes(23, 23) == [23]
    assert sieve_primes(24, 28) == []


def test_sieve_against_trial_division():
    assert sieve_primes(5, 1000) == trial_division_primes(5, 1000)
    assert sieve_primes(900, 1100) == trial_division_primes(900, 1100)


def test_sieve_rejects_bad_range():
    with pytest.raises(ValueError):
        sieve_primes(3, 20)
    with pytest.raises(ValueError):
        sieve_primes(11, 7)


def test_is_prime_small():
    known = set(trial_division_primes(2, 2000))
    for n in range(-3, 2000):
        assert is_prime(n) == (n in known)


def test_is_prime_matches_trial_division_past_41_squared():
    # is_prime answers n < 41^2 from trial division alone; 37^2, 41^2 and 41*43 straddle that
    known = set(trial_division_primes(2, 20000))
    for n in range(-5, 20001):
        assert is_prime(n) == (n in known), n


def test_mod_inv_examples():
    assert mod_inv(2, 7) == 4
    assert mod_inv(3, 5) == 2
    assert mod_inv(-1, 11) == 10
    with pytest.raises(ZeroDivisionError):
        mod_inv(0, 7)
    with pytest.raises(ZeroDivisionError):
        mod_inv(35, 7)


def test_mod_inv_round_trip():
    for p in (5, 7, 101, 997):
        for a in range(1, min(p, 60)):
            assert a * mod_inv(a, p) % p == 1


def test_batch_inv_matches_mod_inv():
    rng = random.Random(0)
    for p in (5, 13, 101, 4099):
        vals = [rng.randrange(1, p) for _ in range(50)]
        assert batch_inv(vals, p) == [mod_inv(v, p) for v in vals]


def test_batch_inv_edge_cases():
    assert batch_inv([], 7) == []
    assert batch_inv([3], 7) == [5]
    with pytest.raises(ZeroDivisionError) as err:
        batch_inv([1, 2, 14, 3], 7)
    assert "2" in str(err.value)


def test_crt_examples():
    assert crt_combine([(2, 5), (5, 7)]) == (12, 35)
    assert crt_combine([(3, 11)]) == (3, 11)
    assert crt_combine([]) == (0, 1)
    with pytest.raises(ValueError):
        crt_combine([(1, 5), (2, 5)])


def test_crt_reduces_to_inputs():
    rng = random.Random(1)
    primes = [5, 7, 11, 13, 17]
    for _ in range(25):
        pairs = [(rng.randrange(p), p) for p in primes]
        R, M = crt_combine(pairs)
        assert M == math.prod(primes)
        assert 0 <= R < M
        for r, p in pairs:
            assert R % p == r


def test_rat_reconstruct_examples():
    assert rat_reconstruct(12, 35) == Fraction(1, 3)
    assert rat_reconstruct(34, 35) == Fraction(-1, 1)
    assert rat_reconstruct(0, 10**6) == Fraction(0, 1)


def test_rat_reconstruct_round_trip():
    _, M = crt_combine([(0, p) for p in sieve_primes(5, 60)])
    bound = math.isqrt(M // 2)
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randrange(-bound, bound + 1)
        d = rng.randrange(1, bound + 1)
        g = math.gcd(abs(n), d)
        n, d = n // g, d // g
        if math.gcd(d, M) != 1:
            continue
        R = n * pow(d, -1, M) % M
        assert rat_reconstruct(R, M) == Fraction(n, d)


def test_rat_reconstruct_none_when_no_small_rational():
    # brute-force oracle: no n/d with |n|, d <= sqrt(101/2) hits R = 10 mod 101
    M, R = 101, 10
    bound = math.isqrt(M // 2)
    hits = [
        (n, d)
        for d in range(1, bound + 1)
        for n in range(-bound, bound + 1)
        if math.gcd(abs(n), d) == 1 and n % M == R * d % M
    ]
    assert hits == []
    assert rat_reconstruct(R, M) is None


@pytest.mark.parametrize("M", [1, 0, -5])
def test_rat_reconstruct_needs_modulus_two(M):
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        rat_reconstruct(3, M)


def test_rat_reconstruct_denominator_is_always_prime_to_the_modulus():
    # r = s*M + t*R along the Euclid run, so a factor of t and M divides r too: the
    # gcd(r, t) == 1 test already gives gcd(t, M) == 1, over any modulus (composite
    # and even ones included), and every answer is a genuine reconstruction
    for M in range(2, 400):
        bound = math.isqrt(M // 2)
        for R in range(M):
            q = rat_reconstruct(R, M)
            if q is not None:
                assert math.gcd(q.denominator, M) == 1
                assert abs(q.numerator) <= bound and q.denominator <= bound
                assert (q.numerator - R * q.denominator) % M == 0
