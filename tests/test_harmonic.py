import itertools
import random
from fractions import Fraction

import pytest

from fmzv.evaluator import ResidueCache, eval_zeta, eval_zeta2, eval_zeta2_star
from fmzv.harmonic import (
    IndexCombination,
    all_compositions,
    antipode_sum,
    compositions,
    evaluate_combination,
    gen_R,
    gen_g,
    gen_g1,
    lemma_R_check,
    lemma_g_check,
    star_expand,
    stuffle,
)

T = IndexCombination.term


def indices_up_to(max_weight, max_depth=99):
    out = []
    for k in range(1, max_weight + 1):
        out.extend(c for c in all_compositions(k) if len(c) <= max_depth)
    return out


def test_combination_basics():
    a = T((1, 2)) + 2 * T((3,))
    assert a.coeff((3,)) == 2
    assert a.coeff((1, 2)) == 1
    assert a.coeff((2, 1)) == 0
    assert (a - a).is_zero()
    assert a.terms() == [((3,), Fraction(2)), ((1, 2), Fraction(1))]
    assert str(IndexCombination.zero()) == "0"
    assert str(T((1, 2)) - Fraction(3, 2) * T((3,))) == "-3/2*[3] + [1,2]"


def test_stuffle_examples():
    assert stuffle(T((2,)), T((3,))) == T((2, 3)) + T((3, 2)) + T((5,))
    x = T((1, 2)) - 3 * T((4,))
    assert stuffle(IndexCombination.unit(), x) == x
    assert stuffle(T((1,)), T((1,))) == 2 * T((1, 1)) + T((2,))


def brute_stuffle_words(u, v):
    # independent oracle: interleave-with-merges enumeration
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, c in brute_stuffle_words(u[1:], v).items():
        out[(u[0],) + w] = out.get((u[0],) + w, 0) + c
    for w, c in brute_stuffle_words(u, v[1:]).items():
        out[(v[0],) + w] = out.get((v[0],) + w, 0) + c
    for w, c in brute_stuffle_words(u[1:], v[1:]).items():
        out[(u[0] + v[0],) + w] = out.get((u[0] + v[0],) + w, 0) + c
    return out


def test_stuffle_commutative_associative():
    rng = random.Random(4)
    words = indices_up_to(4)
    for _ in range(40):
        u, v = rng.choice(words), rng.choice(words)
        assert stuffle(T(u), T(v)) == stuffle(T(v), T(u))
        assert stuffle(T(u), T(v)) == IndexCombination(brute_stuffle_words(u, v))
    for _ in range(15):
        u, v, w = (rng.choice(indices_up_to(3)) for _ in range(3))
        a, b, c = T(u), T(v), T(w)
        assert stuffle(stuffle(a, b), c) == stuffle(a, stuffle(b, c))


def test_star_expand_examples():
    assert star_expand((4,)) == T((4,))
    assert star_expand((1, 2)) == T((1, 2)) + T((3,))
    assert star_expand((1, 1, 1)) == T((1, 1, 1)) + T((2, 1)) + T((1, 2)) + T((3,))
    assert star_expand(()) == IndexCombination.unit()
    # term count is 2^(r-1)
    for index in [(1, 2, 3, 4), (2, 2, 2)]:
        total = sum(abs(c) for _, c in star_expand(index).terms())
        assert total == 2 ** (len(index) - 1)


def test_star_expand_matches_star_evaluation():
    for p in (5, 7, 11, 13):
        for index in indices_up_to(5):
            expanded = evaluate_combination(star_expand(index), "zeta2", p)
            assert expanded == eval_zeta2_star(index, p)


def test_antipode_symbolic():
    assert antipode_sum((4,)).is_zero()
    assert antipode_sum((1, 2)).is_zero()
    for index in indices_up_to(8, max_depth=5):
        assert antipode_sum(index).is_zero()
    with pytest.raises(ValueError):
        antipode_sum(())


def test_antipode_numeric():
    # direct alternating product check at p=7, independently of the symbols
    index = (1, 2)
    p = 7
    total = 0
    for j in range(len(index) + 1):
        pref = tuple(reversed(index[:j]))
        suff = index[j:]
        total += (-1) ** j * eval_zeta2(pref, p) * eval_zeta2_star(suff, p)
    assert total % p == 0


def test_compositions():
    assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 1)) == [(3,)]
    assert sorted(compositions(6, 2, min_part=2)) == [(2, 4), (3, 3), (4, 2)]
    assert len(list(all_compositions(6))) == 2 ** 5


def test_gen_g_examples():
    assert gen_g(3, 2, 1) == T((1, 2)) + T((2, 1))
    assert gen_g(4, 2, 0) == T((1, 3)) + T((3, 1))
    assert gen_g1(6, 2, 0) == T((3, 3))
    assert gen_g(5, 2, 0).is_zero()
    with pytest.raises(ValueError):
        gen_g(3, 4, 0)


def test_lemma_g_examples():
    assert lemma_g_check(5, 2, 0)
    assert lemma_g_check(4, 1, 0)
    assert lemma_g_check(7, 2, 1)
    assert lemma_g_check(9, 3, 1)


def test_lemma_g_full_range():
    for k in range(1, 11):
        for r in range(1, k + 1):
            for a in range(0, r + 1):
                assert lemma_g_check(k, r, a), (k, r, a)


def test_gen_R_examples():
    assert gen_R((1, 2)) == T((2, 1)) - T((1, 2))
    assert gen_R((5,)).is_zero()
    rr = gen_R((1, 1, 2))
    # six permutations with per-permutation weights in {2,0,-2}; the two
    # identical 1-entries make coinciding tuples, so stored coeffs are +-4
    assert rr == 4 * T((2, 1, 1)) - 4 * T((1, 1, 2))
    coeffs = {c for _, c in gen_R((1, 2, 3)).terms()}
    assert coeffs <= {-2, 0, 2} - {0}


def test_lemma_R():
    assert lemma_R_check((1, 2))
    assert lemma_R_check((1, 1, 1))
    assert lemma_R_check((1, 2, 3))
    for index in indices_up_to(8, max_depth=4):
        if len(index) >= 2:
            assert lemma_R_check(index), index
    with pytest.raises(ValueError):
        lemma_R_check((3,))


def test_evaluate_combination():
    for p in (5, 7, 11):
        prod = stuffle(T((2,)), T((3,)))
        assert evaluate_combination(prod, "zeta2", p) == eval_zeta2((2,), p) * eval_zeta2((3,), p) % p
        assert evaluate_combination(IndexCombination.zero(), "zeta", p) == 0
    assert evaluate_combination(star_expand((1, 2)), "zeta2", 7) == 2


def test_evaluate_combination_stuffle_compat():
    rng = random.Random(5)
    words = indices_up_to(4)
    for p in (7, 11):
        for _ in range(20):
            u, v = rng.choice(words), rng.choice(words)
            for variant, ev in (("zeta", eval_zeta), ("zeta2", eval_zeta2)):
                lhs = evaluate_combination(stuffle(T(u), T(v)), variant, p)
                assert lhs == ev(u, p) * ev(v, p) % p


def test_evaluate_combination_denominator_error():
    comb = Fraction(1, 7) * T((2,))
    with pytest.raises(ValueError) as err:
        evaluate_combination(comb, "zeta2", 7)
    assert "1/7" in str(err.value)
    with pytest.raises(ValueError):
        evaluate_combination(comb, "euler", 11)


def test_evaluate_combination_checks_every_denominator_before_reading_a_value():
    # the first term's value is not read, nor cached, before the second term's 1/7 is refused
    comb = IndexCombination({(1,): 1, (2,): Fraction(1, 7)})
    cache = ResidueCache()
    with pytest.raises(ValueError, match="1/7"):
        evaluate_combination(comb, "zeta2", 7, cache)
    assert len(cache) == 0


def test_combination_equality_hash_and_truth():
    a = T((1, 2)) - T((3,))
    assert (a == 3) is False and a != 3
    assert a and not IndexCombination.zero()
    b = IndexCombination({(3,): -1, (1, 2): 1})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, T((3,))}) == 2


def test_combination_str_of_a_minus_one_coefficient():
    assert str(T((1, 2)) - T((3,))) == "-[3] + [1,2]"
    assert str(-T((2, 1))) == "-[2,1]"


def test_combination_product_is_the_stuffle():
    a = T((1, 2)) + Fraction(1, 3) * T((2,))
    b = T((3,)) - T((1, 1))
    assert a * b == stuffle(a, b)
    assert a * IndexCombination.unit() == a


def test_merge_drops_cancelled_terms():
    # terms that cancel leave no index behind, whichever route built them
    assert IndexCombination([((1,), 1), ((1,), -1)]).terms() == []
    assert (T((1,)) + T((2,)) - T((1,))).terms() == [((2,), Fraction(1))]
    assert (stuffle(T((1,)), T((2,))) - stuffle(T((2,)), T((1,)))).is_zero()


def test_gen_R_needs_depth_one():
    with pytest.raises(ValueError, match="depth >= 1"):
        gen_R(())
