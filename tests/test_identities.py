import csv
import io
import itertools
import json
import math
from fractions import Fraction

import pytest

import fmzv.evaluator as ev
import fmzv.identities as ids
from fmzv.evaluator import ResidueCache, value_of
from fmzv.harmonic import all_compositions
from fmzv.identities import (
    Case,
    Report,
    coeff_C,
    default_weighted_indices,
    ppt_constants,
    verify_antipode,
    verify_conj38,
    verify_depth2,
    verify_example24,
    verify_key_identity,
    verify_lemmas,
    verify_parity,
    verify_ppt,
    verify_prop21,
    verify_sum_formula,
    verify_weighted_perm,
)
from fmzv.bernoulli import L2, Zk
from fmzv.identities import SUITES, _one_odd_compositions, _prime_rows
from fmzv.modmath import mod_inv, sieve_primes

PRIMES = sieve_primes(5, 60)


def get_row(report, case, prime):
    hits = [c for c in report.cases if c.case == case and c.prime == prime]
    assert len(hits) == 1, "expected one row (%r, %r), got %d" % (case, prime, len(hits))
    return hits[0]


def test_coeff_C_examples():
    assert coeff_C((1, 2)) == -3
    assert coeff_C((2, 1)) == 3
    for k in range(1, 9):
        assert coeff_C((k,)) == 0
    # depth 2: (-1)^{k1} * C(k, k1)
    assert coeff_C((1, 3)) == -4
    assert coeff_C((2, 2)) == 6


def test_coeff_C_matches_prefix_enumeration():
    for index in all_compositions(7):
        k = sum(index)
        total = 0
        for j in range(1, len(index)):
            s = sum(index[:j])
            total += (-1) ** s * math.comb(k, s)
        assert coeff_C(index) == total


def test_coeff_C_reversal_sign():
    for w in range(1, 9):
        for index in all_compositions(w):
            assert coeff_C(tuple(reversed(index))) == (-1) ** w * coeff_C(index)


def test_prop21_passes_and_anchor():
    rep = verify_prop21(kmax=9, primes=PRIMES)
    assert rep.passed
    r = get_row(rep, "k=1", 7)
    assert r.lhs == r.rhs == "3"
    # even weights vanish on both sides
    assert get_row(rep, "k=4", 11).lhs == "0"


def test_depth2_passes_and_anchors():
    rep = verify_depth2(kmax=9, primes=PRIMES)
    assert rep.passed
    assert get_row(rep, "(1,2)", 7).lhs == "1"
    assert get_row(rep, "(2,1)", 7).lhs == "5"


def test_key_identity_passes_and_anchor():
    rep = verify_key_identity(wmax=6, primes=sieve_primes(5, 40))
    assert rep.passed
    assert get_row(rep, "(1,2)", 7).lhs == "3"


def test_parity_passes():
    rep = verify_parity(wmax=6, primes=sieve_primes(5, 40))
    assert rep.passed


def test_antipode_passes():
    rep = verify_antipode(dmax=4, wmax=7, primes=sieve_primes(5, 30))
    assert rep.passed
    sym = [c for c in rep.cases if c.prime is None]
    num = [c for c in rep.cases if c.prime is not None]
    assert sym and num
    assert all(c.rhs == "0" for c in rep.cases)


def test_example24_passes():
    rep = verify_example24(wmax=8, primes=sieve_primes(5, 40))
    assert rep.passed
    assert get_row(rep, "i (1,2)", 7).lhs == "1"


def test_sum_formula_passes_and_anchor():
    rep = verify_sum_formula(kmax=8, primes=sieve_primes(5, 40))
    assert rep.passed
    assert get_row(rep, "S(3,2)", 7).lhs == "6"
    # depth == weight forces the all-ones index
    r = get_row(rep, "S(4,4)", 11)
    assert r.lhs == str(value_of("zeta2", (1, 1, 1, 1), None, 11))


def test_one_odd_compositions_enumerator():
    for k in range(3, 10, 2):
        for r in range(1, (k + 1) // 2 + 1):
            for i in range(1, r + 1):
                got = sorted(_one_odd_compositions(k, r, i))
                want = sorted(
                    c
                    for c in all_compositions(k)
                    if len(c) == r
                    and c[i - 1] % 2 == 1
                    and all(c[j] % 2 == 0 for j in range(r) if j != i - 1)
                )
                assert got == want


def test_ppt_special_anchor():
    rep = verify_ppt(rmax=4, primes=sieve_primes(5, 100))
    assert rep.passed
    r = get_row(rep, "special r=2 i=1", 7)
    assert r.lhs == r.rhs == "1"


def test_ppt_constants_match_special_closed_form():
    primes = sieve_primes(5, 120)
    consts = ppt_constants(7, primes)
    for r in range(2, 5):
        k = 2 * r - 1
        for i in range(1, r + 1):
            want = Fraction((-1) ** (r - 1) * math.comb(2 * r - 1, 2 * i - 1), 2 ** (2 * r - 2))
            assert consts[(k, r, i)] == want
    # depth-1 pattern is the reference value itself
    assert consts[(5, 1, 1)] == 1


def test_ppt_constants_stable_across_prime_sets():
    a = sieve_primes(5, 150)
    b = sieve_primes(151, 350)
    ca = ppt_constants(7, a)
    cb = ppt_constants(7, b)
    assert ca == cb
    assert all(v is not None for v in ca.values())


def test_ppt_constants_min_weight_keeps_the_heavier_patterns():
    primes = sieve_primes(5, 120)
    full = ppt_constants(7, primes)
    assert ppt_constants(7, primes, min_weight=5) == {pat: c for pat, c in full.items()
                                                      if pat[0] >= 5}


def test_weighted_level1_passes_and_anchor():
    rep = verify_weighted_perm(1, indices=default_weighted_indices(1, wmax=6, dmax=3),
                               primes=sieve_primes(5, 40))
    assert rep.passed
    r = get_row(rep, "(1,2)", 7)
    assert r.lhs == r.rhs == "1"


def test_weighted_level2_passes_and_anchor():
    rep = verify_weighted_perm(2, indices=default_weighted_indices(2, wmax=7, dmax=3),
                               primes=sieve_primes(5, 40))
    assert rep.passed
    r = get_row(rep, "(2,1)", 7)
    assert r.lhs == r.rhs == "3"


def test_weighted_calls_Zk_once_per_weight_and_prime(monkeypatch):
    calls = []
    zk = ids.Zk
    monkeypatch.setattr(ids, "Zk", lambda k, p: calls.append((k, p)) or zk(k, p))
    rep = verify_weighted_perm(1, primes=sieve_primes(5, 60))
    assert rep.passed
    assert calls and len(calls) == len(set(calls))


def test_weighted1_calls_Zk_once_per_weight_and_prime_with_a_nonzero_C_sum(monkeypatch):
    calls = []
    zk = ids.Zk
    monkeypatch.setattr(ids, "Zk", lambda k, p: calls.append((k, p)) or zk(k, p))
    primes = sieve_primes(5, 60)
    assert verify_weighted_perm(1, primes=primes).passed
    weights = {sum(ix) for ix in default_weighted_indices(1)
               if sum(coeff_C(head + ix[-1:]) for head in itertools.permutations(ix[:-1]))}
    assert sorted(calls) == sorted((k, p) for k in weights for p in primes if p > k + 2)


def test_weighted_builds_terms_and_C_sum_once_per_index(monkeypatch):
    # both depend only on the index, so the number of primes must not matter
    terms, cs = [], []
    weighted_terms, coeff = ids._weighted_terms, ids.coeff_C
    monkeypatch.setattr(ids, "_weighted_terms", lambda ix: terms.append(ix) or weighted_terms(ix))
    monkeypatch.setattr(ids, "coeff_C", lambda ix: cs.append(ix) or coeff(ix))
    indices = default_weighted_indices(1)
    rep = verify_weighted_perm(1, primes=sieve_primes(5, 60))
    assert rep.passed
    assert sorted(terms) == sorted(indices)
    assert len(cs) == sum(math.factorial(len(ix) - 1) for ix in indices)


def test_weighted_level2_hypothesis_rejected():
    with pytest.raises(ValueError):
        verify_weighted_perm(2, indices=[(1, 3)], primes=(7,))
    with pytest.raises(ValueError):
        verify_weighted_perm(2, indices=[(2, 2)], primes=(7,))
    with pytest.raises(ValueError):
        verify_weighted_perm(3, primes=(7,))


def test_conj38_passes_and_anchor():
    rep = verify_conj38(rmax=6, primes=sieve_primes(5, 40))
    assert rep.passed
    r = get_row(rep, "r=2 a=1", 7)
    assert r.lhs == "0" and r.rhs == "0"


def test_lemmas_report():
    rep = verify_lemmas(g_kmax=8, r_wmax=6, r_dmax=3)
    assert rep.passed
    assert any(c.case.startswith("g ") for c in rep.cases)
    assert any(c.case.startswith("R ") for c in rep.cases)


def test_report_serialization_consistency():
    rep = verify_prop21(kmax=5, primes=(7, 11))
    doc = json.loads(rep.to_json())
    assert doc["suite"] == "prop21"
    assert doc["summary"] == {"total": rep.total, "passed": rep.total, "failed": 0}

    reader = csv.reader(io.StringIO(rep.to_csv()))
    rows = list(reader)
    assert rows[0] == ["case", "prime", "lhs", "rhs", "pass"]
    assert len(rows) == rep.total + 1
    for parsed, case_doc, c in zip(rows[1:], doc["cases"], rep.cases):
        assert parsed == [c.case, str(c.prime), c.lhs, c.rhs, "true"]
        assert case_doc == {"case": c.case, "prime": c.prime, "lhs": c.lhs,
                            "rhs": c.rhs, "pass": c.passed}

    text = rep.to_text()
    for c in rep.cases:
        assert c.case in text
    assert "suite prop21: %d cases, %d passed, 0 failed" % (rep.total, rep.total) in text


def test_report_failure_accounting():
    rep = Report(suite="demo", params={}, cases=[
        Case("a", 7, "1", "1", True),
        Case("b", None, "2", "3", False),
    ])
    assert not rep.passed
    assert rep.failed == 1
    assert '"pass": false' in rep.to_json()
    assert "FAIL" in rep.to_text()


def test_rows_sorted_canonically():
    rep = verify_depth2(kmax=7, primes=(11, 7, 13))
    keys = [(c.case, -1 if c.prime is None else c.prime) for c in rep.cases]
    assert keys == sorted(keys)


def test_parallel_matches_serial():
    serial = verify_prop21(kmax=7, primes=sieve_primes(5, 40), jobs=1)
    parallel = verify_prop21(kmax=7, primes=sieve_primes(5, 40), jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_cache_reuse_is_invisible(tmp_path):
    path = tmp_path / "cells.csv"
    cache = ResidueCache(path)
    cold = verify_depth2(kmax=7, primes=(11, 13), cache=cache)
    assert len(cache) > 0
    cache.close()

    warm_cache = ResidueCache(path)
    warm = verify_depth2(kmax=7, primes=(11, 13), cache=warm_cache)
    warm_cache.close()
    assert cold.to_json() == warm.to_json()


@pytest.mark.parametrize("name", [n for n, s in SUITES.items() if s.rows is not None])
def test_planned_cells_are_the_cells_the_rows_compute(monkeypatch, name):
    # one sweep per prime serves every computed cell: none falls back to a
    # one-cell sweep, no planned cell is left unread, and no cell is read twice
    suite = SUITES[name]
    args, _ = suite.resolve({})
    sweeps, computed = [], []
    sweep, compute = ev._sweep, ev.compute_cell
    monkeypatch.setattr(ev, "_sweep", lambda cells, p: sweeps.append(set(cells)) or sweep(cells, p))
    monkeypatch.setattr(ev, "compute_cell",
                        lambda *args: computed.append(args[:4]) or compute(*args))
    for p in PRIMES:
        sweeps.clear()
        computed.clear()
        _prime_rows(list(suite.rows(*args)), p, None)
        assert len(sweeps) <= 1
        assert len(computed) == len(set(computed))
        assert set(computed) == {(*cell, p) for cell in (sweeps[0] if sweeps else ())}


@pytest.mark.parametrize("name", [n for n, s in SUITES.items() if s.rows is not None])
def test_rows_are_built_once_per_run(name):
    suite = SUITES[name]
    calls = []

    def counting(*args):
        calls.append(args)
        return suite.rows(*args)

    assert suite._replace(rows=counting).run({}, PRIMES).passed
    assert len(calls) == 1


def test_prime_rows_checks_a_row_exactly_when_p_exceeds_its_weight_plus_two():
    rows = [("w3", 3, [(1, ("Zk", 3))], [(Fraction(1, 2), ("L2",))]),
            ("w5", 5, [(Fraction(1, 2),)], [(1, ("zeta2", (5,)))])]
    for p in (5, 7, 11, 13):
        cases = {c.case: c for c in _prime_rows(rows, p, None)}
        assert sorted(cases) == [name for name, k, _, _ in rows if p > k + 2]
        if "w3" in cases:
            assert cases["w3"].lhs == str(Zk(3, p))
            assert cases["w3"].rhs == str(mod_inv(2, p) * L2(p) % p)
        if "w5" in cases:
            assert cases["w5"].lhs == str(mod_inv(2, p))
            assert cases["w5"].rhs == str(value_of("zeta2", (5,), None, p))
        assert all(c.prime == p and c.passed == (c.lhs == c.rhs) for c in cases.values())


def test_ppt_sweeps_once_per_prime_and_weight(monkeypatch):
    # the per-prime rows take one sweep at each prime, and the reconstruction one
    # per (weight, prime) for the depth-1 reference and all patterns of that weight
    swept = []
    sweep = ev._sweep
    monkeypatch.setattr(ev, "_sweep", lambda cells, p: swept.append(p) or sweep(cells, p))
    assert verify_ppt(primes=PRIMES).passed
    args, _ = SUITES["ppt"].resolve({})
    weights = {k for k, _, _ in ids._one_odd_patterns(args[1])}
    for p in PRIMES:
        assert swept.count(p) <= 1 + sum(1 for k in weights if p > k + 2), p


def test_identical_runs_make_identical_sweeps(monkeypatch):
    # no table outlives a run: the second run sweeps as the first did
    swept = []
    sweep = ev._sweep
    monkeypatch.setattr(ev, "_sweep", lambda cells, p: swept.append(p) or sweep(cells, p))
    counts = []
    for _ in range(2):
        swept.clear()
        assert verify_key_identity(wmax=3, primes=[7]).passed
        counts.append(len(swept))
    assert counts == [1, 1]
