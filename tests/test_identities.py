import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from cachecells import cells_of

import fmzv
import fmzv.evaluator as ev
import fmzv.identities as ids
from fmzv.evaluator import ResidueCache, value_of
from fmzv.harmonic import all_compositions, compositions
from fmzv.identities import (
    Case,
    Report,
    coeff_C,
    default_weighted_indices,
    ppt_constants,
)
from fmzv.bernoulli import L2, Zk
from fmzv.identities import SUITES, _listed, _one_odd_compositions, _prime_rows
from fmzv.modmath import mod_inv, sieve_primes
from fmzv.relations import _train_split

PRIMES = sieve_primes(5, 60)


def prime_rows(listed, p):
    """The Cases at p of the listed rows, through per_prime without a cache."""
    (cases,) = ev.per_prime(functools.partial(_prime_rows, listed), [p])
    return cases


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
    with pytest.raises(ValueError, match="depth >= 1"):
        coeff_C(())


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
    rep = SUITES["prop21"].run({"kmax": 9}, PRIMES)
    assert rep.passed
    r = get_row(rep, "k=1", 7)
    assert r.lhs == r.rhs == "3"
    # even weights vanish on both sides
    assert get_row(rep, "k=4", 11).lhs == "0"


def test_depth2_passes_and_anchors():
    rep = SUITES["depth2"].run({"kmax": 9}, PRIMES)
    assert rep.passed
    assert get_row(rep, "(1,2)", 7).lhs == "1"
    assert get_row(rep, "(2,1)", 7).lhs == "5"


def test_key_identity_passes_and_anchor():
    rep = SUITES["key"].run({"wmax": 6}, sieve_primes(5, 40))
    assert rep.passed
    assert get_row(rep, "(1,2)", 7).lhs == "3"


def test_parity_passes():
    rep = SUITES["parity"].run({"wmax": 6}, sieve_primes(5, 40))
    assert rep.passed


def test_antipode_passes():
    rep = SUITES["antipode"].run({"dmax": 4, "wmax": 7}, sieve_primes(5, 30))
    assert rep.passed
    sym = [c for c in rep.cases if c.prime is None]
    num = [c for c in rep.cases if c.prime is not None]
    assert sym and num
    assert all(c.rhs == "0" for c in rep.cases)


def test_example24_passes():
    rep = SUITES["example24"].run({"wmax": 8}, sieve_primes(5, 40))
    assert rep.passed
    assert get_row(rep, "i (1,2)", 7).lhs == "1"


def test_sum_formula_passes_and_anchor():
    rep = SUITES["sumformula"].run({"kmax": 8}, sieve_primes(5, 40))
    assert rep.passed
    assert get_row(rep, "S(3,2)", 7).lhs == "6"
    # depth == weight forces the all-ones index
    r = get_row(rep, "S(4,4)", 11)
    assert r.lhs == str(value_of("zeta2", (1, 1, 1, 1), None, 11))


def test_one_odd_compositions_enumerator():
    # in order, the compositions of k into r parts whose one odd part is part i; with
    # r - 1 even parts, r > (k + 1) / 2 leaves none
    for k in range(1, 22, 2):
        for r in range(1, k + 1):
            if 2 * r - 1 > k:
                assert all(_one_odd_compositions(k, r, i) == [] for i in range(1, r + 1))
                continue
            by_i = {i: [] for i in range(1, r + 1)}
            for c in compositions(k, r):
                odd = [j for j, x in enumerate(c, 1) if x % 2]
                if len(odd) == 1:
                    by_i[odd[0]].append(c)
            for i, want in by_i.items():
                assert _one_odd_compositions(k, r, i) == want, (k, r, i)


def test_ppt_special_anchor():
    rep = SUITES["ppt"].run({"rmax": 4}, sieve_primes(5, 100))
    assert rep.passed
    r = get_row(rep, "special r=2 i=1", 7)
    assert r.lhs == r.rhs == "1"


def _ppt_constants_up_to(wmax, primes):
    return {pat: c for k in range(3, wmax + 1, 2) for pat, c in ppt_constants(k, primes).items()}


def test_ppt_reconstruction_failure_fails_the_suite():
    # above 7, 5..13 leaves the training primes 11 and 13: too small a modulus for every
    # weight-5 constant
    rep = SUITES["ppt"].run({"rmax": 2}, sieve_primes(5, 13))
    row = get_row(rep, "pattern k=5 r=3 i=3", None)
    assert (row.lhs, row.rhs, row.passed) == ("reconstruction failed", "rational constant", False)
    assert not rep.passed


def test_ppt_constants_match_special_closed_form():
    primes = sieve_primes(5, 120)
    consts = _ppt_constants_up_to(7, primes)
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
    ca = _ppt_constants_up_to(7, a)
    cb = _ppt_constants_up_to(7, b)
    assert ca == cb
    assert all(v is not None for v in ca.values())


def test_ppt_constants_covers_one_weight_above_its_prime_floor():
    primes = sieve_primes(11, 120)
    for k in (3, 5, 7):
        consts = ppt_constants(k, primes)
        assert set(consts) == {(k, r, i) for r in range(1, (k + 1) // 2 + 1)
                               for i in range(1, r + 1)}
        assert all(c is not None for c in consts.values())
        # a prime p <= k + 2 is not used
        assert ppt_constants(k, [5, 7] + primes) == consts
        assert ppt_constants(k, [p for p in (5, 7) if p <= k + 2]) == dict.fromkeys(consts)
    with pytest.raises(ValueError):
        ppt_constants(6, primes)


def test_ppt_constants_takes_its_primes_as_build_matrix_does():
    # sorted and de-duplicated, and each one checked, also one below the floor
    primes = sieve_primes(11, 120)
    consts = ppt_constants(3, primes)
    assert ppt_constants(3, primes + primes[:2]) == ppt_constants(3, primes[::-1]) == consts
    for bad in ([4], primes + [9], [1]):
        with pytest.raises(ValueError, match="prime"):
            ppt_constants(3, bad)


def test_weighted_level1_passes_and_anchor():
    rep = SUITES["weighted1"].run({"indices": default_weighted_indices(1, wmax=6, dmax=3)},
                                  sieve_primes(5, 40))
    assert rep.passed
    r = get_row(rep, "(1,2)", 7)
    assert r.lhs == r.rhs == "1"


def test_weighted_level2_passes_and_anchor():
    rep = SUITES["weighted2"].run({"indices": default_weighted_indices(2, wmax=7, dmax=3)},
                                  sieve_primes(5, 40))
    assert rep.passed
    r = get_row(rep, "(2,1)", 7)
    assert r.lhs == r.rhs == "3"


def test_weighted_calls_Zk_once_per_weight_and_prime(monkeypatch):
    calls = []
    zk = ids.Zk
    monkeypatch.setattr(ids, "Zk", lambda k, p, third=None: calls.append((k, p)) or
                        zk(k, p, third))
    rep = SUITES["weighted1"].run({}, sieve_primes(5, 60))
    assert rep.passed
    assert calls and len(calls) == len(set(calls))


def test_weighted1_calls_Zk_once_per_weight_and_prime_with_a_nonzero_C_sum(monkeypatch):
    calls = []
    zk = ids.Zk
    monkeypatch.setattr(ids, "Zk", lambda k, p, third=None: calls.append((k, p)) or
                        zk(k, p, third))
    primes = sieve_primes(5, 60)
    assert SUITES["weighted1"].run({}, primes).passed
    weights = {sum(ix) for ix in default_weighted_indices(1)
               if sum(coeff_C(head + ix[-1:]) for head in itertools.permutations(ix[:-1]))}
    assert sorted(calls) == sorted((k, p) for k in weights for p in primes if p > k + 2)


def test_weighted_builds_terms_and_C_sum_once_per_index(monkeypatch):
    # both depend only on the index, so the number of primes must not matter
    terms, cs = [], []
    r_terms, coeff = ids.R_terms, ids.coeff_C
    monkeypatch.setattr(ids, "R_terms", lambda ix: terms.append(ix) or r_terms(ix))
    monkeypatch.setattr(ids, "coeff_C", lambda ix: cs.append(ix) or coeff(ix))
    indices = default_weighted_indices(1)
    rep = SUITES["weighted1"].run({}, sieve_primes(5, 60))
    assert rep.passed
    assert sorted(terms) == sorted(indices)
    assert len(cs) == sum(math.factorial(len(ix) - 1) for ix in indices)


@pytest.mark.parametrize("level", [0, 3, "1"])
def test_default_weighted_indices_rejects_a_level_other_than_1_or_2(level):
    with pytest.raises(ValueError, match="level must be 1 or 2"):
        default_weighted_indices(level, wmax=4, dmax=2)
    with pytest.raises(ValueError, match="level must be 1 or 2"):
        default_weighted_indices(level)


@pytest.mark.parametrize("name", ["weighted1", "weighted2"])
@pytest.mark.parametrize("index, message", [((), "empty index"),
                                            ((2, 2, 2, 2, 1), "depth > 4 rejected")])
def test_weighted_rejects_an_empty_or_too_deep_index(name, index, message):
    with pytest.raises(ValueError, match=message):
        SUITES[name].run({"indices": [index]}, (7,))


@pytest.mark.parametrize("primes", [(), (7, 11)])
@pytest.mark.parametrize("index", [(0, 1), (1.5, 1), (2, -1)])
def test_weighted_rejects_an_index_entry_that_is_not_a_positive_integer(primes, index):
    # checked before any row is built: with no primes the run used to return 0
    # cases, and over primes it failed in Zk or with a TypeError
    with pytest.raises(ValueError, match="index entries must be positive integers"):
        SUITES["weighted1"].run({"indices": [index]}, primes)


def test_render_table():
    rows = [("1,2", ""), ("333", "x")]
    assert ids.render_table(("a", "bb"), rows, "csv") == 'a,bb\n"1,2",\n333,x\n'
    assert ids.render_table(("a", "bb"), rows, "text") == "a    bb\n1,2\n333  x\n"
    assert ids.render_table(("a", "bb"), [], "text") == "a  bb\n"
    assert ids.render_table(("a", "bb"), [], "csv") == "a,bb\n"


def test_weighted_level2_hypothesis_rejected():
    with pytest.raises(ValueError):
        SUITES["weighted2"].run({"indices": [(1, 3)]}, (7,))
    with pytest.raises(ValueError):
        SUITES["weighted2"].run({"indices": [(2, 2)]}, (7,))


@pytest.mark.parametrize("name", sorted(SUITES))
def test_unknown_bound_is_rejected(name):
    # a misspelt bound would otherwise run the suite at its default
    with pytest.raises(ValueError, match="suite %s does not take wmx" % name):
        SUITES[name].run({"wmx": 3}, [7])


def test_run_sorts_and_deduplicates_its_primes():
    want = SUITES["prop21"].run({"kmax": 3}, [7, 11]).to_json()
    assert SUITES["prop21"].run({"kmax": 3}, [11, 7, 7]).to_json() == want


@pytest.mark.parametrize("name", sorted(SUITES))
def test_run_rejects_a_non_prime(name):
    # the check comes first, so the prime-free lemmas suite makes it too
    with pytest.raises(ValueError, match="p must be a prime >= 5, got 4"):
        SUITES[name].run({}, [4])


def test_conj38_passes_and_anchor():
    rep = SUITES["conj38"].run({"rmax": 6}, sieve_primes(5, 40))
    assert rep.passed
    r = get_row(rep, "r=2 a=1", 7)
    assert r.lhs == "0" and r.rhs == "0"


def test_lemmas_report():
    rep = SUITES["lemmas"].run({"g_kmax": 8, "r_wmax": 6, "r_dmax": 3})
    assert rep.passed
    assert any(c.case.startswith("g ") for c in rep.cases)
    assert any(c.case.startswith("R ") for c in rep.cases)


def test_report_serialization_consistency():
    rep = SUITES["prop21"].run({"kmax": 5}, (7, 11))
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
    rep = SUITES["depth2"].run({"kmax": 7}, (11, 7, 13))
    keys = [(c.case, -1 if c.prime is None else c.prime) for c in rep.cases]
    assert keys == sorted(keys)


def test_parallel_matches_serial(pools):
    serial = SUITES["prop21"].run({"kmax": 7}, sieve_primes(5, 40), jobs=1)
    parallel = SUITES["prop21"].run({"kmax": 7}, sieve_primes(5, 40), jobs=2)
    assert serial.to_json() == parallel.to_json()
    assert pools == [2]


def test_cache_reuse_is_invisible(tmp_path):
    path = tmp_path / "cells.csv"
    cache = ResidueCache(path)
    cold = SUITES["depth2"].run({"kmax": 7}, (11, 13), cache)
    assert len(cache) > 0
    cache.close()

    warm_cache = ResidueCache(path)
    warm = SUITES["depth2"].run({"kmax": 7}, (11, 13), warm_cache)
    warm_cache.close()
    assert cold.to_json() == warm.to_json()


@pytest.mark.parametrize("name", [n for n, s in SUITES.items() if s.rows is not None])
def test_planned_cells_are_the_cells_the_rows_compute(monkeypatch, name):
    # one sweep of the group serves every computed cell: none falls back to a one-cell
    # sweep, no planned cell is left unread, no cell is read twice, and a prime that
    # reads no cell is not swept
    suite = SUITES[name]
    args, _ = suite.resolve({})
    sweeps, computed = [], []
    sweep, compute = ev._sweep, ev.compute_cell

    def recording(cells, primes):
        tables = list(sweep(cells, primes))
        sweeps.append((list(primes), [set(cs) for cs in cells], tables))
        return iter(tables)
    monkeypatch.setattr(ev, "_sweep", recording)
    monkeypatch.setattr(ev, "compute_cell",
                        lambda *args: computed.append((args[:3], args[3])) or compute(*args))
    listed = _listed(suite.rows(*args), PRIMES)
    ev.per_prime(functools.partial(_prime_rows, listed), PRIMES)
    assert len(sweeps) == 1
    primes, cells, tables = sweeps[0]
    assert primes == [p for p in PRIMES if any(c[1] for c in _prime_rows(listed, p)[0])]
    for p, swept, table in zip(primes, cells, tables):
        read = [cell for cell, t in computed if t is table]
        assert len(read) == len(set(read))
        assert set(read) == swept, p
    assert len(computed) == sum(map(len, cells))


@pytest.mark.parametrize("name", [n for n, s in SUITES.items() if s.rows is not None])
def test_rows_are_built_once_per_run(name):
    suite = SUITES[name]
    calls = []

    def counting(*args):
        calls.append(args)
        return suite.rows(*args)

    assert suite._replace(rows=counting).run({}, PRIMES).passed
    assert len(calls) == 1


def test_listed_rows_name_their_factors_by_slot():
    # each distinct factor takes one slot, in first-named order, checked as a cell
    rows = [("a", 3, [(1, ("zeta2", (1, 2))), (2, ("Zk", 3), ("zeta", (3,)))], [(1, ("L2",))]),
            ("b", 2, [(1, ("zeta", (3,)), ("zeta2", (1, 2)))], [])]
    factors, listed = _listed(rows, (5, 7))
    assert factors == [("zeta2", (1, 2), None), ("Zk", 3), ("zeta", (3,), None), ("L2",)]
    assert listed == [("a", 3, [(1, (0,)), (2, (1, 2))], [(1, (3,))], (0, 1, 2, 3)),
                      ("b", 2, [(1, (2, 0))], [], (2, 0))]
    # a row no prime checks is dropped before it takes a slot
    assert _listed(rows, (5,)) == ([("zeta", (3,), None), ("zeta2", (1, 2), None)],
                                   [("b", 2, [(1, (0, 1))], [], (0, 1))])


def test_prime_rows_checks_a_row_exactly_when_p_exceeds_its_weight_plus_two():
    rows = [("w3", 3, [(1, ("Zk", 3))], [(Fraction(1, 2), ("L2",))]),
            ("w5", 5, [(Fraction(1, 2),)], [(1, ("zeta2", (5,)))])]
    for p in (5, 7, 11, 13):
        cases = {c.case: c for c in prime_rows(_listed(rows, (5, 7, 11, 13)), p)}
        assert sorted(cases) == [name for name, k, _, _ in rows if p > k + 2]
        if "w3" in cases:
            assert cases["w3"].lhs == str(Zk(3, p))
            assert cases["w3"].rhs == str(mod_inv(2, p) * L2(p) % p)
        if "w5" in cases:
            assert cases["w5"].lhs == str(mod_inv(2, p))
            assert cases["w5"].rhs == str(value_of("zeta2", (5,), None, p))
        assert all(c.prime == p and c.passed == (c.lhs == c.rhs) for c in cases.values())


def test_ppt_sweeps_once_per_prime_and_weight(monkeypatch):
    # the special rows take one group sweep of every prime, and each weight one sweep of
    # its training primes, of the depth-1 reference and all patterns of that weight, and
    # one of its held-out primes, of the check rows: each prime is swept once per weight
    # below p - 2, 89 prime sweeps in all, as when each prime took a sweep of its own
    swept = []
    sweep = ev._sweep
    monkeypatch.setattr(ev, "_sweep", lambda cells, primes: swept.append(list(primes)) or
                        sweep(cells, primes))
    assert SUITES["ppt"].run({}, PRIMES).passed
    args, _ = SUITES["ppt"].resolve({})
    want = [PRIMES]
    for k in range(3, args[1] + 1, 2):
        train, held = _train_split([p for p in PRIMES if p > k + 2])
        want += [train] + ([held] if held else [])
    assert swept == want
    assert len(swept) == 13
    assert sum(map(len, swept)) == 89


def test_warm_ppt_run_makes_no_sweep(tmp_path, monkeypatch):
    # a prime where the depth-1 reference vanishes is skipped, not swept, once the
    # cache holds that zero
    primes = sieve_primes(7, 211)
    path = tmp_path / "cells.csv"
    cache = ResidueCache(path)
    cold = SUITES["ppt"].run({}, primes, cache)
    cache.close()
    assert any(v == 0 and key[0] == "zeta2" and len(key[1]) == 1
               for key, v in cells_of(ResidueCache(path)._cells))
    # a prime whose cells the cache holds is read from its dict alone
    swept = []
    sweep = ev._sweep
    monkeypatch.setattr(ev, "_sweep", lambda cells, primes: swept.append(primes) or
                        sweep(cells, primes))
    warm_cache = ResidueCache(path)
    warm = SUITES["ppt"].run({}, primes, warm_cache)
    warm_cache.close()
    assert swept == []
    assert warm.to_json() == cold.to_json()


# sha256 of the key --wmax 4 and ppt --rmax 2 text reports over 5..60, run in that order
# over a partly warm cache, and of the cache file they leave, recorded before a prime's
# held cells were read from its dict: the report is the cold one, and the file ends with
# each missing cell, added in column order (a prime's compositions after a nonzero
# reference only)
PARTLY_WARM_REPORT = "3fcc6addfe220107f11d88d784850f6a5f432aa3568cec8a33b3c0c5a22321c6"
PARTLY_WARM_CACHE = {
    # ppt's cells held at 7, 13, ..., 53, so at 37, where zeta2(5) = 0
    1: "14721cf59fb0d8660a4c4839940ca484cfec0140a4e76e32d3580d50a3238d1f",
    # held at 5, 11, ..., 59, so 37's zero reference is computed, then cached alone
    0: "d3bd33ee73bd676e8445b506b4fdce82f80d9cb9cbbf847244501ecb6384556d",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("half", sorted(PARTLY_WARM_CACHE))
def test_partly_warm_cache_gives_the_cold_report_and_appends_in_column_order(
        tmp_path, pools, half, jobs):
    runs = (("key", {"wmax": 4}), ("ppt", {"rmax": 2}))
    lines = {}
    for name, bounds in runs:
        cold = ResidueCache(tmp_path / name)
        SUITES[name].run(bounds, PRIMES, cold)
        cold.close()
        lines[name] = (tmp_path / name).read_text().splitlines(keepends=True)
    assert "zeta2,5,,37,0\n" in lines["ppt"]
    # every other cell of key's, and all of ppt's at every other prime
    held = set(PRIMES[half::2])
    path = tmp_path / "partly.csv"
    path.write_text("".join(lines["key"][::2] + [
        line for line in lines["ppt"] if int(line.rsplit(",", 2)[1]) in held]))
    cache = ResidueCache(path)
    out = "".join(SUITES[name].run(bounds, PRIMES, cache, jobs).to_text()
                  for name, bounds in runs)
    cache.close()
    assert hashlib.sha256(out.encode()).hexdigest() == PARTLY_WARM_REPORT
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PARTLY_WARM_CACHE[half]
    assert pools == ([] if jobs == 1 else [2, 2])  # one per suite run
    # the cells of the two cold runs, which share some, each once
    assert len(ResidueCache(path)) == len(set(lines["key"] + lines["ppt"]))


def test_identical_runs_make_identical_sweeps(monkeypatch):
    # no table outlives a run: the second run sweeps as the first did
    swept = []
    sweep = ev._sweep
    monkeypatch.setattr(ev, "_sweep", lambda cells, primes: swept.append(primes) or
                        sweep(cells, primes))
    counts = []
    for _ in range(2):
        swept.clear()
        assert SUITES["key"].run({"wmax": 3}, [7]).passed
        counts.append(len(swept))
    assert counts == [1, 1]


def test_a_suite_run_checks_each_cell_it_names_once(monkeypatch):
    # the rows are listed once per run, which checks each cell they name, the empty
    # index too; no prime checks a cell again
    listed, swept = [], []
    check = ev.check_cell
    monkeypatch.setattr(ids, "check_cell", lambda *cell: listed.append(cell) or check(*cell))
    monkeypatch.setattr(ev, "check_cell", lambda *cell: swept.append(cell) or check(*cell))
    assert SUITES["key"].run({"wmax": 4}, PRIMES).passed
    named = {(v, ix, None) for *_, lhs, rhs in ids._key_rows(4)
             for term in (*lhs, *rhs) for v, ix in term[1:]}
    assert ("zeta2", (), None) in named
    assert sorted(listed) == sorted(named) and swept == []


@pytest.mark.parametrize("suite, bounds", [("key", {"wmax": True}), ("weighted2", {"dmax": 2.0}),
                                           ("key", {"wmax": "3"}), ("sumformula", {"kmax": 3.0})])
def test_a_bound_that_is_not_an_int_is_refused(suite, bounds):
    with pytest.raises(ValueError):
        SUITES[suite].run(bounds, PRIMES)


def test_a_ppt_run_builds_each_pattern_once(monkeypatch):
    # a pattern (k, r, i) is built from the compositions of (k + 1) / 2 into r parts, once
    # for ppt_constants and the held-out rows alike
    built = []
    comps = ids.compositions
    monkeypatch.setattr(ids, "compositions", lambda *args: built.append(args) or comps(*args))
    ids._one_odd_compositions.cache_clear()
    assert SUITES["ppt"].run({"rmax": 3}, PRIMES).total
    patterns = [(k, r, i) for k in (3, 5, 7) for r in range(1, (k + 1) // 2 + 1)
                for i in range(1, r + 1)]
    assert sorted(built) == sorted(((k + 1) // 2, r) for k, r, _ in patterns)


def test_weighted_sums_C_only_for_a_row_some_prime_checks(monkeypatch):
    # the C sum of a weight-2 000 001 index spends minutes in math.comb, and no prime
    # of the run checks its row
    summed = []
    coeff = ids.coeff_C

    def counted(index):
        assert sum(index) < 100, "C summed for a row that no prime checks"
        return summed.append(index) or coeff(index)

    monkeypatch.setattr(ids, "coeff_C", counted)
    both = SUITES["weighted1"].run({"indices": [(2, 1), (10 ** 6, 10 ** 6, 1)]}, PRIMES)
    assert both.cases == SUITES["weighted1"].run({"indices": [(2, 1)]}, PRIMES).cases
    assert summed == [(2, 1)] * 2


def test_weighted_run_of_an_index_no_prime_checks_returns_at_once():
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "from fmzv.identities import SUITES; t = time.perf_counter(); "
            "rep = SUITES['weighted1'].run({'indices': [(10 ** 6, 10 ** 6, 1)]}, [5, 7]); "
            "print(rep.total, time.perf_counter() - t < 1)")
    src = os.path.dirname(os.path.dirname(fmzv.__file__))
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=30)
    assert (done.returncode, done.stdout) == (0, "0 True\n"), done.stderr
