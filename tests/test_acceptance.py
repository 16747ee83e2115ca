"""Acceptance gate: one test (and one verdict line under pytest -v) per criterion.

Every comparison is exact; there are no tolerances anywhere.  Bounds follow
the library defaults: weight-guarded suites, primes filtered to p > weight+2
inside each suite.
"""

import contextlib
import io
import json
from fractions import Fraction

from fmzv.bernoulli import L2, Zk
from fmzv.cli import main
from fmzv.evaluator import (
    eval_even_form,
    eval_odd_form,
    eval_zeta2,
)
from fmzv.harmonic import all_compositions
from fmzv.identities import SUITES, default_weighted_indices, ppt_constants
from fmzv.modmath import sieve_primes
from fmzv.relations import dimension_estimate, express_in_basis, fib

P300 = sieve_primes(5, 300)
P200 = sieve_primes(5, 200)
P100 = sieve_primes(5, 100)


def _row(report, case, prime):
    hits = [c for c in report.cases if c.case == case and c.prime == prime]
    assert len(hits) == 1
    return hits[0]


def _done(n, label):
    print("ACCEPTANCE %02d PASS: %s" % (n, label))


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_criterion_01_depth1_closed_forms():
    rep = SUITES["prop21"].run({"kmax": 9}, P300)
    assert rep.passed and rep.total > 0
    assert _row(rep, "k=1", 7).lhs == "3"
    assert L2(7) == 2
    assert Zk(3, 7) == 1
    for k in (2, 4, 6, 8):
        assert _row(rep, "k=%d" % k, 11).lhs == "0"
    _done(1, "depth-1 closed forms, k <= 9, primes <= 300")


def test_criterion_02_depth2_closed_form():
    rep = SUITES["depth2"].run({"kmax": 9}, P300)
    assert rep.passed and rep.total > 0
    assert _row(rep, "(1,2)", 7).lhs == "1"
    assert _row(rep, "(2,1)", 7).lhs == "5"
    _done(2, "depth-2 closed form, odd weights <= 9, primes <= 300")


def test_criterion_03_key_and_parity():
    rep = SUITES["key"].run({"wmax": 7}, P200)
    assert rep.passed and rep.total > 0
    rep2 = SUITES["parity"].run({"wmax": 7}, P200)
    assert rep2.passed and rep2.total > 0
    _done(3, "key and parity identities, weight <= 7, primes <= 200")


def test_criterion_04_antipode():
    rep = SUITES["antipode"].run({"dmax": 5, "wmax": 8}, P100)
    assert rep.passed
    assert any(c.prime is None for c in rep.cases)
    assert any(c.prime is not None for c in rep.cases)
    _done(4, "antipode sums vanish symbolically and mod p <= 100")


def test_criterion_05_even_odd_rewrites():
    checked = 0
    for w in range(1, 7):
        for index in all_compositions(w):
            for p in (q for q in P200 if q > w + 2):
                want = eval_zeta2(index, p)
                assert eval_even_form(index, p) == want
                assert eval_odd_form(index, p) == want
                checked += 1
    assert checked
    _done(5, "even/odd rewrites equal the level-2 value, weight <= 6")


def test_criterion_06_symbolic_lemmas():
    rep = SUITES["lemmas"].run({"g_kmax": 10, "r_wmax": 8, "r_dmax": 4})
    assert rep.passed and rep.total > 0
    _done(6, "both symbolic recursions, g for k <= 10 and R for depth <= 4")


def test_criterion_07_sum_formulas():
    rep = SUITES["sumformula"].run({"kmax": 10}, P200)
    assert rep.passed and rep.total > 0
    assert _row(rep, "S(3,2)", 7).lhs == "6"
    _done(7, "fixed-depth sum formulas, 1 <= r <= k <= 10, primes <= 200")


def test_criterion_08_ppt_and_constant_stability():
    rep = SUITES["ppt"].run({"rmax": 6}, P200)
    assert rep.passed and rep.total > 0
    low, high = ({pat: c for k in range(3, 10, 2) for pat, c in ppt_constants(k, primes).items()}
                 for primes in (P200, sieve_primes(201, 400)))
    assert low == high
    assert all(v is not None for v in low.values())
    assert low[(3, 2, 1)] == Fraction(-3, 4)
    _done(8, "one-odd pattern constants, rmax 6, stable across prime sets")


def test_criterion_09_weighted_permutation_sums():
    rep1 = SUITES["weighted1"].run({"indices": default_weighted_indices(1, wmax=8, dmax=4)},
                                   P200)
    assert rep1.passed and rep1.total > 0
    r = _row(rep1, "(1,2)", 7)
    assert r.lhs == r.rhs == "1"
    rep2 = SUITES["weighted2"].run({"indices": default_weighted_indices(2, wmax=9, dmax=4)},
                                   P200)
    assert rep2.passed and rep2.total > 0
    r = _row(rep2, "(2,1)", 7)
    assert r.lhs == r.rhs == "3"
    _done(9, "weighted permutation sums, levels 1 and 2, primes <= 200")


def test_criterion_10_conjecture_vanishing():
    rep = SUITES["conj38"].run({"rmax": 8}, P200)
    assert rep.passed and rep.total > 0
    r = _row(rep, "r=2 a=1", 7)
    assert r.lhs == "0"
    _done(10, "weighted {1,2}-sums vanish for r <= 8, primes <= 200")


def test_criterion_11_basis_experiments():
    for w in (3, 4, 5):
        basis = [("zeta2", ix) for ix in all_compositions(w) if all(x % 2 for x in ix)]
        basis_indices = {ix for _, ix in basis}
        usable = [p for p in sieve_primes(5, 400) if p > w + 2]
        set_a, set_b = usable[0::2], usable[1::2]
        for ix in all_compositions(w):
            if ix in basis_indices:
                continue
            ea = express_in_basis(("zeta2", ix), basis, set_a)
            eb = express_in_basis(("zeta2", ix), basis, set_b)
            assert ea is not None and ea == eb, (w, ix)
    anchor_primes = [p for p in P200 if p > 5]
    anchors = express_in_basis(("zeta2", (2, 1)),
                               [("zeta2", (3,)), ("zeta2", (1, 1, 1))], anchor_primes)
    assert anchors == [Fraction(-1, 4), 0]
    anchors = express_in_basis(("zeta2", (1, 2)),
                               [("zeta2", (3,)), ("zeta2", (1, 1, 1))], anchor_primes)
    assert anchors == [Fraction(-3, 4), 0]
    for k in range(1, 7):
        primes = [p for p in P300 if p > k + 2]
        m, dim = dimension_estimate(k, primes=primes)
        assert dim == fib(k), (k, dim)
    _done(11, "odd-basis expression stable across prime sets; dims match fib")


def test_criterion_12_determinism(tmp_path, pools):
    cache = str(tmp_path / "acc.csv")
    args = ("--cache", cache, "verify", "--suite", "depth2", "--kmax", "7",
            "--primes", "5..60", "--format", "json")
    code1, out1 = _cli(*args)
    code2, out2 = _cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2

    pargs = ("verify", "--suite", "prop21", "--kmax", "7", "--primes", "5..60",
             "--format", "json")
    code1, serial = _cli(*pargs)
    code2, parallel = _cli("--jobs", "2", *pargs)
    assert code1 == code2 == 0
    assert serial == parallel
    assert pools == [2]
    assert json.loads(serial)["summary"]["failed"] == 0
    _done(12, "warm-cache and parallel runs byte-identical")
