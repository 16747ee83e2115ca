import hashlib
import json
import re
from fractions import Fraction
from functools import partial

import pytest

import fmzv.evaluator as ev
from fmzv.evaluator import eval_euler, eval_zeta, eval_zeta2, eval_zeta2_star
from fmzv.harmonic import all_compositions
from fmzv.lattice import congruence_cut, hnf, hnf_contains
from fmzv.modmath import sieve_primes
from fmzv.relations import (
    AmbiguousRelationError,
    build_matrix,
    descriptor_str,
    dimension_estimate,
    dseq,
    express_in_basis,
    fib,
    normalize_descriptor,
    relation_lattice,
)

W3 = [("zeta2", ix) for ix in all_compositions(3)]


def test_normalize_descriptor():
    assert normalize_descriptor(("zeta2", (1, 2))) == ("zeta2", (1, 2), None)
    assert normalize_descriptor(("euler", (2,), (-1,))) == ("euler", (2,), (-1,))
    with pytest.raises(ValueError):
        normalize_descriptor(("euler", (2,), "-"))  # signs are a +/-1 vector, not a string
    with pytest.raises(ValueError):
        normalize_descriptor(("zeta2", (1, 2), (1, 1)))
    with pytest.raises(ValueError):
        normalize_descriptor(("euler", (1, 2)))
    with pytest.raises(ValueError):
        normalize_descriptor(("nope", (1,)))
    with pytest.raises(ValueError):
        normalize_descriptor(("zeta2", 5))  # an index is a sequence, not an int
    with pytest.raises(ValueError):
        normalize_descriptor(("euler", (2,), -1))
    for desc in [("zeta2",), ("euler", (1,), (1,), None)]:
        with pytest.raises(ValueError, match="descriptor must be"):
            normalize_descriptor(desc)
    assert descriptor_str(("euler", (1, 2), (1, -1))) == "euler(1,2;+,-)"
    assert descriptor_str(("zeta", (3,))) == "zeta(3)"


def test_build_matrix_weight3_row():
    m = build_matrix(W3, [7])
    assert [d[1] for d in m.columns] == [(3,), (1, 2), (2, 1), (1, 1, 1)]
    row = m.cells[m.primes.index(7)]
    assert row == (1, 1, 5, eval_zeta2((1, 1, 1), 7))
    assert row[3] == 6


def test_build_matrix_parallel_matches_serial(pools):
    descs = [("zeta", ix) for ix in all_compositions(4)] + [("euler", (1, 2), (1, -1))]
    primes = sieve_primes(7, 60)
    serial = build_matrix(descs, primes)
    assert build_matrix(descs, primes, jobs=2) == serial
    assert pools == [2]


def test_build_matrix_single_cell_and_errors():
    m = build_matrix([("zeta2", (3,))], [7])
    assert len(m.columns) == 1 and len(m.primes) == 1
    with pytest.raises(ValueError):
        build_matrix([], [7])
    with pytest.raises(ValueError):
        build_matrix([("zeta2", (3,))], [])
    with pytest.raises(ValueError):
        build_matrix([("zeta2", (3,))], [7, 9])


def test_build_matrix_below_the_floor_matches_the_oracles():
    # build_matrix evaluates at any prime; p > weight + 2 is the relation engine's rule
    oracles = {("zeta", (2, 3), None): partial(eval_zeta, (2, 3)),
               ("zeta2", (5,), None): partial(eval_zeta2, (5,)),
               ("zeta2star", (1, 4), None): partial(eval_zeta2_star, (1, 4)),
               ("euler", (3, 2), (-1, 1)): partial(eval_euler, (3, 2), (-1, 1))}
    m = build_matrix(oracles, [7, 5])
    assert m.primes == (5, 7)
    assert m.cells == tuple(tuple(oracles[d](p) for d in m.columns) for p in m.primes)


def test_relation_engine_enforces_the_floor():
    msg = re.escape("smallest prime 7 must exceed max weight + 2 = 7")
    m = build_matrix([("zeta2", (5,)), ("zeta2", (1, 1))], sieve_primes(7, 60))
    with pytest.raises(ValueError, match=msg):
        relation_lattice(m)
    with pytest.raises(ValueError, match=msg):
        express_in_basis(("zeta2", (1, 4)), [("zeta2", (5,))], sieve_primes(7, 60))
    with pytest.raises(ValueError, match=msg):
        dimension_estimate(5, primes=sieve_primes(7, 60))
    # a matrix whose primes all clear the floor fits
    relation_lattice(build_matrix(m.columns, sieve_primes(11, 60)))


def test_the_floor_is_checked_before_any_sweep(monkeypatch):
    # a prime range below the floor, or a non-prime in it, raises before any value is swept
    sweeps = []
    sweep = ev._sweep
    monkeypatch.setattr(ev, "_sweep", lambda cells, primes: sweeps.append(list(primes)) or
                        sweep(cells, primes))
    msg = re.escape("smallest prime 7 must exceed max weight + 2 = 7")
    with pytest.raises(ValueError, match=msg):
        express_in_basis(("zeta2", (1, 4)), [("zeta2", (5,))], sieve_primes(7, 60))
    with pytest.raises(ValueError, match=msg):
        dimension_estimate(5, primes=reversed(sieve_primes(7, 60)))
    with pytest.raises(ValueError, match="must be a prime"):
        express_in_basis(("zeta2", (1, 2)), [("zeta2", (3,))], [11, 13, 15])
    assert sweeps == []
    # primes given as an iterator are read once, then swept as one group
    assert dimension_estimate(3, primes=iter(sieve_primes(7, 100))) == (2, 2)
    assert sweeps == [sieve_primes(7, 100)]


def test_relation_lattice_weight3():
    m = build_matrix(W3, sieve_primes(7, 199))
    cands = relation_lattice(m)
    assert cands and all(c.status == "verified" for c in cands)
    span = hnf([list(c.coefficients) for c in cands])
    # 4*z2(1,2) + 3*z2(3) = 0 and 4*z2(2,1) + z2(3) = 0, columns (3),(1,2),(2,1),(1^3)
    assert hnf_contains(span, [3, 4, 0, 0])
    assert hnf_contains(span, [1, 0, 4, 0])
    for c in cands:
        for p, row in zip(m.primes, m.cells):
            assert sum(a * b for a, b in zip(c.coefficients, row)) % p == 0


# sha256 of json.dumps([[list(c.coefficients), c.status], ...]), candidate count and
# verified count of relation_lattice at weight 8 over sieve_primes(11, 260)
W8_CANDIDATES = {
    "zeta2": ("37ef24be20a3f7c02baac93af51e1b882a7ad1e7c10a2abfef44c049d9aebcfc", 128, 107),
    "zeta": ("41f03b8d0c1e7759179ec38abc13304ea51f109184961081bad72521683f4c2d", 126, 126),
}


@pytest.mark.parametrize("variant", ["zeta2", "zeta"])
def test_relation_lattice_weight8_candidates_pinned(variant):
    m = build_matrix([(variant, ix) for ix in all_compositions(8)], sieve_primes(11, 260))
    cands = relation_lattice(m)
    record = json.dumps([[list(c.coefficients), c.status] for c in cands]).encode()
    verified = sum(c.status == "verified" for c in cands)
    assert (hashlib.sha256(record).hexdigest(), len(cands), verified) == W8_CANDIDATES[variant]


def test_relation_lattice_single_column_no_relation():
    m = build_matrix([("zeta2", (3,))], sieve_primes(7, 199))
    assert relation_lattice(m) == []


def test_relation_lattice_without_held_out_primes_only_proposes():
    # two primes leave none to re-check on, so nothing is verified or refuted
    m = build_matrix([("zeta2", (3,)), ("zeta2", (1, 2))], [7, 11])
    cands = relation_lattice(m)
    assert cands
    assert all(c.status == "candidate" and c.verified_on == () for c in cands)


def test_relation_lattice_duplicate_column():
    m = build_matrix([("zeta2", (3,)), ("zeta2", (3,))], sieve_primes(7, 60))
    cands = relation_lattice(m)
    assert any(c.coefficients == (1, -1) and c.status == "verified" for c in cands)


def test_relation_lattice_monotone_in_primes():
    # each longer prefix of primes cuts a sublattice of the shorter one's lattice
    m = build_matrix(W3, sieve_primes(7, 60))
    n = len(m.columns)
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for t in range(1, len(m.primes) + 1):
        nxt = congruence_cut(m.cells[:t], m.primes[:t])
        old = hnf(basis)
        for row in nxt:
            assert hnf_contains(old, row)
        basis = nxt


def test_express_anchors():
    primes = sieve_primes(7, 199)
    got = express_in_basis(("zeta2", (2, 1)), [("zeta2", (3,)), ("zeta2", (1, 1, 1))], primes)
    assert got == [Fraction(-1, 4), 0]
    got = express_in_basis(("zeta2", (1, 2)), [("zeta2", (3,)), ("zeta2", (1, 1, 1))], primes)
    assert got == [Fraction(-3, 4), 0]


def test_express_target_in_basis_rejected():
    with pytest.raises(ValueError):
        express_in_basis(("zeta2", (3,)), [("zeta2", (3,))], [7, 11])


def test_express_none_when_independent():
    got = express_in_basis(("zeta2", (5,)), [("zeta2", (1, 1, 1, 1, 1))],
                           sieve_primes(11, 120))
    assert got is None


def test_express_ambiguous_on_dependent_basis():
    with pytest.raises(AmbiguousRelationError):
        express_in_basis(("zeta2", (2, 1)), [("zeta2", (3,)), ("zeta2", (1, 2))],
                         sieve_primes(7, 120))


def test_express_ambiguous_on_basis_relation_without_target():
    # a repeated column is a verified relation among the basis columns alone
    with pytest.raises(AmbiguousRelationError):
        express_in_basis(("zeta2", (2, 1)), [("zeta2", (3,)), ("zeta2", (3,))],
                         sieve_primes(7, 200))


def test_express_stable_across_prime_sets():
    a = express_in_basis(("zeta2", (2, 1)), [("zeta2", (3,))], sieve_primes(7, 80))
    b = express_in_basis(("zeta2", (2, 1)), [("zeta2", (3,))], sieve_primes(81, 200))
    assert a == b == [Fraction(-1, 4)]


def test_dimension_estimates_small():
    assert dimension_estimate(1, primes=sieve_primes(5, 60)) == (0, 1)
    assert dimension_estimate(3, primes=sieve_primes(7, 199)) == (2, 2)
    m, dim = dimension_estimate(4, primes=sieve_primes(7, 199))
    assert dim == 3 == fib(4)
    with pytest.raises(ValueError):
        dimension_estimate(0, primes=[7])


def test_fib_and_dseq_values():
    assert [fib(k) for k in range(1, 7)] == [1, 1, 2, 3, 5, 8]
    assert fib(10) == 55
    assert [dseq(k) for k in range(6)] == [1, 0, 1, 1, 1, 2]
    with pytest.raises(ValueError):
        fib(0)
    with pytest.raises(ValueError):
        dseq(-1)


@pytest.mark.parametrize("call", [partial(dimension_estimate, primes=[11, 13, 17, 19]), fib, dseq],
                         ids=["dimension_estimate", "fib", "dseq"])
@pytest.mark.parametrize("k", [True, False, 2.5, 2.0, "3"])
def test_weights_are_ints(call, k):
    # as check_index and Zk refuse them; dimension_estimate(True) returned (0, 1)
    with pytest.raises(ValueError, match="integer"):
        call(k)


def test_counting_invariants():
    for k in range(1, 11):
        comps = list(all_compositions(k))
        assert len(comps) == 2 ** (k - 1)
        assert sum(1 for c in comps if all(x % 2 for x in c)) == fib(k)
        if k >= 3:
            assert sum(1 for c in comps if all(x % 2 and x >= 3 for x in c)) == dseq(k - 3)
