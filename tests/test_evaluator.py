import itertools
import random

import pytest

import fmzv.evaluator as ev
from fmzv.evaluator import (
    CacheError,
    ResidueCache,
    eval_euler,
    eval_even_form,
    eval_odd_form,
    eval_table,
    eval_zeta,
    eval_zeta2,
    eval_zeta2_star,
    parse_index,
    parse_signs,
)
from fmzv.modmath import mod_inv, sieve_primes


# --- independent brute-force oracles (nested enumeration, no DP) ---

def brute(index, p, bound, strict=True, signs=None):
    r = len(index)
    if r == 0:
        return 1
    combos = itertools.combinations if strict else itertools.combinations_with_replacement
    total = 0
    for ms in combos(range(1, bound + 1), r):
        term = 1
        for m, k in zip(ms, index):
            term = term * pow(mod_inv(m, p), k, p) % p
        if signs is not None:
            for m, e in zip(ms, signs):
                if e < 0 and m % 2 == 1:
                    term = p - term if term else 0
        total = (total + term) % p
    return total


def brute_zeta(index, p):
    return brute(index, p, p - 1)


def brute_zeta2(index, p):
    return brute(index, p, (p - 1) // 2)


def brute_zeta2_star(index, p):
    return brute(index, p, (p - 1) // 2, strict=False)


def brute_euler(index, signs, p):
    return brute(index, p, p - 1, signs=signs)


def all_indices(max_weight, max_depth=None):
    out = []
    for k in range(1, max_weight + 1):
        for r in range(1, k + 1):
            if max_depth and r > max_depth:
                continue
            for cuts in itertools.combinations(range(1, k), r - 1):
                parts = []
                prev = 0
                for c in list(cuts) + [k]:
                    parts.append(c - prev)
                    prev = c
                out.append(tuple(parts))
    return out


# --- frozen anchor values ---

def test_frozen_values():
    assert eval_zeta((1,), 5) == 0
    assert eval_zeta((1, 2), 7) == 3
    assert eval_zeta((2, 1), 7) == 4
    assert eval_zeta((), 11) == 1
    assert eval_zeta2((1,), 7) == 3
    assert eval_zeta2((1,), 5) == 4
    assert eval_zeta2((2,), 5) == 0
    assert eval_zeta2((3,), 7) == 1
    assert eval_zeta2((1, 2), 7) == 1
    assert eval_zeta2((2, 1), 7) == 5
    assert eval_zeta2((1, 1, 1), 7) == 6
    assert eval_zeta2_star((1, 2), 7) == 2
    assert eval_zeta2_star((5,), 11) == eval_zeta2((5,), 11)
    assert eval_zeta2_star((), 7) == 1
    assert eval_euler((1,), (-1,), 5) == 4


def test_against_brute_force():
    rng = random.Random(3)
    indices = all_indices(5)
    for p in (5, 7, 11, 13):
        for index in indices:
            assert eval_zeta(index, p) == brute_zeta(index, p)
            assert eval_zeta2(index, p) == brute_zeta2(index, p)
            assert eval_zeta2_star(index, p) == brute_zeta2_star(index, p)
            signs = tuple(rng.choice((1, -1)) for _ in index)
            assert eval_euler(index, signs, p) == brute_euler(index, signs, p)


def test_euler_reductions():
    for p in (5, 7, 11, 13, 17):
        assert eval_euler((1,), (-1,), p) == eval_zeta2((1,), p)
        for k in (1, 2, 3):
            assert eval_euler((k,), (1,), p) == eval_zeta((k,), p)


def test_even_odd_forms_examples():
    assert eval_even_form((1,), 7) == 3
    assert eval_even_form((2,), 5) == 0
    assert eval_even_form((), 11) == 1
    assert eval_odd_form((), 11) == 1


def test_even_odd_forms_match_zeta2():
    for p in sieve_primes(5, 60):
        for index in all_indices(5):
            v = eval_zeta2(index, p)
            assert eval_even_form(index, p) == v
            assert eval_odd_form(index, p) == v


def test_depth1_vanishing():
    for p in sieve_primes(5, 60):
        for k in range(1, 5):
            if p > k + 1:
                assert eval_zeta((k,), p) == 0


def test_level2_even_vanishing():
    for p in sieve_primes(7, 80):
        for k in (2, 4, 6):
            if p >= k + 3:
                assert eval_zeta2((k,), p) == 0


def test_reversal():
    for p in (7, 11, 13):
        for index in all_indices(5):
            k = sum(index)
            lhs = eval_zeta(tuple(reversed(index)), p)
            rhs = pow(p - 1, k, p) * eval_zeta(index, p) % p
            assert lhs == rhs


def test_index_validation():
    with pytest.raises(ValueError):
        eval_zeta((0, 1), 7)
    with pytest.raises(ValueError):
        eval_zeta2((1, -2), 7)
    with pytest.raises(ValueError):
        eval_euler((1, 2), (1,), 7)
    with pytest.raises(ValueError):
        eval_zeta((1,), 9)


def test_serialization_round_trip():
    assert parse_index("1,2,3") == (1, 2, 3)
    assert parse_index("") == ()
    assert parse_signs("+,-,+") == (1, -1, 1)
    with pytest.raises(ValueError):
        parse_signs("+,x")


# --- the per-prime sweep against the oracle route ---

ORACLES = {"zeta": eval_zeta, "zeta2": eval_zeta2, "zeta2star": eval_zeta2_star}


def test_sweep_matches_oracles():
    # every composition of weight <= 6, every euler sign vector; the small primes
    # have p <= weight + 2, which compute and eval_table can ask for
    cells = []
    for index in all_indices(6):
        cells += [(variant, index, None) for variant in ORACLES]
        cells += [("euler", index, s) for s in itertools.product((1, -1), repeat=len(index))]
    for p in sieve_primes(5, 113):
        swept = ev._sweep(cells, p)
        assert len(swept) == len(cells)
        for (variant, index, signs), v in swept.items():
            want = eval_euler(index, signs, p) if signs else ORACLES[variant](index, p)
            assert v == want, (variant, index, signs, p)


def test_unplanned_cell_is_swept_alone():
    ev.clear_memo()
    assert ev.compute_cell("zeta2star", (2, 1), None, 11) == eval_zeta2_star((2, 1), 11)
    assert ev.compute_cell("euler", (1, 2), (-1, 1), 7) == eval_euler((1, 2), (-1, 1), 7)
    assert ev.compute_cell("zeta", (), None, 7) == 1
    with pytest.raises(ValueError):
        ev.compute_cell("zeta3", (1,), None, 7)
    with pytest.raises(ValueError):
        ev.compute_cell("euler", (1, 2), (1,), 7)
    with pytest.raises(ValueError):
        ev.compute_cell("zeta", (1,), None, 9)


def test_plan_skips_known_cells_and_holds_one_prime(tmp_path, monkeypatch):
    ev.clear_memo()
    sweeps = []
    sweep = ev._sweep
    monkeypatch.setattr(ev, "_sweep", lambda cells, p: sweeps.append(set(cells)) or sweep(cells, p))
    cache = ResidueCache(str(tmp_path / "c.txt"))
    cache.add("zeta2", (1,), None, 7, 3)
    ev.value_of("zeta", (1, 2), None, 7)  # swept alone, and the table keeps it
    ev.plan([("zeta2", (1,), None), ("zeta", (1, 2), None), ("zeta2", (2, 1), None),
             ("zeta", (), None)], 7, cache)
    assert sweeps == [{("zeta", (1, 2), None)}, {("zeta2", (2, 1), None)}]
    # a second plan at the same prime adds to the table
    ev.plan([("zeta2", (2, 1), None), ("zeta2", (3,), None)], 7, cache)
    assert sweeps[2:] == [{("zeta2", (3,), None)}]
    assert ev._TABLE == {("zeta", (1, 2), None, 7): eval_zeta((1, 2), 7),
                         ("zeta2", (2, 1), None, 7): eval_zeta2((2, 1), 7),
                         ("zeta2", (3,), None, 7): eval_zeta2((3,), 7)}
    # a call at another prime empties it
    ev.plan([("zeta2", (1,), None)], 11, cache)
    assert ev._TABLE == {("zeta2", (1,), None, 11): eval_zeta2((1,), 11)}
    cache.close()
    ev.clear_memo()


def test_table_holds_one_prime_after_a_run_over_many():
    primes = sieve_primes(5, 120)
    eval_table("zeta2", (2, 1), primes=primes)
    assert {key[3] for key in ev._TABLE} == {primes[-1]}
    for p in primes:
        ev.compute_cell("zeta2star", (1, 2), None, p)
    assert {key[3] for key in ev._TABLE} == {primes[-1]}
    ev.clear_memo()
    assert not ev._TABLE


def test_in_memory_cache_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = ResidueCache()
    eval_table("zeta2", (1, 2), primes=[7, 11], cache=cache)
    assert cache.get("zeta2", (1, 2), None, 11) == eval_zeta2((1, 2), 11)
    assert len(cache) == 2
    cache.close()
    assert list(tmp_path.iterdir()) == []


# --- eval_table and the cache ---

def test_eval_table_examples(tmp_path):
    t = eval_table("zeta2", (1,), primes=[5, 7])
    assert t.rows == {5: 4, 7: 3}
    t = eval_table("zeta", (1,), primes=[5, 7, 11])
    assert t.rows == {5: 0, 7: 0, 11: 0}
    t = eval_table("zeta2", (3,), primes=[7])
    assert t.rows == {7: 1}
    with pytest.raises(ValueError):
        eval_table("zeta2", (1,), primes=[])
    with pytest.raises(ValueError):
        eval_table("zeta2", (1,), primes=[7, 5])
    with pytest.raises(ValueError):
        eval_table("zeta2", (1,), signs=(1,), primes=[5])
    with pytest.raises(ValueError):
        eval_table("euler", (1,), primes=[5])


def test_cache_round_trip(tmp_path):
    ev.clear_memo()
    path = str(tmp_path / "cache.txt")
    cache = ResidueCache(path)
    eval_table("zeta2", (1, 2), primes=[7, 11], cache=cache)
    eval_table("euler", (1,), signs=(-1,), primes=[5], cache=cache)
    cache.close()

    lines = open(path).read().splitlines()
    assert "zeta2,1,2,,7,1" in lines
    assert "euler,1,-,5,4" in lines

    # a fresh process-like read must serve the same values without recompute
    ev.clear_memo()
    cache2 = ResidueCache(path)
    assert cache2.get("zeta2", (1, 2), None, 7) == 1
    t = eval_table("zeta2", (1, 2), primes=[7, 11], cache=cache2)
    assert t.rows == {7: 1, 11: eval_zeta2((1, 2), 11)}
    assert len(cache2) == len(lines)
    cache2.close()

    # recomputation from scratch reproduces every cached cell bit-exactly
    ev.clear_memo()
    for line in lines:
        key, residue = ResidueCache._parse_line(line)
        variant, index, signs, p = key
        assert ev.compute_cell(variant, index, signs, p) == residue


def test_cache_not_ascii(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"zeta2,1,,7,3\n\xff\n")
    with pytest.raises(CacheError) as err:
        ResidueCache(str(path))
    assert str(path) in str(err.value) and "ASCII" in str(err.value)


def test_cache_corruption(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("zeta2,1,,7,3\n")
        fh.write("zeta2,1,,9,3\n")  # 9 is not prime
    with pytest.raises(CacheError) as err:
        ResidueCache(path)
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("torn", ["zeta2,2,,7,", "zeta2,2,,7,4"])
def test_cache_torn_last_line(tmp_path, torn):
    # an append cut short leaves a last line without its newline; even one that
    # parses may have lost digits of its residue, so it is dropped either way
    path = tmp_path / "torn.txt"
    path.write_text("zeta2,1,,7,3\n" + torn)
    cache = ResidueCache(str(path))
    assert len(cache) == 1 and cache.get("zeta2", (2,), None, 7) is None
    cache.add("zeta2", (1, 2), None, 7, 1)
    cache.close()
    assert path.read_text() == "zeta2,1,,7,3\nzeta2,1,2,,7,1\n"
    reloaded = ResidueCache(str(path))
    assert len(reloaded) == 2 and reloaded.get("zeta2", (1, 2), None, 7) == 1


def test_cache_corrupt_interior_line_before_torn_tail(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("zeta2,1,,9,3\nzeta2,1,,7,3\nzeta2,2,,7,")
    with pytest.raises(CacheError) as err:
        ResidueCache(str(path))
    assert ":1:" in str(err.value)


def test_eval_table_parallel_matches_serial():
    primes = sieve_primes(5, 40)
    serial = eval_table("zeta2", (2, 1), primes=primes)
    ev.clear_memo()
    parallel = eval_table("zeta2", (2, 1), primes=primes, jobs=2)
    assert serial.rows == parallel.rows
