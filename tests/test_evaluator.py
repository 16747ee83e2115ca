import itertools
import random

import pytest

import fmzv.evaluator as ev
from fmzv.evaluator import (
    VARIANTS,
    CacheError,
    ResidueCache,
    eval_euler,
    eval_even_form,
    eval_odd_form,
    eval_table,
    eval_zeta,
    eval_zeta2,
    eval_zeta2_star,
    check_cell,
    parse_index,
    parse_signs,
)
from fmzv.modmath import is_prime, mod_inv, sieve_primes


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


@pytest.mark.parametrize("cell, want", [
    (("zeta", [1, 2], None), ("zeta", (1, 2), None)),
    (("zeta2", (3,), None), ("zeta2", (3,), None)),
    (("zeta2star", (2, 1), None), ("zeta2star", (2, 1), None)),
    (("euler", [1, 2], [-1, 1]), ("euler", (1, 2), (-1, 1))),
    (("zeta", (), None), ("zeta", (), None)),
    (("euler", (), ()), ("euler", (), ())),
    # unknown variant
    (("zeta3", (1,), None), None),
    (("Zeta", (1,), None), None),
    # index entries must be positive integers
    (("zeta", (0, 2), None), None),
    (("zeta2", (1, -2), None), None),
    (("zeta2star", (1.0,), None), None),
    (("euler", ("1",), (1,)), None),
    # signs exactly for euler
    (("euler", (1, 2), None), None),
    (("zeta", (1, 2), (1, 1)), None),
    (("zeta2", (1,), (-1,)), None),
    (("zeta2star", (1,), ()), None),
    # a +/-1 vector of the index length
    (("euler", (1, 2), (1,)), None),
    (("euler", (1,), (1, -1)), None),
    (("euler", (1, 2), (1, 0)), None),
    (("euler", (1, 2), (1, 2)), None),
])
def test_check_cell(cell, want):
    if want is None:
        with pytest.raises(ValueError):
            check_cell(*cell)
    else:
        assert check_cell(*cell) == want


def test_signs_on_a_non_euler_cell_raise():
    for variant in ("zeta", "zeta2", "zeta2star"):
        with pytest.raises(ValueError):
            ev.value_of(variant, (1, 2), (1, 1), 7)
        with pytest.raises(ValueError):
            ev.compute_cell(variant, (1, 2), (1, 1), 7)


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
    sweeps = []
    sweep = ev._sweep
    monkeypatch.setattr(ev, "_sweep", lambda cells, p: sweeps.append(set(cells)) or sweep(cells, p))
    cache = ResidueCache(str(tmp_path / "c.txt"))
    cache.add("zeta2", (1,), None, 7, 3)
    # the cached cell and the empty index are not swept, the others take one sweep
    table = ev.plan([("zeta2", (1,), None), ("zeta", (1, 2), None), ("zeta2", (2, 1), None),
                     ("zeta", (), None)], 7, cache)
    assert sweeps == [{("zeta", (1, 2), None), ("zeta2", (2, 1), None)}]
    assert table == {("zeta", (1, 2), None, 7): eval_zeta((1, 2), 7),
                     ("zeta2", (2, 1), None, 7): eval_zeta2((2, 1), 7)}
    # value_of reads a planned cell from the table, and sweeps an unplanned one alone
    assert ev.value_of("zeta2", (2, 1), None, 7, None, table) == eval_zeta2((2, 1), 7)
    assert len(sweeps) == 1
    assert ev.value_of("zeta2", (3,), None, 7, None, table) == eval_zeta2((3,), 7)
    assert sweeps[1:] == [{("zeta2", (3,), None)}]
    # each plan is one sweep of its own cells, at its own prime
    table = ev.plan([("zeta2", (2, 1), None), ("zeta2", (1,), None)], 11, cache)
    assert sweeps[2:] == [{("zeta2", (2, 1), None), ("zeta2", (1,), None)}]
    assert table == {("zeta2", (2, 1), None, 11): eval_zeta2((2, 1), 11),
                     ("zeta2", (1,), None, 11): eval_zeta2((1,), 11)}
    # a plan over cached cells alone makes no sweep
    assert ev.plan([("zeta2", (1,), None), ("zeta", (), None)], 7, cache) == {}
    assert len(sweeps) == 3
    cache.close()


def test_table_holds_one_prime_after_a_run_over_many(monkeypatch):
    # each plan of a run over many primes returns its own prime's cells, and the
    # module keeps nothing: a repeated cell without a cache is swept again
    tables, sweeps = [], []
    plan, sweep = ev.plan, ev._sweep
    monkeypatch.setattr(ev, "plan", lambda *args: tables.append(plan(*args)) or tables[-1])
    monkeypatch.setattr(ev, "_sweep", lambda cells, p: sweeps.append(p) or sweep(cells, p))
    primes = sieve_primes(5, 120)
    eval_table("zeta2", (2, 1), primes=primes)
    assert tables == [{("zeta2", (2, 1), None, p): eval_zeta2((2, 1), p)} for p in primes]
    for p in primes:
        ev.compute_cell("zeta2star", (1, 2), None, p)
        ev.compute_cell("zeta2star", (1, 2), None, p)
    assert sweeps == primes + [p for p in primes for _ in range(2)]
    assert [name for name, v in vars(ev).items()
            if not name.startswith("__") and isinstance(v, (dict, list, set))] == []


def test_signs_may_be_any_sequence():
    want = eval_euler((1, 2), (1, -1), 7)
    assert ev.compute_cell("euler", [1, 2], [1, -1], 7) == want
    assert ev.value_of("euler", (1, 2), [1, -1], 7) == want
    cache = ResidueCache()
    assert ev.value_of("euler", (1, 2), [1, -1], 7, cache) == want
    assert cache.get("euler", (1, 2), (1, -1), 7) == want
    assert ev.value_of("euler", (1, 2), [1, -1], 7, cache) == want
    table = ev.plan([("euler", [1, 2], [1, -1])], 7)
    assert table == {("euler", (1, 2), (1, -1), 7): want}
    assert ev.value_of("euler", [1, 2], [1, -1], 7, None, table) == want


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
    path = str(tmp_path / "cache.txt")
    cache = ResidueCache(path)
    eval_table("zeta2", (1, 2), primes=[7, 11], cache=cache)
    eval_table("euler", (1,), signs=(-1,), primes=[5], cache=cache)
    cache.close()

    lines = open(path).read().splitlines()
    assert "zeta2,1,2,,7,1" in lines
    assert "euler,1,-,5,4" in lines

    # a fresh process-like read must serve the same values without recompute
    cache2 = ResidueCache(path)
    assert cache2.get("zeta2", (1, 2), None, 7) == 1
    t = eval_table("zeta2", (1, 2), primes=[7, 11], cache=cache2)
    assert t.rows == {7: 1, 11: eval_zeta2((1, 2), 11)}
    assert len(cache2) == len(lines)
    cache2.close()

    # recomputation from scratch reproduces every cached cell bit-exactly
    for line in lines:
        key, residue = parse_line(line)
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


def test_cache_duplicate_lines(tmp_path):
    # an identical repeat (`cat a b > c`) loads once, in first-seen order
    path = tmp_path / "dup.txt"
    path.write_text("zeta2,1,,7,3\nzeta2,2,,7,1\nzeta2,1,,7,3\n")
    assert list(ResidueCache(str(path))._cells.items()) == [
        (("zeta2", (1,), None, 7), 3), (("zeta2", (2,), None, 7), 1)]


@pytest.mark.parametrize("repeat", ["zeta2,1,,7,4", "zeta2,01,,7,4"])
def test_cache_conflicting_duplicate_is_corrupt(tmp_path, repeat):
    path = tmp_path / "dup.txt"
    path.write_text("zeta2,1,,7,3\nzeta2,2,,7,1\n%s\n" % repeat)
    with pytest.raises(CacheError) as err:
        ResidueCache(str(path))
    assert ":3:" in str(err.value) and "conflicts" in str(err.value)


# --- the cache line parser against the one that checked every line in full ---

def parse_line(line: str):
    return ev._parse_cell(line, {}, {})


def reference_parse_line(line: str):
    parts = line.split(",")
    variant = parts[0]
    if variant not in VARIANTS:
        raise ValueError("unknown variant")
    residue = int(parts[-1])
    p = int(parts[-2])
    middle = parts[1:-2]
    if middle and middle[-1] == "":
        index = tuple(int(x) for x in middle[:-1])
        signs = None
    else:
        cut = next(i for i, x in enumerate(middle) if x in ("+", "-"))
        index = tuple(int(x) for x in middle[:cut])
        signs = parse_signs(",".join(middle[cut:]))
    if not index or any(k < 1 for k in index):
        raise ValueError("bad index")
    if (variant == "euler") != (signs is not None):
        raise ValueError("signs/variant mismatch")
    if signs is not None and len(signs) != len(index):
        raise ValueError("signs length mismatch")
    if p < 5 or not is_prime(p) or not 0 <= residue < p:
        raise ValueError("bad prime or residue")
    return (variant, index, signs, p), residue


def _parsed(parse, line):
    try:
        return parse(line)
    except Exception:
        return None


def _real_cache_lines(tmp_path):
    path = tmp_path / "real.txt"
    cache = ResidueCache(str(path))
    cells = [("zeta", (1, 2), None), ("zeta2", (2, 1, 1), None), ("zeta2star", (1, 3), None),
             ("zeta2star", (2,), None), ("euler", (1, 2, 1), (1, -1, -1)),
             ("euler", (3, 1), (-1, 1)), ("euler", (2,), (-1,))]
    for p in (7, 11, 13, 101):
        for variant, index, signs in cells:
            cache.add(variant, index, signs, p, ev.compute_cell(variant, index, signs, p))
    cache.close()
    return path.read_text().splitlines()


_TOKENS = ["", "0", "1", "2", "4", "9", "25", "-1", "+", "-", "+1", " 3", "03", "x", "1e3",
           "97", "4294967311", "zeta", "zeta2", "zeta2star", "euler"]


def _mutate(line, rng):
    for _ in range(rng.randint(1, 3)):
        fields = line.split(",")
        kind = rng.randrange(8)
        i, j = rng.randrange(len(fields)), rng.randrange(len(fields))
        c = rng.randrange(len(line) + 1)
        if kind == 0:
            line = line[:c] + line[c + 1:]
            continue
        if kind == 1:
            line = line[:c] + rng.choice("0123456789,+- \tez") + line[c:]
            continue
        if kind == 2:
            fields[i] = rng.choice(_TOKENS)
        elif kind == 3 and len(fields) > 1:
            del fields[i]
        elif kind == 4:
            fields.insert(i, fields[i])
        elif kind == 5:
            fields[i], fields[j] = fields[j], fields[i]
        elif kind == 6 and fields[-1].isdigit():
            fields[-1] = str(int(fields[-1]) + rng.choice([-1, 1, 7, 11, 13, 101]))
        elif kind == 7 and len(fields) > 1 and fields[-2].isdigit():
            fields[-2] = str(int(fields[-2]) + rng.choice([-2, -1, 2, 4, 6]))
        line = ",".join(fields)
    return line


def test_parse_line_matches_reference_on_mutated_lines(tmp_path):
    real = _real_cache_lines(tmp_path)
    rng = random.Random(20211)
    lines = [_mutate(rng.choice(real), rng) for _ in range(20000)]
    accepted = []
    for line in real + lines:
        want = _parsed(reference_parse_line, line)
        assert _parsed(parse_line, line) == want, line
        if want is not None:
            accepted.append(line)
    assert 2000 < len(accepted) - len(real) < 18000

    # one file of every accepted line (a conflicting repeat left out) loads as
    # the reference reads it, in the same order
    want, kept = {}, []
    for line in accepted:
        key, residue = reference_parse_line(line)
        if want.setdefault(key, residue) == residue:
            kept.append(line)
    path = tmp_path / "fuzz.txt"
    path.write_text("".join(line + "\n" for line in kept))
    assert list(ResidueCache(str(path))._cells.items()) == list(want.items())

    # a rejected line after the real lines, whose heads and primes the load has
    # already checked, is still reported at its own line number
    rejected = [line for line in lines
                if line.strip() and _parsed(reference_parse_line, line.strip()) is None]
    for line in rng.sample(rejected, 300):
        path.write_text("".join(s + "\n" for s in real + [line]))
        with pytest.raises(CacheError) as err:
            ResidueCache(str(path))
        assert ":%d: bad cache line" % (len(real) + 1) in str(err.value)


@pytest.mark.parametrize("text, lineno", [
    # out of range at a prime already tested
    ("zeta2,1,,7,3\nzeta2,1,,7,7\n", 2),
    ("zeta2,1,,7,3\nzeta2,1,,7,-1\n", 2),
    ("zeta2,1,,7,3\nzeta2,1,,7,x\n", 2),
    # a bad head, or a composite, on lines 3 and 5
    ("zeta2,1,,7,3\nzeta2,2,,7,1\nzeta2,0,,7,3\nzeta2,1,,11,3\nzeta2,0,,7,3\n", 3),
    ("zeta2,1,,7,3\nzeta2,2,,7,1\nzeta2,1,,9,3\nzeta2,1,,11,3\nzeta2,1,,9,3\n", 3),
])
def test_cache_load_checks_every_line(tmp_path, text, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(CacheError) as err:
        ResidueCache(str(path))
    assert ":%d: bad cache line" % lineno in str(err.value)


def test_cache_load_checks_each_head_and_prime_once(tmp_path, monkeypatch):
    heads = ["zeta,1,2,", "zeta2,3,", "zeta2star,1,1,", "euler,1,2,+,-", "euler,2,-"]
    primes = [7, 11, 13, 101]
    lines = ["%s,%d,%d" % (head, p, (3 * i + p) % p)
             for p in primes for i, head in enumerate(heads)]
    path = tmp_path / "c.txt"
    path.write_text("".join(line + "\n" for line in lines + lines[::-1]))
    calls = {"is_prime": 0, "_parse_head": 0}
    for name in calls:
        def counted(arg, real=getattr(ev, name), name=name):
            calls[name] += 1
            return real(arg)
        monkeypatch.setattr(ev, name, counted)
    cache = ResidueCache(str(path))
    assert calls == {"is_prime": len(primes), "_parse_head": len(heads)}
    assert len(cache) == len(primes) * len(heads)
    # cells with one head share one index tuple
    assert len({id(key[1]) for key in cache._cells}) == len(heads)


def test_eval_table_parallel_matches_serial():
    primes = sieve_primes(5, 40)
    serial = eval_table("zeta2", (2, 1), primes=primes)
    parallel = eval_table("zeta2", (2, 1), primes=primes, jobs=2)
    assert serial.rows == parallel.rows
