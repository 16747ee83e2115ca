import itertools
import random
from functools import partial

import pytest
from cachecells import cells_of

import fmzv.evaluator as ev
from fmzv.evaluator import (
    VARIANTS,
    CacheError,
    ResidueCache,
    eval_euler,
    eval_even_form,
    eval_odd_form,
    eval_zeta,
    eval_zeta2,
    eval_zeta2_star,
    check_cell,
    parse_index,
    parse_signs,
)
from fmzv.harmonic import IndexCombination, evaluate_combination
from fmzv.identities import SUITES, ppt_constants
from fmzv.modmath import is_prime, mod_inv, sieve_primes
from fmzv.relations import build_matrix


def column(variant, index, signs=None, primes=(), cache=None, jobs=1):
    """{p: value} of one cell over the primes, from build_matrix."""
    m = build_matrix([(variant, index, signs)], primes, cache=cache, jobs=jobs)
    return {p: v for p, (v,) in zip(m.primes, m.cells)}


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
    # an index or signs that is not a sequence
    (("zeta2", 5, None), None),
    (("zeta", None, None), None),
    (("euler", (1,), -1), None),
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


def test_serialization_round_trip():
    assert parse_index("1,2,3") == (1, 2, 3)
    assert parse_index("") == ()
    assert parse_signs("+,-,+") == (1, -1, 1)
    assert parse_signs("") == ()
    with pytest.raises(ValueError):
        parse_signs("+,x")


# --- the group sweep against the oracle route ---

ORACLES = {"zeta": eval_zeta, "zeta2": eval_zeta2, "zeta2star": eval_zeta2_star}


def sweep_at(cells, p):
    """The table of a sweep of the cells at a group of one prime."""
    (table,) = ev._sweep([cells], [p])
    return table


def test_sweep_matches_oracles():
    # every composition of weight <= 6, every euler sign vector, over one group of all
    # the primes and over groups of one; the small primes have p <= weight + 2, which
    # compute and build_matrix can ask for
    cells = []
    for index in all_indices(6):
        cells += [(variant, index, None) for variant in ORACLES]
        cells += [("euler", index, s) for s in itertools.product((1, -1), repeat=len(index))]
    primes = sieve_primes(5, 113)
    tables = list(ev._sweep([cells] * len(primes), primes))
    assert tables[::len(primes) - 1] == [sweep_at(cells, p) for p in primes[::len(primes) - 1]]
    for p, swept in zip(primes, tables):
        assert len(swept) == len(cells)
        for (variant, index, signs), v in swept.items():
            want = eval_euler(index, signs, p) if signs else ORACLES[variant](index, p)
            assert v == want, (variant, index, signs, p)


def oracle(cell, p):
    variant, index, signs = cell
    return eval_euler(index, signs, p) if signs else ORACLES[variant](index, p)


# one sweep of strict and star cells: a node both inner and read ((1, 2)), a leaf read at
# both ends ((2, 3) as zeta and zeta2), all-plus euler on a zeta node, mixed signs
MIXED = [("zeta", (1, 2), None), ("zeta2", (1, 2), None), ("euler", (1, 2), (1, 1)),
         ("zeta", (1, 2, 3), None), ("zeta2", (1, 2, 1, 1), None),
         ("zeta", (2, 3), None), ("zeta2", (2, 3), None), ("zeta2", (3, 1), None),
         ("euler", (3, 1, 2), (-1, 1, -1)), ("euler", (2, 1), (1, -1)), ("euler", (1,), (-1,)),
         ("euler", (1, 2), (-1, -1)), ("zeta2star", (1, 2), None), ("zeta2star", (1, 2, 1), None),
         ("zeta2star", (3,), None), ("zeta", (), None), ("zeta2", (), None)]


@pytest.mark.parametrize("p, block", [
    (8209, 4096), (10007, 4096),
    # blocks that start at an even m, and (p-1)/2 inside a block, at its end, or at its start
    (8209, 4095), (101, 6), (103, 7), (103, 50), (103, 51), (103, 1),
])
def test_sweep_over_blocks_matches_oracles(monkeypatch, p, block):
    want = {cell: oracle(cell, p) for cell in MIXED}
    monkeypatch.setattr(ev, "_BLOCK", block)
    assert sweep_at(MIXED, p) == want


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_sweep_of_entries_from_p_minus_1_up_matches_oracles(p):
    # an entry below the group's smallest prime takes a chain of power columns, and
    # each one at or above it, k >= p here, a column of its own
    entries = (1, 2, p - 2, p - 1, p, 2 * (p - 1), 2 * p - 1, 3 * p + 4)
    cells = []
    for r in (1, 2, 3):
        for index in itertools.product(entries, repeat=r):
            cells += [(variant, index, None) for variant in ORACLES]
            cells += [("euler", index, s) for s in itertools.product((1, -1), repeat=r)]
    assert len(cells) == 6120
    assert sweep_at(cells, p) == {cell: oracle(cell, p) for cell in cells}


def test_sweep_at_depth_30():
    index = (1, 2) * 14 + (3, 1)
    cells = [("zeta", index, None), ("zeta2", index, None), ("zeta2star", index, None),
             ("euler", index, (1, -1) * 15), ("zeta2", index[:29], None)]
    assert sweep_at(cells, 8209) == {cell: oracle(cell, 8209) for cell in cells}


# MIXED with entries of 5 and up: a chain of power columns at 13 and 17, a column each
# at 5, alone or in a group with them
MIXED_LARGE = MIXED + [("zeta", (7, 2), None), ("zeta2", (5, 1, 6), None),
                       ("zeta2star", (2, 5), None), ("euler", (6, 1), (-1, 1))]


def test_sweeps_of_one_cell_tuple_at_prime_after_prime_match_oracles():
    for p in (13, 17, 13, 5, 17):
        assert sweep_at(MIXED_LARGE, p) == {cell: oracle(cell, p) for cell in MIXED_LARGE}, p
    assert list(ev._sweep([MIXED_LARGE] * 3, [5, 13, 17])) == [
        {cell: oracle(cell, p) for cell in MIXED_LARGE} for p in (5, 13, 17)]


def test_sweep_of_the_depth2_cells_at_large_primes():
    # the cells verify --suite depth2 --kmax 9 sweeps at each prime, in one group and alone
    cells = [("zeta2", (a, k - a), None) for k in (3, 5, 7, 9) for a in range(1, k)]
    primes = sieve_primes(1000, 1400)[::9]
    want = [{cell: oracle(cell, p) for cell in cells} for p in primes]
    assert list(ev._sweep([cells] * len(primes), primes)) == want
    assert [sweep_at(cells, p) for p in primes] == want


def test_inverse_table():
    for p in sieve_primes(5, 2000):
        inv = [0, 1]
        ev._inverses(inv, (p + 1) // 2, p)
        assert inv == [0] + [pow(i, -1, p) for i in range(1, (p + 1) // 2)]
        ev._inverses(inv, p, p)
        assert inv == [0] + [pow(i, -1, p) for i in range(1, p)]
    # mod a product of primes above the entries, and on mod a divisor of it: each entry
    # is the inverse mod the modulus it was made with
    n, inv = 1009 * 1013 * 1019, [0, 1]
    ev._inverses(inv, 500, n)
    ev._inverses(inv, 1011, n // 1009)
    assert inv == [0] + [pow(i, -1, n if i < 500 else n // 1009) for i in range(1, 1011)]


# groups that mix 5 and 7 with primes above 1000, and a group of one
GROUPS = [(5, 7), (5, 7, 1009), (5, 7, 11, 1013, 1019), (7, 1009, 1013), (1013,)]


def group_cells(primes):
    """Every variant, euler with mixed signs, entries from 1 up to 10**12, each cell read at
    some primes of the group only."""
    entries = (1, 2, 3, 5, 7, 8, 1009, 10 ** 12)
    cells = []
    for r, count in ((1, 8), (2, 20), (3, 12)):
        for index in random.Random(r).sample(list(itertools.product(entries, repeat=r)), count):
            cells += [(variant, index, None) for variant in ORACLES]
            cells += [("euler", index, s) for s in itertools.product((1, -1), repeat=r)]
    rng = random.Random(len(primes))
    return [[cell for cell in cells if rng.random() < 0.6] for _ in primes]


@pytest.mark.parametrize("primes", GROUPS, ids=lambda g: "-".join(map(str, g)))
@pytest.mark.parametrize("block", [4096, 1, 7])
def test_group_sweep_matches_oracles(monkeypatch, primes, block):
    monkeypatch.setattr(ev, "_BLOCK", block)
    cells = group_cells(primes)
    assert all(cells) and len(set(map(len, cells))) == len(primes)
    assert list(ev._sweep(cells, primes)) == [
        {cell: oracle(cell, p) for cell in cs} for p, cs in zip(primes, cells)]


def test_sweep_hands_out_each_table_once_its_prime_is_read(monkeypatch):
    # the tables stream out in prime order, each at the end of the block of m where its
    # prime is last read: with blocks of 64 values, 5's, read at 4, before the walk
    # reaches 1009's last read, at 1008; a prime with nothing to read gets an empty table
    monkeypatch.setattr(ev, "_BLOCK", 64)
    stops, inverses = [], ev._inverses
    monkeypatch.setattr(ev, "_inverses", lambda inv, stop, n: stops.append(stop) or
                        inverses(inv, stop, n))
    cells = [("zeta", (1, 2), None), ("zeta2", (3,), None)]
    tables = ev._sweep([cells, [], cells], [5, 7, 1009])
    assert next(tables) == {cell: oracle(cell, 5) for cell in cells}
    assert max(stops) < 1009
    assert next(tables) == {}
    assert next(tables) == {cell: oracle(cell, 1009) for cell in cells}
    assert max(stops) == 1009
    assert next(tables, None) is None


def test_a_group_sweep_of_a_huge_entry_makes_one_power_column_of_it(monkeypatch):
    # 10**12 weighs m as m^-(10**12) mod the group's primes: one pow per m, not a chain
    # of products up to the entry
    primes = sieve_primes(5, 400)
    cell = ("zeta", (10 ** 12, 3), None)
    want = [{cell: oracle(cell, p)} for p in primes]
    pows = []
    monkeypatch.setattr(ev, "pow", lambda *args: pows.append(args[1:]) or pow(*args),
                        raising=False)
    assert list(ev._sweep([[cell]] * len(primes), primes)) == want
    # m = 1 .. 396, the last read, at p = 397
    assert [e for e, _ in pows] == [10 ** 12] * 396


def test_unplanned_cell_is_swept_alone():
    assert ev.value_of("zeta2star", (2, 1), None, 11) == eval_zeta2_star((2, 1), 11)
    assert ev.value_of("euler", (1, 2), (-1, 1), 7) == eval_euler((1, 2), (-1, 1), 7)
    assert ev.value_of("zeta", (), None, 7) == 1
    with pytest.raises(ValueError):
        ev.value_of("zeta3", (1,), None, 7)
    with pytest.raises(ValueError):
        ev.value_of("euler", (1, 2), (1,), 7)
    with pytest.raises(ValueError):
        ev.value_of("zeta", (1,), None, 9)


def test_values_at_sweeps_only_the_cells_the_cache_lacks(tmp_path, monkeypatch):
    sweeps = []
    sweep = ev._sweep
    monkeypatch.setattr(ev, "_sweep", lambda cells, primes: sweeps.append(
        ([set(cs) for cs in cells], primes)) or sweep(cells, primes))
    path = tmp_path / "c.txt"
    cache = ResidueCache(str(path))
    cache.add("zeta2", (1,), None, 7, 3)
    # the cached cell and the empty index are not swept, the others take one sweep and
    # are added to the cache in column order
    columns = [("zeta2", (1,), None), ("zeta", (1, 2), None), ("zeta2", (2, 1), None),
               ("zeta", (), None)]
    assert ev.values_at(columns, 7, cache) == (3, eval_zeta((1, 2), 7), eval_zeta2((2, 1), 7), 1)
    assert sweeps == [([{("zeta", (1, 2), None), ("zeta2", (2, 1), None)}], [7])]
    cache.close()
    assert path.read_text() == "zeta2,1,,7,3\nzeta,1,2,,7,%d\nzeta2,2,1,,7,%d\n" % (
        eval_zeta((1, 2), 7), eval_zeta2((2, 1), 7))
    # columns the cache holds, and the empty index, make no sweep
    assert ev.values_at(columns, 7, cache) == (3, eval_zeta((1, 2), 7), eval_zeta2((2, 1), 7), 1)
    assert len(sweeps) == 1


def recording_sweep(monkeypatch, sweeps, tables):
    """Patch _sweep to record ([its cells as sets], primes) and each table it yields."""
    sweep = ev._sweep

    def recording(cells, primes):
        sweeps.append(([set(cs) for cs in cells], list(primes)))
        for table in sweep(cells, primes):
            tables.append(table)
            yield table
    monkeypatch.setattr(ev, "_sweep", recording)


def test_values_at_sweeps_its_misses_once_at_their_prime(monkeypatch):
    sweeps, tables = [], []
    recording_sweep(monkeypatch, sweeps, tables)
    # the empty index is not swept, the others take one sweep, keyed by their cells
    columns = [("zeta", (1, 2), None), ("zeta2", (2, 1), None), ("zeta", (), None)]
    assert ev.values_at(columns, 7) == (eval_zeta((1, 2), 7), eval_zeta2((2, 1), 7), 1)
    assert sweeps == [([{("zeta", (1, 2), None), ("zeta2", (2, 1), None)}], [7])]
    assert tables == [{("zeta", (1, 2), None): eval_zeta((1, 2), 7),
                       ("zeta2", (2, 1), None): eval_zeta2((2, 1), 7)}]
    # compute_cell reads a swept cell from the table: it does not sweep
    assert ev.compute_cell("zeta2", (2, 1), None, tables[0]) == eval_zeta2((2, 1), 7)
    assert len(sweeps) == 1
    # each values_at is one sweep of its own misses, at its own prime
    assert ev.values_at([("zeta2", (2, 1), None), ("zeta2", (1,), None)], 11) == (
        eval_zeta2((2, 1), 11), eval_zeta2((1,), 11))
    assert sweeps[1:] == [([{("zeta2", (2, 1), None), ("zeta2", (1,), None)}], [11])]
    assert tables[1:] == [{("zeta2", (2, 1), None): eval_zeta2((2, 1), 11),
                           ("zeta2", (1,), None): eval_zeta2((1,), 11)}]
    # columns the cache holds and the empty index alone make no sweep
    cache = ResidueCache()
    cache.add("zeta2", (3,), None, 7, eval_zeta2((3,), 7))
    assert ev.values_at([("zeta", (), None)], 7) == (1,)
    assert ev.values_at([("zeta2", (), None), ("zeta2", (3,), None)], 7, cache) == (
        1, eval_zeta2((3,), 7))
    assert len(sweeps) == 2


@pytest.mark.parametrize("cached", [False, True])
def test_values_at_computes_a_repeated_missing_column_once(monkeypatch, cached):
    computed, added = [], []
    compute, add = ev.compute_cell, ResidueCache.add
    monkeypatch.setattr(ev, "compute_cell", lambda *args: computed.append(args[:3]) or compute(*args))
    monkeypatch.setattr(ResidueCache, "add", lambda self, *args: added.append(args) or add(self, *args))
    cache = ResidueCache() if cached else None
    cell, other = ("zeta2", (2, 1), None), ("zeta", (3,), None)
    want = (eval_zeta2((2, 1), 11), eval_zeta((3,), 11))
    assert ev.values_at([cell, other, cell, other, cell], 11, cache) == want + want + want[:1]
    assert computed == [cell, other]
    assert added == ([(*cell, 11, want[0]), (*other, 11, want[1])] if cached else [])


@pytest.mark.parametrize("cached", [False, True])
def test_values_at_gives_the_empty_index_1_unchecked(monkeypatch, cached):
    # beside a held and a missing cell, each column of the empty index is 1, warm and
    # cold: values_at trusts it, with no check_cell and no value_of; the one check is
    # the cache's own, of the cell it adds
    held, missing, empty = ("zeta2", (1,), None), ("zeta", (2, 1), None), ("zeta2", (), None)
    cache = None
    if cached:
        cache = ResidueCache()
        cache.add(*held, 11, eval_zeta2((1,), 11))
    checked, check = [], ev.check_cell
    monkeypatch.setattr(ev, "check_cell", lambda *cell: checked.append(cell) or check(*cell))
    monkeypatch.setattr(ev, "value_of", lambda *args: pytest.fail("values_at called value_of"))
    columns = [empty, held, empty, missing, ("zeta", (), None), empty]
    want = (1, eval_zeta2((1,), 11), 1, eval_zeta((2, 1), 11), 1, 1)
    for _ in range(2):
        assert ev.values_at(columns, 11, cache) == want
    assert checked == ([missing] if cached else [])


def test_table_holds_one_prime_after_a_run_over_many(monkeypatch):
    # a run over many primes sweeps them as one group, whose table of each prime holds
    # that prime's cells, and the module keeps nothing: a repeated cell without a cache
    # is swept again
    tables, sweeps = [], []
    recording_sweep(monkeypatch, sweeps, tables)
    primes = sieve_primes(5, 120)
    assert len(primes) <= ev._GROUP
    column("zeta2", (2, 1), primes=primes)
    assert tables == [{("zeta2", (2, 1), None): eval_zeta2((2, 1), p)} for p in primes]
    for p in primes:
        ev.value_of("zeta2star", (1, 2), None, p)
        ev.value_of("zeta2star", (1, 2), None, p)
    assert [q for _, q in sweeps] == [primes] + [[p] for p in primes for _ in range(2)]
    assert [name for name, v in vars(ev).items()
            if not name.startswith("__") and isinstance(v, (dict, list, set))] == []


def test_signs_may_be_any_sequence():
    want = eval_euler((1, 2), (1, -1), 7)
    assert ev.value_of("euler", (1, 2), [1, -1], 7) == want
    assert ev.value_of("euler", [1, 2], [1, -1], 7) == want
    cache = ResidueCache()
    assert ev.value_of("euler", (1, 2), [1, -1], 7, cache) == want
    assert cache.get("euler", (1, 2), (1, -1), 7) == want
    assert ev.value_of("euler", [1, 2], [1, -1], 7, cache) == want
    assert len(cache) == 1


def test_cache_round_trip_with_list_signs(tmp_path):
    path = str(tmp_path / "cache.txt")
    want = eval_euler((1, 2), (1, -1), 7)
    cache = ResidueCache(path)
    assert cache.get("euler", [1, 2], [1, -1], 7) is None
    cache.add("euler", [1, 2], [1, -1], 7, want)
    cache.add("euler", (1, 2), (1, -1), 7, want)
    assert cache.get("euler", [1, 2], [1, -1], 7) == want
    cache.close()
    assert open(path).read() == "euler,1,2,+,-,7,%d\n" % want
    cache2 = ResidueCache(path)
    assert cache2.get("euler", [1, 2], [1, -1], 7) == want
    assert cache2.get("euler", (1, 2), (1, -1), 7) == want
    cache2.close()


def test_in_memory_cache_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = ResidueCache()
    column("zeta2", (1, 2), primes=[7, 11], cache=cache)
    assert cache.get("zeta2", (1, 2), None, 11) == eval_zeta2((1, 2), 11)
    assert len(cache) == 2
    cache.close()
    assert list(tmp_path.iterdir()) == []


# --- one column over primes and the cache ---

def test_column_examples(tmp_path):
    assert column("zeta2", (1,), primes=[5, 7]) == {5: 4, 7: 3}
    assert column("zeta", (1,), primes=[5, 7, 11]) == {5: 0, 7: 0, 11: 0}
    assert column("zeta2", (3,), primes=[7]) == {7: 1}
    # the primes are sorted and de-duplicated
    assert column("zeta2", (1,), primes=[7, 5, 7]) == {5: 4, 7: 3}
    with pytest.raises(ValueError):
        column("zeta2", (1,), primes=[])
    with pytest.raises(ValueError):
        column("zeta2", (1,), signs=(1,), primes=[5])
    with pytest.raises(ValueError):
        column("euler", (1,), primes=[5])


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.txt")
    cache = ResidueCache(path)
    column("zeta2", (1, 2), primes=[7, 11], cache=cache)
    column("euler", (1,), signs=(-1,), primes=[5], cache=cache)
    cache.close()

    lines = open(path).read().splitlines()
    assert "zeta2,1,2,,7,1" in lines
    assert "euler,1,-,5,4" in lines

    # a fresh process-like read must serve the same values without recompute
    cache2 = ResidueCache(path)
    assert cache2.get("zeta2", (1, 2), None, 7) == 1
    want = {7: 1, 11: eval_zeta2((1, 2), 11)}
    assert column("zeta2", (1, 2), primes=[7, 11], cache=cache2) == want
    assert len(cache2) == len(lines)
    cache2.close()

    # recomputation from scratch reproduces every cached cell bit-exactly
    for line in lines:
        key, residue = parse_line(line)
        variant, index, signs, p = key
        assert ev.value_of(variant, index, signs, p) == residue


def test_cache_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("zeta2,1,2,,7,1\n\n   \nzeta2,1,2,,11,%d\n" % eval_zeta2((1, 2), 11))
    cache = ResidueCache(str(path))
    assert len(cache) == 2
    assert cache.get("zeta2", (1, 2), None, 7) == 1


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
    assert cells_of(ResidueCache(str(path))._cells) == [
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
    # a load of the one line, which strips it: its key and residue, or an error
    ((key, residue),) = cells_of(ev._parse_lines(line + "\n", "line"))
    return key, residue


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
            cache.add(variant, index, signs, p, ev.value_of(variant, index, signs, p))
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
        want = _parsed(reference_parse_line, line.strip())
        assert _parsed(parse_line, line) == want, line
        if want is not None:
            accepted.append(line)
    assert 2000 < len(accepted) - len(real) < 18000

    # one file of every accepted line (a conflicting repeat left out) loads as
    # the reference reads it, in the same order within each prime
    want, kept = {}, []
    for line in accepted:
        key, residue = reference_parse_line(line.strip())
        if want.setdefault(key[3], {}).setdefault(key[:3], residue) == residue:
            kept.append(line)
    path = tmp_path / "fuzz.txt"
    path.write_text("".join(line + "\n" for line in kept))
    assert cells_of(ResidueCache(str(path))._cells) == cells_of(want)

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
    assert len({id(key[1]) for key, _ in cells_of(cache._cells)}) == len(heads)


# what a load refuses, given to add: a bool entry, an unhashable entry or p, the empty
# index, an unknown variant, signs of the wrong length, a composite, residues out of range,
# and a float, which the line would hold as 3 while memory kept 3.7
@pytest.mark.parametrize("variant, index, signs, p, residue", [
    ("zeta2", (True, 2), None, 7, 3),
    ("zeta2", [[1]], None, 7, 1),
    ("zeta2", (1,), None, [7], 1),
    ("zeta2", 5, None, 7, 1),
    ("euler", (1,), -1, 7, 1),
    ("zeta2", (), None, 7, 1),
    ("bogus", (1,), None, 7, 3),
    ("euler", (1, 2), (1,), 7, 3),
    ("euler", (1,), (1, -1), 7, 3),
    ("zeta2", (1,), None, 9, 3),
    ("zeta2", (1,), None, 7, 7),
    ("zeta2", (1,), None, 7, -1),
    ("zeta2", (1,), None, 7, 3.7),
])
def test_cache_add_refuses_what_a_load_refuses(tmp_path, variant, index, signs, p, residue):
    path = tmp_path / "c.csv"
    cache = ResidueCache(str(path))
    cache.add("zeta", (3,), None, 11, 4)
    with pytest.raises(ValueError):
        cache.add(variant, index, signs, p, residue)
    cache.close()
    # neither a line nor a cell: the file loads, and holds what memory holds
    assert path.read_text() == "zeta,3,,11,4\n"
    assert cells_of(cache._cells) == [(("zeta", (3,), None, 11), 4)]
    assert cells_of(ResidueCache(str(path))._cells) == cells_of(cache._cells)


# what no cache line gives, given to get: an unhashable entry or p, and an index or signs
# that is not a sequence
@pytest.mark.parametrize("variant, index, signs, p", [
    ("zeta2", [[1]], None, 7),
    ("zeta2", (1,), None, [7]),
    ("zeta2", 5, None, 7),
    ("euler", (1,), -1, 7),
])
def test_cache_get_refuses_what_no_line_gives(variant, index, signs, p):
    cache = ResidueCache()
    cache.add("zeta2", (1,), None, 7, 3)
    with pytest.raises(ValueError):
        cache.get(variant, index, signs, p)
    assert cache.get("zeta2", [1], None, 7) == 3 and cache.get("zeta2", (1,), None, 11) is None


def test_cache_add_checks_each_cell_and_prime_once(tmp_path, monkeypatch):
    calls = {"check_cell": 0, "check_prime": 0}
    for name in calls:
        def counted(*args, real=getattr(ev, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(ev, name, counted)
    path = tmp_path / "c.csv"
    cache = ResidueCache(str(path))
    cells = [("zeta2", (1, 2), None), ("euler", [1, 2], [1, -1]), ("zeta", (3,), None)]
    for p in (7, 11, 13):
        for cell in cells:
            cache.add(*cell, p, 1)
    assert calls == {"check_cell": 3, "check_prime": 3}
    # a cell equal to a checked one, as (True, 2) is to (1, 2), is kept as that cell
    cache.add("zeta2", (True, 2), None, 17, 5)
    cache.close()
    assert path.read_text().endswith("zeta,3,,13,1\nzeta2,1,2,,17,5\n")
    assert all(type(k) is int for key, _ in cells_of(cache._cells) for k in key[1])
    assert cells_of(ResidueCache(str(path))._cells) == cells_of(cache._cells)


def test_column_parallel_matches_serial(pools):
    primes = sieve_primes(5, 40)
    assert column("zeta2", (2, 1), primes=primes, jobs=2) == column("zeta2", (2, 1), primes=primes)
    assert pools == [2]


def test_two_workers_over_a_partly_filled_cache_write_what_one_process_writes(
        tmp_path, pools):
    # the cache holds cells at some of the run's primes and at primes outside it; a worker
    # starts from its group's cells and hands back only those it added, in the order read
    columns = [("zeta2", (2, 1)), ("zeta", (1, 2, 3)), ("euler", (1, 2), (1, -1))]
    primes = sieve_primes(5, 60)
    held = [("zeta2", (2, 1), None, p) for p in primes[::3] + [61, 67]]
    held += [("zeta", (5,), None, primes[1]), ("euler", (1, 2), (1, -1), 71)]
    files = []
    for jobs in (1, 2):
        path = tmp_path / ("c%d.csv" % jobs)
        cache = ResidueCache(str(path))
        for cell in held:
            cache.add(*cell, ev.value_of(*cell))
        cache.close()
        cache = ResidueCache(str(path))
        m = build_matrix(columns, primes, cache=cache, jobs=jobs)
        cache.close()
        files.append(path.read_bytes())
        assert cells_of(ResidueCache(str(path))._cells) == cells_of(cache._cells)
        assert len(cache) == len(held) + 3 * len(primes) - len(primes[::3])
        assert m == build_matrix(columns, primes)
    assert files[0] == files[1]
    assert pools == [2]


# the group size the count primes are cut by, and the sizes of a pool's tasks
POOL_GROUPS = {(5000, 2, 64): (1, [1, 1]), (3, 10, 2): (3, [3, 3, 3, 1]),
               (4, 10, 8): (2, [2] * 5), (5000, 10, None): (3, []), (4, 1, 8): (32, []),
               (2, 10, 1): (3, [])}


@pytest.mark.parametrize("jobs, count, cpus, workers", [
    (5000, 2, 64, 2), (3, 10, 2, 2), (4, 10, 8, 4), (5000, 10, None, None), (4, 1, 8, None),
    (2, 10, 1, None),
])
def test_per_prime_caps_its_pool(monkeypatch, jobs, count, cpus, workers):
    # a pool forks all its workers at its first task, so it gets no more than there are
    # groups of the count primes and CPUs, and none at all when that is 1; the groups of
    # consecutive primes are those of _groups alone; a fake pool records its size and its
    # tasks, one group each
    import concurrent.futures

    started, tasks = [], []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, groups, *args):
            tasks.extend(groups)
            return map(fn, groups, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(ev.os, "cpu_count", lambda: cpus)
    group, sizes = POOL_GROUPS[jobs, count, cpus]
    monkeypatch.setattr(ev, "_GROUP", group)
    primes = sieve_primes(5, 3000)[:count]
    cache = ResidueCache()
    got = ev.per_prime(partial(ev._plan_all, [("zeta2", (2, 1), None)]), primes, jobs, cache)
    assert started == ([] if workers is None else [workers])
    assert tasks == [primes[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(len(sizes))]
    assert got == [(eval_zeta2((2, 1), p),) for p in primes]
    assert len(cache) == len(primes)


@pytest.mark.parametrize("start, stop, group, sizes", [
    (5, 400, 32, [32, 32, 12]), (5, 400, 38, [38, 38]), (5, 400, 26, [26, 26, 24]),
    (5, 400, 1, [1] * 76), (1000, 1400, 27, [27, 27]), (10000, 10400, 32, [12, 12, 12, 9]),
    (30000, 30400, 32, [4] * 9 + [3]), (100000, 100400, 32, [1] * 32),
])
def test_groups_are_bounded_by_size_and_by_their_table_of_inverses(
        monkeypatch, start, stop, group, sizes):
    # a group holds at most _GROUP primes; its sweep keeps about its largest prime's count
    # of inverses, each of its product's 30-bit words: at most _WORDS words for a group of
    # more than one prime, so that at large primes its memory stays that of one prime's
    # sweep
    monkeypatch.setattr(ev, "_GROUP", group)
    primes = sieve_primes(start, stop)
    groups = ev._groups(primes)
    assert [len(g) for g in groups] == sizes
    assert list(itertools.chain.from_iterable(groups)) == primes
    for g in groups:
        assert len(g) == 1 or -(-sum(p.bit_length() for p in g) // 30) * g[-1] <= ev._WORDS
    assert ev._groups([]) == []


def test_per_prime_sweeps_only_the_primes_that_miss_a_cell(tmp_path, monkeypatch):
    # each prime's held cells are read once, from its dict; the primes that miss a cell
    # are swept together, once, each for its missing cells alone; the cache file gains
    # the missing cells in column order, prime by prime
    columns = [("zeta2", (2, 1), None), ("zeta", (1, 2), None), ("euler", (1, 2), (1, -1))]
    primes = sieve_primes(5, 60)
    path = tmp_path / "c.csv"
    cache = ResidueCache(str(path))
    full, part = primes[::3], primes[1::3]
    for p in full:
        for cell in columns:
            cache.add(*cell, p, oracle(cell, p))
    for p in part:
        cache.add(*columns[1], p, oracle(columns[1], p))
    cache.flush()
    start = path.read_text()
    reads, sweeps, tables = [], [], []
    cells_at = ResidueCache.cells_at
    monkeypatch.setattr(ResidueCache, "cells_at", lambda self, p: reads.append(p) or
                        cells_at(self, p))
    recording_sweep(monkeypatch, sweeps, tables)
    m = build_matrix(columns, primes, cache)
    cache.close()
    assert m.cells == tuple(tuple(oracle(cell, p) for cell in m.columns) for p in primes)
    assert reads == primes
    missing = [[c for c in columns if p not in full and (p not in part or c != columns[1])]
               for p in primes]
    assert sweeps == [([set(cs) for cs in missing if cs], [p for p in primes if p not in full])]
    assert path.read_text() == start + "".join(
        "%s,%s,%s,%d,%d\n" % (v, ",".join(map(str, ix)), "" if s is None else
                              ",".join("+" if e > 0 else "-" for e in s), p, oracle((v, ix, s), p))
        for p, cs in zip(primes, missing) for v, ix, s in m.columns if (v, ix, s) in cs)


BAD_CELL_CALLS = {
    "value_of": lambda: ev.value_of("zeta2", (0,), None, 7),
    "value_of with a cache": lambda: ev.value_of("zeta2", (0,), None, 7, ResidueCache()),
    "evaluate_combination term": lambda: evaluate_combination(IndexCombination.term((0,)),
                                                              "zeta2", 7),
    "evaluate_combination variant": lambda: evaluate_combination(IndexCombination.term((1,)),
                                                                 "bogus", 7),
    "evaluate_combination variant of 0": lambda: evaluate_combination(IndexCombination.zero(),
                                                                      "bogus", 7),
    "ppt_constants": lambda: ppt_constants(-1, [7, 11]),
    # the empty index is 1 only at a checked cell and prime
    "value_of empty index variant": lambda: ev.value_of("bogus", (), None, 7),
    "value_of empty index prime": lambda: ev.value_of("zeta2", (), None, 4),
    "value_of empty index signs": lambda: ev.value_of("euler", (), None, 7),
    "evaluate_combination empty index prime": lambda: evaluate_combination(
        IndexCombination.term(()), "zeta2", 4),
    # the zero combination has no term to check its prime
    "evaluate_combination zero prime": lambda: evaluate_combination(
        IndexCombination.zero(), "zeta2", 4),
    "build_matrix": lambda: build_matrix([("zeta2", (1.5,))], [7]),
    # an index or signs that is not a sequence, which no cache line or table key takes
    "value_of index not a sequence": lambda: ev.value_of("zeta2", 5, None, 7),
    "value_of signs not a sequence": lambda: ev.value_of("euler", (1,), 5, 7),
    "suite rows": lambda: SUITES["key"]._replace(
        rows=lambda wmax: [("bad", 1, [(1, ("zeta2", (0,)))], [])]).run({}, [7]),
}


@pytest.mark.parametrize("name", sorted(BAD_CELL_CALLS))
def test_every_entry_rejects_a_bad_cell(name):
    # the sweep trusts its cells, so each way into it checks them
    with pytest.raises(ValueError):
        BAD_CELL_CALLS[name]()


def _warm_value_of(variant, index):
    # the cache holds (1, 2), which (True, 2) equals as a key
    cache = ResidueCache()
    ev.value_of("zeta2", (1, 2), None, 7, cache)
    return ev.value_of(variant, index, None, 7, cache)


# cells that values_at and _sweep, internal routes, take unchecked: a wrong variant, which
# they would sweep as zeta, an entry 0, and an entry True, which a cache line would hold
# as "True", refused by the next load; every public entry refuses them, cold and warm
@pytest.mark.parametrize("variant, index", [("bogus", (1, 2)), ("zeta2", (0,)),
                                            ("zeta2", (True, 2))])
@pytest.mark.parametrize("entry", [
    lambda v, ix: ev.value_of(v, ix, None, 7),
    _warm_value_of,
    lambda v, ix: build_matrix([(v, ix)], [7]),
    lambda v, ix: evaluate_combination(IndexCombination.term(ix), v, 7),
    lambda v, ix: SUITES["key"]._replace(rows=lambda wmax: [("bad", 1, [(1, (v, ix))], [])]).run(
        {}, [7]),
], ids=["value_of", "value_of warm", "build_matrix", "evaluate_combination", "suite row"])
def test_every_entry_refuses_the_cells_the_internal_routes_trust(entry, variant, index):
    with pytest.raises(ValueError):
        entry(variant, index)


def _warm_value_of_at(p):
    # the cache holds (1, 2) at 7, which 7.0 equals as a key, from the oracle: the
    # sweep is stubbed
    cache = ResidueCache()
    cache.add("zeta2", (1, 2), None, 7, eval_zeta2((1, 2), 7))
    return ev.value_of("zeta2", (1, 2), None, p, cache)


# primes that values_at and _sweep, internal routes, take unchecked: 4 and 9, which a
# sweep would sum over as if prime, and 7.0, which finds the cache's cells at 7; every
# entry refuses them, after good primes too, before any sweep
@pytest.mark.parametrize("p", [4, 9, 7.0])
@pytest.mark.parametrize("entry", [
    lambda p: ev.value_of("zeta2", (1, 2), None, p),
    _warm_value_of_at,
    lambda p: evaluate_combination(IndexCombination.term((1, 2)), "zeta2", p),
    lambda p: build_matrix([("zeta2", (1, 2))], [11, 13, p]),
    lambda p: SUITES["key"].run({"wmax": 3}, [11, 13, p]),
    lambda p: SUITES["ppt"].run({"rmax": 1}, [11, 13, p]),
    lambda p: ppt_constants(3, [11, 13, p]),
], ids=["value_of", "value_of warm", "evaluate_combination", "build_matrix", "suite",
        "ppt suite", "ppt_constants"])
def test_every_entry_refuses_a_bad_prime_before_any_sweep(monkeypatch, entry, p):
    monkeypatch.setattr(ev, "_sweep", lambda cells, primes: pytest.fail("swept at %r" % (primes,)))
    with pytest.raises(ValueError, match="p must be a prime >= 5, got %r" % (p,)):
        entry(p)


def test_cache_add_after_close_keeps_the_lines_added_since_the_load(tmp_path):
    # the file is cut back to its complete lines once per load, not at every reopen
    path = tmp_path / "c.csv"
    path.write_text("zeta2,1,,7,3\n")
    cache = ResidueCache(str(path))
    cache.add("zeta2", (2,), None, 7, 1)
    cache.close()
    cache.add("zeta2", (3,), None, 7, 6)
    cache.close()
    assert path.read_text() == "zeta2,1,,7,3\nzeta2,2,,7,1\nzeta2,3,,7,6\n"
    assert len(ResidueCache(str(path))) == len(cache) == 3


def test_cache_formats_each_head_once(tmp_path, monkeypatch):
    formatted = []
    index_to_str = ev.index_to_str
    monkeypatch.setattr(ev, "index_to_str", lambda index: formatted.append(index) or
                        index_to_str(index))
    cache = ResidueCache(str(tmp_path / "c.csv"))
    for p in (5, 7, 11):
        cache.add("euler", (1, 2), (1, -1), p, 1)
        cache.add("zeta2", [2, 1], None, p, 1)
    cache.close()
    assert formatted == [(1, 2), (2, 1)]
    assert (tmp_path / "c.csv").read_text() == "".join(
        "euler,1,2,+,-,%d,1\nzeta2,2,1,,%d,1\n" % (p, p) for p in (5, 7, 11))


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_cache_file_holds_every_line_before_close(tmp_path, monkeypatch, pools, jobs):
    # add() buffers its line; per_prime flushes once per prime, so the lines of a matrix
    # are in the file when build_matrix returns, with the cache still open
    path = tmp_path / "c.csv"
    cache = ResidueCache(str(path))
    cache.add("zeta2", (1,), None, 7, 3)
    assert path.read_text() == ""
    cache.flush()
    assert path.read_text() == "zeta2,1,,7,3\n"
    flushes = []
    flush = ResidueCache.flush
    monkeypatch.setattr(ResidueCache, "flush", lambda self: flushes.append(1) or flush(self))
    primes = sieve_primes(5, 60)
    build_matrix([("zeta2", (2, 1)), ("zeta", (1, 2, 3)), ("euler", (1, 2), (1, -1))], primes,
                 cache=cache, jobs=jobs)
    assert len(path.read_text().splitlines()) == len(cache) == 1 + 3 * len(primes)
    assert cells_of(ResidueCache(str(path))._cells) == cells_of(cache._cells)
    assert len(flushes) == len(primes)
    assert pools == ([] if jobs == 1 else [2])
    cache.close()
