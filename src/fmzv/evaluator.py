"""Evaluation of finite multiple zeta value variants mod p.

Index convention: in zeta(k_1,...,k_r) the exponent k_1 is attached to the
smallest summation variable, so the sum runs over 0 < m_1 < ... < m_r < p
(level 1) or with m_r <= (p-1)/2 (level 2, "below p/2").  Variants:

  zeta       level 1, strict sum up to p-1
  zeta2      level 2, strict sum up to (p-1)/2
  zeta2star  level 2, non-strict (<=) sum up to (p-1)/2
  euler      level 1 with numerator signs eps_i^(m_i), eps_i in {+1,-1}

A value takes one route (`value_of`): the residue cache if one is given, else
the table the caller passes, which `plan` returned for the cells it swept at
that prime, else a sweep of the cell alone.  The module keeps no state: the
cache is the only store that outlives a call, so a repeated single-cell call
without a cache sweeps again; pass `ResidueCache()` to serve it from memory.

A sweep (`plan`, `_sweep`) evaluates many cells of one prime at once: the
requested indices and all their prefixes form a trie with one accumulator
per node, T_node(m) = T_node(m-1) + T_parent(m-1) * m^(-k) for the node's
last entry k, and one pass over m = 1..p-1 advances every node.  zeta and
euler share a trie keyed by (k, sign); zeta2 is that trie read at
m = (p-1)/2; zeta2star has its own trie, updated parent-first so that a
node reads its parent at m itself.

`eval_*` and `_dp_sum` evaluate one cell on their own with the streaming DP
and are kept as the independent oracle route the tests compare against; no
production path calls them.
"""

import os
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

from .modmath import batch_inv, check_prime, is_prime

__all__ = [
    "VARIANTS",
    "eval_zeta",
    "eval_zeta2",
    "eval_zeta2_star",
    "eval_euler",
    "eval_even_form",
    "eval_odd_form",
    "eval_table",
    "check_cell",
    "value_of",
    "ResidueTable",
    "ResidueCache",
    "CacheError",
    "index_to_str",
    "parse_index",
    "signs_to_str",
    "parse_signs",
]

VARIANTS = ("zeta", "zeta2", "zeta2star", "euler")

_BLOCK = 4096


class CacheError(Exception):
    pass


def check_index(index) -> tuple[int, ...]:
    index = tuple(index)
    if any(not isinstance(k, int) or k < 1 for k in index):
        raise ValueError("index entries must be positive integers, got %r" % (index,))
    return index


def check_cell(variant, index, signs):
    """(variant, index, signs) of a cell, with index and signs as tuples.

    Raises ValueError unless the variant is known, the index entries are
    positive integers, and signs are given exactly for euler, as a +/-1
    vector of the index length.
    """
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r" % (variant,))
    index = check_index(index)
    if (variant == "euler") != (signs is not None):
        raise ValueError("signs are required for euler and only for euler")
    if signs is not None:
        signs = tuple(signs)
        if len(signs) != len(index) or any(e not in (1, -1) for e in signs):
            raise ValueError("signs must be a +/-1 vector of the index length")
    return variant, index, signs


def index_to_str(index) -> str:
    return ",".join(str(k) for k in index)


def parse_index(s: str) -> tuple[int, ...]:
    if not s:
        return ()
    return check_index(int(part) for part in s.split(","))


def signs_to_str(signs) -> str:
    return ",".join("+" if e > 0 else "-" for e in signs)


def parse_signs(s: str) -> tuple[int, ...]:
    if not s:
        return ()
    out = []
    for part in s.split(","):
        if part == "+":
            out.append(1)
        elif part == "-":
            out.append(-1)
        else:
            raise ValueError("bad sign %r" % part)
    return tuple(out)


def _dp_sum(ks, values, p, strict=True, signs=None):
    # core streaming recurrence; `values` iterates the summation range ascending
    r = len(ks)
    if r == 0:
        return 1
    T = [1] + [0] * r
    order = range(r, 0, -1) if strict else range(1, r + 1)
    it = iter(values)
    while True:
        block = list(islice(it, _BLOCK))
        if not block:
            break
        invs = batch_inv(block, p)
        for m, im in zip(block, invs):
            for j in order:
                t = T[j - 1]
                if t:
                    w = pow(im, ks[j - 1], p)
                    if signs is not None and signs[j - 1] < 0 and m & 1:
                        w = p - w
                    T[j] = (T[j] + t * w) % p
    return T[r]


def eval_zeta(index, p: int) -> int:
    """Level-1 value: sum over 0 < m_1 < ... < m_r < p of prod m_i^(-k_i) mod p."""
    index = check_index(index)
    check_prime(p)
    return _dp_sum(index, range(1, p), p)


def eval_zeta2(index, p: int) -> int:
    """Level-2 value: same sum restricted to m_r <= (p-1)/2."""
    index = check_index(index)
    check_prime(p)
    return _dp_sum(index, range(1, (p - 1) // 2 + 1), p)


def eval_zeta2_star(index, p: int) -> int:
    """Level-2 star value: non-strict sum 0 < m_1 <= ... <= m_r <= (p-1)/2."""
    index = check_index(index)
    check_prime(p)
    return _dp_sum(index, range(1, (p - 1) // 2 + 1), p, strict=False)


def eval_euler(index, signs, p: int) -> int:
    """Signed level-1 sum with numerators eps_i^(m_i)."""
    _, index, signs = check_cell("euler", index, signs)
    check_prime(p)
    return _dp_sum(index, range(1, p), p, signs=signs)


def eval_even_form(index, p: int) -> int:
    """2^k times the level-1-style sum over even n_1 < ... < n_r < p.

    Must agree with eval_zeta2; kept as an independent summation route.
    """
    index = check_index(index)
    check_prime(p)
    k = sum(index)
    return pow(2, k, p) * _dp_sum(index, range(2, p, 2), p) % p


def eval_odd_form(index, p: int) -> int:
    """(-2)^k times the sum over odd n_r < ... < n_1 < p (exponents reversed).

    Must agree with eval_zeta2; kept as an independent summation route.
    """
    index = check_index(index)
    check_prime(p)
    k = sum(index)
    return pow(p - 2, k, p) * _dp_sum(tuple(reversed(index)), range(1, p, 2), p) % p


# ---------------------------------------------------------------------------
# cache + batch driver

@dataclass
class ResidueTable:
    variant: str
    index: tuple[int, ...]
    signs: tuple[int, ...] | None
    rows: dict[int, int] = field(default_factory=dict)


def _parse_head(head: str):
    """(variant, index, signs) of a cache line's head, `variant,index,signs`."""
    variant, *middle = head.split(",")
    if middle and middle[-1] == "":
        index, signs = middle[:-1], None
    else:
        cut = next((i for i, x in enumerate(middle) if x in ("+", "-")), None)
        if cut is None:
            raise ValueError("no signs field")
        index, signs = middle[:cut], parse_signs(",".join(middle[cut:]))
    if not index:
        raise ValueError("empty index")  # the cache never stores the empty index
    return check_cell(variant, map(int, index), signs)


def _parse_cell(line: str, heads: dict, primes: dict):
    """Key and residue of one cache line; raises on a malformed line.

    heads maps a head already seen to its _parse_head result, primes a p
    already seen to its prime test, so that each is checked once per load;
    the integers and 0 <= residue < p are checked on every line.
    """
    head, p, residue = line.rsplit(",", 2)
    p, residue = int(p), int(residue)
    cell = heads.get(head)
    if cell is None:
        cell = heads[head] = _parse_head(head)
    prime = primes.get(p)
    if prime is None:
        prime = primes[p] = p >= 5 and is_prime(p)
    if not prime or not 0 <= residue < p:
        raise ValueError("bad prime or residue")
    return cell + (p,), residue


class ResidueCache:
    """Append-only text cache, one cell per line: variant,index,signs,p,residue.

    The whole file is read at construction; add() appends a line immediately.
    Every line is checked when read: a distinct head (variant,index,signs) is
    validated and a distinct prime tested once per load, and each line's
    integers and residue range on their own; cells with one head share one
    index tuple.  A line repeating a cell with another residue is corruption,
    as is any other malformed line (CacheError); an identical repeat is read
    once.  Only one process may write (the CLI and suites route all writes
    through the parent process).  A last line without a newline is an append
    cut short by a crash (its residue may be cut): it is ignored and cut off
    by the next add().  Without a path the cache lives in memory only.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._cells: dict[tuple, int] = {}
        self._fh = None
        self._complete = None  # length of the file's complete lines when loaded
        if path is not None and os.path.exists(path):
            self._load()

    def _load(self):
        with open(self.path, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise CacheError("%s: byte %d is not ASCII: not a cache file" % (self.path, exc.start))
        self._complete = text.rfind("\n") + 1
        cells = self._cells
        heads, primes = {}, {}  # this load's validated heads and prime tests
        for lineno, raw in enumerate(text[:self._complete].split("\n")[:-1], start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                key, residue = _parse_cell(line, heads, primes)
            except Exception:
                raise CacheError("%s:%d: bad cache line: %r" % (self.path, lineno, line))
            if cells.setdefault(key, residue) != residue:
                raise CacheError("%s:%d: cache line %r conflicts with an earlier line for the "
                                 "same cell" % (self.path, lineno, line))

    def get(self, variant, index, signs, p):
        return self._cells.get((variant, tuple(index), signs, p))

    def add(self, variant, index, signs, p, residue):
        key = (variant, tuple(index), signs, p)
        if key in self._cells:
            return
        self._cells[key] = residue
        if self.path is None:
            return
        if self._fh is None:
            if self._complete is not None:
                os.truncate(self.path, self._complete)
            self._fh = open(self.path, "a", encoding="ascii")
        sgn = signs_to_str(signs) if signs is not None else ""
        self._fh.write("%s,%s,%s,%d,%d\n" % (variant, index_to_str(index), sgn, p, residue))
        self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __len__(self):
        return len(self._cells)


def _trie(words):
    """The prefix-closed trie of the words.

    pos maps every prefix to its node, the root () being node 0; steps lists
    (node, parent node, last letter) for every other node, parents first.
    """
    nodes = sorted({w[:d] for w in words for d in range(len(w) + 1)}, key=lambda w: (len(w), w))
    pos = {w: i for i, w in enumerate(nodes)}
    return pos, [(i, pos[w[:-1]], w[-1]) for i, w in enumerate(nodes) if w]


def _sweep(cells, p) -> dict:
    """{(variant, index, signs): value mod p} for the cells, from one pass over m."""
    check_prime(p)
    strict, star = {}, {}
    for cell in cells:
        variant, index, signs = cell = check_cell(*cell)
        if variant == "zeta2star":
            star[cell] = index
        else:
            strict[cell] = signs if variant == "euler" else index
    emax = max((k for _, index, _ in strict.keys() | star.keys() for k in index), default=0)
    # a letter is the place of its weight: m^-k at k, (-1)^m m^-k at emax + 1 + k
    for cell in strict:
        if cell[0] == "euler":
            strict[cell] = tuple(k if e > 0 else emax + 1 + k for k, e in zip(cell[1], cell[2]))
    signed = any(cell[0] == "euler" and -1 in cell[2] for cell in strict)
    pos1, steps1 = _trie(strict.values())
    pos2, steps2 = _trie(star.values())
    # strict sums: deepest first, so that a node reads its parent at m - 1
    steps1.reverse()
    acc1 = [1] + [0] * len(steps1)
    acc2 = [1] + [0] * len(steps2)
    half = (p - 1) // 2
    top = p - 1 if any(cell[0] != "zeta2" for cell in strict) else half
    out = {}
    for m, im in enumerate(batch_inv(list(range(1, top + 1)), p), 1):
        weights = [1, im]
        for _ in range(emax - 1):
            weights.append(weights[-1] * im % p)
        if signed:
            weights += weights if m % 2 == 0 else [p - w for w in weights]
        for i, j, e in steps1:
            acc1[i] = (acc1[i] + acc1[j] * weights[e]) % p
        if m <= half:
            # non-strict sums: parents first, so that a node reads its parent at m
            for i, j, e in steps2:
                acc2[i] = (acc2[i] + acc2[j] * weights[e]) % p
        if m == half:
            for cell, w in strict.items():
                if cell[0] == "zeta2":
                    out[cell] = acc1[pos1[w]]
    for cell, w in strict.items():
        if cell[0] != "zeta2":
            out[cell] = acc1[pos1[w]]
    for cell, w in star.items():
        out[cell] = acc2[pos2[w]]
    return out


def plan(cells, p: int, cache: ResidueCache | None = None) -> dict:
    """{(variant, index, signs, p): value}, from one sweep, of every (variant, index,
    signs) cell that value_of will be asked for at p and that the cache does not hold."""
    todo = {}
    for variant, index, signs in cells:
        key = (variant, tuple(index), None if signs is None else tuple(signs), p)
        if key[1] and (cache is None or key not in cache._cells):
            todo[key[:3]] = None
    return {(*cell, p): v for cell, v in _sweep(todo, p).items()} if todo else {}


def compute_cell(variant: str, index, signs, p: int, table=None) -> int:
    """Uncached single-cell evaluation: the cell's value in table (what plan returned)
    if it is there, else a sweep of this cell alone."""
    key = (variant, tuple(index), None if signs is None else tuple(signs), p)
    if table and key in table:
        return table[key]
    (v,) = _sweep([key[:3]], p).values()
    return v


def value_of(variant: str, index, signs, p: int, cache: ResidueCache | None = None,
             table=None) -> int:
    """Single-cell evaluation: the cache's value if given, else compute_cell's, which
    the cache then keeps."""
    index = tuple(index)
    if not index:
        return 1
    signs = None if signs is None else tuple(signs)
    v = None if cache is None else cache.get(variant, index, signs, p)
    if v is None:
        v = compute_cell(variant, index, signs, p, table)
        if cache is not None:
            cache.add(variant, index, signs, p, v)
    return v


def values_at(columns, p: int, cache: ResidueCache | None = None) -> tuple:
    """Values of the (variant, index, signs) columns at one prime."""
    table = plan(columns, p, cache)
    return tuple(value_of(v, ix, s, p, cache, table) for v, ix, s in columns)


def _prime_task(fn, known, p):
    # the worker's cache lives in memory and holds its prime's cells: the parent's plus new ones
    cache = ResidueCache()
    cache._cells.update(known)
    result = fn(p, cache)
    return result, list(cache._cells.items())[len(known):]


def per_prime(fn, primes, jobs=1, cache=None) -> list:
    """[fn(p, cache) for p in primes]; with jobs > 1 the primes go to a worker pool.

    A worker starts from an in-memory cache of the parent's cache cells at its prime
    and sends back the cells it added, in the order it read them; the parent, the
    only writer, adds them to its cache.
    """
    primes = list(primes)
    if jobs <= 1 or len(primes) < 2:
        return [fn(p, cache) for p in primes]
    known = {p: {} for p in primes}
    for key, v in (cache._cells if cache is not None else {}).items():
        if key[3] in known:
            known[key[3]][key] = v
    import concurrent.futures

    out = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        for result, cells in pool.map(partial(_prime_task, fn), [known[p] for p in primes], primes):
            out.append(result)
            if cache is not None:
                for key, v in cells:
                    cache.add(*key, v)
    return out


def eval_table(variant, index, signs=None, primes=(), cache=None, jobs=1) -> ResidueTable:
    """Evaluate one cell per prime; primes must be nonempty and ascending."""
    variant, index, signs = check_cell(variant, index, signs)
    primes = list(primes)
    if not primes or any(b <= a for a, b in zip(primes, primes[1:])):
        raise ValueError("primes must be a nonempty ascending list")
    for p in primes:
        check_prime(p)
    values = per_prime(partial(values_at, ((variant, index, signs),)), primes, jobs, cache)
    return ResidueTable(variant=variant, index=index, signs=signs,
                        rows={p: v for p, (v,) in zip(primes, values)})
