"""Evaluation of finite multiple zeta value variants mod p.

Index convention: in zeta(k_1,...,k_r) the exponent k_1 is attached to the
smallest summation variable, so the sum runs over 0 < m_1 < ... < m_r < p
(level 1) or with m_r <= (p-1)/2 (level 2, "below p/2").  Variants:

  zeta       level 1, strict sum up to p-1
  zeta2      level 2, strict sum up to (p-1)/2
  zeta2star  level 2, non-strict (<=) sum up to (p-1)/2
  euler      level 1 with numerator signs eps_i^(m_i), eps_i in {+1,-1}

A value takes one route, `values_at`: the cells the residue cache holds at p
are read from its dict of p (`ResidueCache.cells_at`); the other ones, the empty
index aside, are swept together once, by `_sweep`, and each distinct one is read
from that table by `compute_cell` and added to the cache in column order; the
empty index is 1.  `value_of` is that route for one cell, and the one
single-cell evaluation that checks its cell and prime.  The cache is the only
store of values that outlives a call, so a repeated single-cell call without a
cache sweeps again; pass `ResidueCache()` to serve it from memory.

A sweep (`values_at`, `compute_cell`, `_sweep`: internal routes) evaluates many
cells of one prime at once, and trusts them and their prime: each is checked
once per run, where it enters (`build_matrix`, `Suite.run`, `ppt_constants`,
`evaluate_combination`, and `value_of`).  The requested indices and all
their prefixes form a trie whose shape does not depend on the prime: `_shape`
keeps the shapes of the last few cell tuples swept, which a run sweeps again at
prime after prime, and holds no value; each sweep keeps its node sums in a list
of its own.  The node sums obey
T_node(m) = T_node(m-1) + T_parent(m-1) * w(m), with w(m) = m^(-k) for the
node's last entry k, times (-1)^m for a - sign; as m^(p-1) = 1 mod p, an entry
k >= p enters the trie as its residue in 1..p-1, in a trie built for that sweep
alone.  The sweep walks the trie depth first, column by column, over blocks of
at most _BLOCK values of m, carrying each node's sum from one block to the
next: an inner node is one prefix-sum column of T_node over the block, reduced
mod p only if another column is summed from it, and a leaf is one dot product
of its parent's column with w.  The inverses of 1..p-1 come from the recurrence
1/i = -(p // i) / (p % i).  zeta and euler share a trie; zeta2 is that trie
read at m = (p-1)/2, where a leaf read at both ends splits its dot product;
zeta2star has its own trie, whose nodes read their parent at m itself, one
place later in its column.

`eval_*` evaluate one cell on their own, each by one pass of the textbook DP
`_dp_sum` over its summation range, with one batched inverse (`batch_inv`) of
the whole range; they are kept as the independent oracle route the tests
compare against, and no production path calls them.  `_BLOCK` is the sweep's.
"""

import os
from functools import lru_cache, partial
from itertools import accumulate, islice
from operator import mul

from .modmath import batch_inv, check_prime, is_prime

__all__ = [
    "VARIANTS",
    "eval_zeta",
    "eval_zeta2",
    "eval_zeta2_star",
    "eval_euler",
    "eval_even_form",
    "eval_odd_form",
    "check_cell",
    "value_of",
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


def _sequence(seq, what) -> tuple:
    try:
        return tuple(seq)
    except TypeError:
        raise ValueError("%s must be a sequence, got %r" % (what, seq)) from None


def check_index(index) -> tuple[int, ...]:
    index = _sequence(index, "index")
    if any(not isinstance(k, int) or isinstance(k, bool) or k < 1 for k in index):
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
        signs = _sequence(signs, "signs")
        if len(signs) != len(index) or any(e not in (1, -1) for e in signs):
            raise ValueError("signs must be a +/-1 vector of the index length")
    return variant, index, signs


def index_to_str(index) -> str:
    return ",".join(map(str, index))


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


def _dp_sum(ks, p, start=1, step=1, half=False, strict=True, signs=None):
    """The sum over m_1 < ... < m_r (<= if not strict) of prod m_i^-k_i, times (-1)^m_i
    for a - sign, each m_i in range(start, p, step), and below p/2 if half.  T[j] is the
    sum over the first j entries with m_j at most the m reached."""
    check_prime(p)
    values = range(start, (p + 1) // 2 if half else p, step)
    T = [1] + [0] * len(ks)
    order = range(len(ks), 0, -1) if strict else range(1, len(ks) + 1)
    for m, im in zip(values, batch_inv(values, p)):
        for j in order:
            w = pow(im, ks[j - 1], p)
            if signs is not None and signs[j - 1] < 0 and m & 1:
                w = p - w
            T[j] = (T[j] + T[j - 1] * w) % p
    return T[-1]


def eval_zeta(index, p: int) -> int:
    """Level-1 value: sum over 0 < m_1 < ... < m_r < p of prod m_i^(-k_i) mod p."""
    return _dp_sum(check_index(index), p)


def eval_zeta2(index, p: int) -> int:
    """Level-2 value: same sum restricted to m_r <= (p-1)/2."""
    return _dp_sum(check_index(index), p, half=True)


def eval_zeta2_star(index, p: int) -> int:
    """Level-2 star value: non-strict sum 0 < m_1 <= ... <= m_r <= (p-1)/2."""
    return _dp_sum(check_index(index), p, half=True, strict=False)


def eval_euler(index, signs, p: int) -> int:
    """Signed level-1 sum with numerators eps_i^(m_i)."""
    _, index, signs = check_cell("euler", index, signs)
    return _dp_sum(index, p, signs=signs)


def eval_even_form(index, p: int) -> int:
    """2^k times the level-1-style sum over even n_1 < ... < n_r < p.

    Must agree with eval_zeta2; kept as an independent summation route.
    """
    index = check_index(index)
    return _dp_sum(index, p, start=2, step=2) * pow(2, sum(index), p) % p


def eval_odd_form(index, p: int) -> int:
    """(-2)^k times the sum over odd n_r < ... < n_1 < p (exponents reversed).

    Must agree with eval_zeta2; kept as an independent summation route.
    """
    index = check_index(index)
    return _dp_sum(index[::-1], p, step=2) * pow(-2, sum(index), p) % p


# ---------------------------------------------------------------------------
# cache + batch driver

def _checked_head(cell):
    """The cell as check_cell returns it, and its cache line head `variant,index,signs,`;
    raises ValueError for a cell a load refuses."""
    variant, index, signs = cell = check_cell(*cell)
    if not index:
        raise ValueError("the cache holds no empty index")
    return cell, "%s,%s,%s," % (variant, index_to_str(index),
                                "" if signs is None else signs_to_str(signs))


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
    return _checked_head((variant, map(int, index), signs))[0]


def _parse_lines(text: str, path) -> dict:
    """{p: {(variant, index, signs): residue}} of text's lines, each newline-ended, in
    first-seen order; raises CacheError at path's first bad line.  A line looks its head
    and p up by their text: each distinct one is checked once per load, its residue always."""
    cells, heads, fields = {}, {}, {}  # fields: a p field's text -> (p, p's cells)
    for lineno, raw in enumerate(text.split("\n")[:-1], start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            head, field, residue = line.rsplit(",", 2)
            cell = heads.get(head) or heads.setdefault(head, _parse_head(head))
            at = fields.get(field)
            if at is None:
                p = int(field)
                if p not in cells and not (p >= 5 and is_prime(p)):
                    raise ValueError("bad prime")
                at = fields[field] = p, cells.setdefault(p, {})
            p, held = at
            if not 0 <= (residue := int(residue)) < p:
                raise ValueError("bad residue")
        except Exception:
            raise CacheError("%s:%d: bad cache line: %r" % (path, lineno, line))
        if held.setdefault(cell, residue) != residue:
            raise CacheError("%s:%d: cache line %r conflicts with an earlier line for the "
                             "same cell" % (path, lineno, line))
    return cells


class ResidueCache:
    """Append-only text cache, one cell per line: variant,index,signs,p,residue.

    Cells are held per prime, {p: {(variant, index, signs): residue}}.  The file is
    read at construction, in one loop (_parse_lines); add() appends a line to a buffer
    that flush() writes out (per_prime flushes once per prime), as close() does.  Every
    line is checked when read: a distinct head is validated and a distinct prime tested
    once per load, each line's residue and its range on their own; cells with one head
    share one tuple.  A cell repeated with another residue is corruption, as is any
    other malformed line (CacheError); an identical repeat is read once.  Only one
    process may write (the CLI and suites route all writes through the parent).  A last
    line without a newline is an append cut short by a crash: it is ignored and cut off
    by the first add() after the load.  add() refuses what a load refuses, checking each
    distinct cell and prime, and formatting its line head, once per cache; get() refuses
    an unhashable cell or p.  Without a path the cache lives in memory only.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._cells: dict[int, dict[tuple, int]] = {}
        self._fh = None
        self._complete = None  # length of the file's complete lines when loaded
        self._heads = {}  # each added cell: the cell as checked, and its line head
        self._primes = {}  # each added prime, as checked
        if path is None or not os.path.exists(path):
            return
        try:
            with open(path, "rb") as fh:
                text = fh.read().decode("ascii")
        except UnicodeDecodeError as exc:
            raise CacheError("%s: byte %d is not ASCII: not a cache file" % (path, exc.start))
        self._complete = text.rfind("\n") + 1
        self._cells = _parse_lines(text[:self._complete], path)

    def get(self, variant, index, signs, p):
        try:
            held = self._cells.get(p)
            cell = (variant, tuple(index), None if signs is None else tuple(signs))
            return None if held is None else held.get(cell)
        except TypeError:  # a cell or p that no cache line gives
            raise ValueError("cannot look up %r at p=%r" % ((variant, index, signs), p)) from None

    def cells_at(self, p) -> dict:
        """{(variant, index, signs): residue} of the cells held at p, to be read only."""
        return self._cells.get(p, {})

    def add(self, variant, index, signs, p, residue):
        """Keep the cell's residue at p, and append its line if the cache has a file.

        Raises ValueError, and keeps nothing, for what a load refuses: a cell that
        check_cell refuses or the empty index, a p that is not a prime >= 5, or a
        residue that is not an int in [0, p).  A cell already held is left as it is.
        A cell or prime equal to one checked before, as (True, 2) is to (1, 2), is
        kept as that one.
        """
        try:
            cell = (variant, tuple(index), None if signs is None else tuple(signs))
            known, prime = self._heads.get(cell), self._primes.get(p)
        except TypeError:  # a cell or p that no cache line gives
            raise ValueError("cannot cache %r at p=%r" % ((variant, index, signs), p)) from None
        if known is None:
            known = self._heads[cell] = _checked_head(cell)
        if prime is None:
            prime = self._primes[p] = check_prime(p)
        if type(residue) is not int or not 0 <= residue < prime:
            raise ValueError("residue must be an int in [0, %d), got %r" % (prime, residue))
        cell, head = known
        held = self._cells.setdefault(prime, {})
        if cell in held:
            return
        held[cell] = residue
        if self.path is None:
            return
        if self._fh is None:
            if self._complete is not None:  # once per load: later lines are this cache's
                os.truncate(self.path, self._complete)
                self._complete = None
            self._fh = open(self.path, "a", encoding="ascii")
        self._fh.write("%s%d,%d\n" % (head, prime, residue))

    def flush(self):
        if self._fh is not None:
            self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __len__(self):
        return sum(map(len, self._cells.values()))


def _inverses(n, p) -> list:
    """[0, 1, 1/2, ..., 1/n] mod p for 1 <= n < p, from 1/i = -(p // i) / (p % i)."""
    inv = [0, 1]
    for i in range(2, n + 1):
        inv.append((p - p // i) * inv[p % i] % p)
    return inv


def _trie(cells, p=None) -> tuple:
    """The shape of the cells' tries, the same at every prime: (strict root, star root,
    finals, node count, largest letter, any - sign, any final read at p-1).  Given p, an
    index entry k >= p enters as its residue in 1..p-1."""
    # a node is [letter, read at p-1 (else at (p-1)/2 only), kids, cells read at (p-1)/2
    # before its last m, slot of its running sum, whether a kid has kids]; letter k weighs
    # m by m^-k, -k by (-1)^m m^-k
    strict, star = [0, False, {}, [], 0, False], [0, False, {}, [], 1, False]
    nodes, finals, emax, level2 = [strict, star], [], 0, ("zeta2", "zeta2star")
    # cells read at p-1 go first, so that a node made for a read at (p-1)/2 has none below
    for cell in sorted(cells, key=lambda c: c[0] in level2):
        variant, index, signs = cell
        if p is not None:  # m^(p-1) = 1 mod p: letter k weighs m as its residue in 1..p-1 does
            index = [(k - 1) % (p - 1) + 1 for k in index]
        emax = max(emax, max(index, default=0))
        full, node = variant not in level2, star if variant == "zeta2star" else strict
        for e in index if signs is None else map(mul, index, signs):
            kid = node[2].get(e)
            if kid is None:
                kid = node[2][e] = [e, full, {}, [], len(nodes), False]
                nodes.append(kid)
            node = kid
        # a read before the node's last m is taken during the walk, any other after it
        if node[1] and not full:
            node[3].append(cell)
        else:
            finals.append((cell, node[4]))
    for node in nodes:
        node[2] = tuple(node[2].values())
        node[5] = any(kid[2] for kid in node[2])
    signed = any(-1 in signs for _, _, signs in cells if signs)
    return strict, star, finals, len(nodes), emax, signed, any(nodes[s][1] for _, s in finals)


# the shapes of the last few cell tuples swept: a run sweeps the same cells at prime
# after prime; a shape holds no value
_shape = lru_cache(maxsize=8)(_trie)


def _sweep(cells, p) -> dict:
    """{(variant, index, signs): value mod p} for the cells, from one walk of their tries
    per block of m.  It trusts its cells, each with a nonempty index, and p: none is checked."""
    cells = tuple(cells)
    shape = _shape(cells)
    if shape[4] >= p:  # a trie of the entries' residues, for this sweep alone
        shape = _trie(cells, p)
    strict, star, finals, size, emax, signed, to_end = shape
    half = (p - 1) // 2
    top = p - 1 if to_end else half
    sums, out = [1, 1] + [0] * (size - 2), {}  # each node's running sum, by slot
    inv = _inverses(top, p)
    for m0 in range(1, top + 1, _BLOCK):
        m1 = min(m0 + _BLOCK, top + 1)
        powers = [inv[m0:m1]]
        for _ in range(emax - 1):
            powers.append([x * y % p for x, y in zip(powers[-1], powers[0])])
        # weights[e][i] is letter e's weight at m = m0 + i
        weights = [None] + powers + [[p - x if (m0 + i) & 1 else x for i, x in enumerate(w)]
                                     for w in (reversed(powers) if signed else ())]
        at_half, h = m0 <= half < m1, half - m0 + 1
        for root, shift in ((strict, 0), (star, 1)):
            # column c of a node holds its sums at m0 - 1 .. m1 - 1; a strict child reads
            # its parent at m - 1, c[i], a star child at m, c[i + 1]
            stack = [(root, [1] * (m1 - m0 + 1))]
            while stack:
                node, col = stack.pop()
                for kid in node[2]:
                    e, full, kids, halves, slot, fold = kid
                    if not full and half < m0:
                        continue
                    # a node whose last m is (p-1)/2, inside the block, stops there
                    w = weights[e] if full or half >= m1 - 1 else islice(weights[e], h)
                    src = islice(col, 1, None) if shift else col
                    if kids:
                        # a column is reduced mod p only if another column is summed from it
                        c = accumulate(map(mul, src, w), initial=sums[slot])
                        c = [x % p for x in c] if fold else list(c)
                        sums[slot] = c[-1] % p
                        if at_half:
                            for cell in halves:
                                out[cell] = c[h] % p
                        stack.append((kid, c))
                    elif halves and at_half:
                        # a leaf read at both ends: its dot product splits at (p-1)/2
                        s = sums[slot] + sum(map(mul, col, islice(w, h)))
                        for cell in halves:
                            out[cell] = s % p
                        sums[slot] = (s + sum(map(mul, islice(col, h, None), islice(w, h, None)))) % p
                    else:
                        sums[slot] = (sums[slot] + sum(map(mul, src, w))) % p
    for cell, slot in finals:
        out[cell] = sums[slot]
    return out


def compute_cell(variant: str, index, signs, table) -> int:
    """values_at's read of one computed cell from _sweep's table: a function, not an
    inline read, so that each computed cell is one call that a tracer counts and times."""
    return table[variant, index, signs]


def value_of(variant: str, index, signs, p: int, cache: ResidueCache | None = None) -> int:
    """Single-cell evaluation, the one that checks its cell and prime: values_at's value,
    which the cache, if given, holds or then keeps, and 1 for the empty index.

    The cell is checked (check_cell) before the cache is read, so a cell refused cold
    is refused warm too.
    """
    cell = check_cell(variant, index, signs)
    check_prime(p)
    return values_at([cell], p, cache)[0]


def values_at(columns, p: int, cache: ResidueCache | None = None, table=None) -> tuple:
    """Values of the (variant, index, signs) columns at one prime: the cache's cells at p
    read from its dict of p; each distinct other one computed once, by compute_cell from
    one _sweep of them (made here unless the caller, ppt_constants, passes its table),
    and added to the cache in column order; 1 for the empty index.

    An internal route, like _sweep: it trusts its columns and p, which the caller has
    checked (check_cell, check_prime).  Library callers go through value_of,
    build_matrix or a suite.
    """
    values = list(map(({} if cache is None else cache.cells_at(p)).get, columns))
    if None in values:  # a cell the cache does not hold, or the empty index
        new = dict.fromkeys(c for c, v in zip(columns, values) if v is None and c[1])
        if new and table is None:
            table = _sweep(new, p)
        for cell in new:
            v = new[cell] = compute_cell(*cell, table)
            if cache is not None:
                cache.add(*cell, p, v)
        values = [new.get(c, 1) if v is None else v for c, v in zip(columns, values)]
    return tuple(values)


def _prime_task(fn, held, p):
    # an in-memory cache of held, the worker's own (pickled) copy of the parent's cells at p
    cache, known = ResidueCache(), len(held)
    cache._cells[p] = held
    return fn(p, cache), list(islice(held.items(), known, None))


def _collect(primes, results, cache) -> list:
    # per_prime's results; a prime's new cells, a worker's or the parent's, are flushed at once
    out = []
    for p, (result, cells) in zip(primes, results):
        out.append(result)
        if cache is not None:
            for cell, v in cells:
                cache.add(*cell, p, v)
            cache.flush()
    return out


def per_prime(fn, primes, jobs=1, cache=None) -> list:
    """[fn(p, cache) for p in primes]; the primes go to a pool of min(jobs, primes, CPUs)
    workers when that is above 1.

    A worker starts from an in-memory cache that holds a copy of the parent cache's
    dict of cells at its prime, and sends back the cells it added to that dict, in
    the order it read them; the parent, the only writer, adds them to its cache.
    """
    primes = list(primes)
    jobs = min(jobs, len(primes), os.cpu_count() or 1)  # a pool forks all its workers at once
    if jobs <= 1:
        return _collect(primes, ((fn(p, cache), ()) for p in primes), cache)
    known = [{} if cache is None else cache.cells_at(p) for p in primes]
    import concurrent.futures

    chunks = -(-len(primes) // (4 * jobs))  # fn, maybe a suite's rows, is pickled once a chunk
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return _collect(primes, pool.map(partial(_prime_task, fn), known, primes,
                                         chunksize=chunks), cache)

