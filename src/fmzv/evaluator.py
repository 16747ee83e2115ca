"""Evaluation of finite multiple zeta value variants mod p.

Index convention: in zeta(k_1,...,k_r) the exponent k_1 is attached to the
smallest summation variable, so the sum runs over 0 < m_1 < ... < m_r < p
(level 1) or with m_r <= (p-1)/2 (level 2, "below p/2").  Variants:

  zeta       level 1, strict sum up to p-1
  zeta2      level 2, strict sum up to (p-1)/2
  zeta2star  level 2, non-strict (<=) sum up to (p-1)/2
  euler      level 1 with numerator signs eps_i^(m_i), eps_i in {+1,-1}

A value takes one route, `per_prime` (`values_at` for one prime, `value_of` for
one cell, the one single-cell evaluation that checks its cell and prime): its
primes go in groups of consecutive ones (`_groups`), at most _GROUP, and fewer
where a group's table of inverses would pass _WORDS words; a prime's cells held
by the residue cache are read once from its dict of p (`ResidueCache.cells_at`),
the primes that miss a cell, the empty index aside, are swept together once, by
`_sweep`, whose tables stream out in prime order, and each distinct missing cell
is read from its prime's table by `compute_cell` and added to the cache in column
order; the empty index is 1.  The cache is the only store of values that outlives
a call, so a repeated call without one sweeps again.  Beside the variants, the
suites plan one internal kind, "third": ("third", (k,), None) is the strict sum
of m^-k over m <= floor(p/3), the sum bernoulli.Zk takes; check_cell refuses it,
and it is never cached.

A sweep (`values_at`, `compute_cell`, `_sweep`: internal routes) trusts its cells
and primes: each is checked once per run, where it enters (`build_matrix`,
`Suite.run`, `ppt_constants`, `evaluate_combination`, and `value_of`).  A group
of primes is one ring Z/MZ, M their product, so one exact walk over m serves it.
Its cells and their prefixes form one trie, whose node sums obey
T_node(m) = T_node(m-1) + T_parent(m-1) * w(m), with w(m) = m^(-k) for the node's
last entry k, times (-1)^m for a - sign.  1/m is taken mod n, the product of the
primes still to be read at m or later, all above m, from the recurrence
1/i = -(n // i) / (n % i), and a block's sums mod that product at its start, so
the modulus shrinks as primes are read: zeta and euler cells at m = p-1, zeta2
and zeta2star cells at m = (p-1)/2, third cells at m = floor(p/3), each reduced
mod p, and a prime's table goes out after its last read.  The walk goes depth
first, column by column, over blocks of m; a block ends where its read primes
make up half its modulus' bits, and a column holds at most _BLOCK 30-bit words.
An inner node is one prefix-sum column over the block, reduced only if another
column is summed from it, a leaf one dot product, or a column if it is read
inside the block.  An entry below the group's smallest prime takes a chain of
power columns, any other one a column of its own, one pow per m.  zeta2star has
its own trie, whose nodes read their parent at m itself, one place later.

`eval_*` evaluate one cell on their own, each by one pass of the textbook DP
`_dp_sum` over its summation range, with one batched inverse (`batch_inv`) of
the whole range; they are kept as the independent oracle route the tests
compare against, and no production path calls them.  `_BLOCK`, `_GROUP` and
`_WORDS` are the sweep's.
"""

import os
from functools import partial
from itertools import accumulate, chain, islice
from math import prod
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
_GROUP = 32
_WORDS = 1 << 16


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


def _trie(cells) -> tuple:
    """(strict root, star root, {cell: slot of its node}, the parent slot of each slot, the
    letters) of the cells' tries.  A node is [letter, kids, slot of its running sum, whether
    a kid has kids]; letter k weighs m by m^-k, -k by (-1)^m m^-k."""
    strict, star = [0, {}, 0, False], [0, {}, 1, False]
    nodes, parent, slot_of = [strict, star], [0, 1], {}
    for cell in cells:
        variant, index, signs = cell
        node = star if variant == "zeta2star" else strict
        for e in index if signs is None else map(mul, index, signs):
            kid = node[1].get(e)
            if kid is None:
                kid = node[1][e] = [e, {}, len(nodes), False]
                nodes.append(kid)
                parent.append(node[2])
            node = kid
        slot_of[cell] = node[2]
    for node in nodes:
        node[1] = tuple(node[1].values())
        node[3] = any(kid[1] for kid in node[1])
    return strict, star, slot_of, parent, {node[0] for node in nodes[2:]}


def _inverses(inv, stop, n):
    """Extend inv, [0, 1, 1/2, ...], up to 1/(stop - 1) mod n, every prime factor of n
    above stop - 1, from 1/i = -(n // i) / (n % i); an entry made mod a multiple of n
    serves as it is."""
    for i in range(len(inv), stop):
        inv.append((n - n // i) * inv[n % i] % n)


def _sweep(cells, primes):
    """Yield {(variant, index, signs): value mod p} for each p of primes in order, cells[i]
    being the cells read at primes[i], from one walk of the union of their tries over the
    blocks of m up to the last read; the empty index reads 1.  It trusts its cells and its
    primes, ascending: none is checked."""
    strict, star, slot_of, parent, letters = _trie(dict.fromkeys(chain.from_iterable(cells)))
    reads, done = {}, {}  # read point -> [(p, cells, their slots)]; p -> its last
    # a cell is read at m = (p - 1) // d, d its kind's: p - 1, (p - 1)/2, or floor(p/3) for
    # a third-range cell (p > 3)
    span = {"zeta": 1, "euler": 1, "zeta2": 2, "zeta2star": 2, "third": 3}
    # equal cells at prime after prime share their lists, as comparing them costs a
    # tenth of rebuilding them (0.5 ms against 5 ms over the key run's 76 primes)
    prev = None
    for p, cs in zip(primes, cells):
        if cs != prev:
            prev, parts = cs, {}
            for c in cs:
                part, slots = parts.setdefault(span[c[0]], ([], []))
                part.append(c)
                slots.append(slot_of[c])
        for d, (part, slots) in parts.items():
            reads.setdefault((p - 1) // d, []).append((p, part, slots))
        if parts:
            done[p] = (p - 1) // min(parts)
    # last[s]: the last m at which node s, or a node below it, is read
    last = [0] * len(parent)
    for r in sorted(reads):
        for _, _, slots in reads[r]:
            for s in slots:
                last[s] = r
    for s in range(len(parent) - 1, 1, -1):
        last[parent[s]] = max(last[parent[s]], last[s])
    # letters below the smallest prime take a chain of power columns, each other one a pow
    chain_top = max((e for e in map(abs, letters) if e < primes[0]), default=1)
    large = {abs(e) for e in letters if abs(e) >= primes[0]}
    points, exits = sorted(reads), sorted((r, p) for p, r in done.items())
    tables, sums = {p: {} for p in primes}, [1, 1] + [0] * (len(parent) - 2)
    m0, at, gone, cut, k, inv, N = 1, 0, 0, 0, 0, [0, 1], prod(done)
    while gone < len(exits):
        live = [p for _, p in exits[gone:]]
        M = prod(live)
        # a block's column holds at most _BLOCK 30-bit words, so _BLOCK values of m mod
        # one prime; it ends where the primes it has read make up half of M's bits, and
        # the next block works mod the product of the others
        m1, dead = min(m0 + max(1, _BLOCK // -(-M.bit_length() // 30)), exits[-1][0] + 1), 0
        for r, p in exits[gone:]:
            if r + 1 >= m1:
                break
            dead += p.bit_length()
            if 2 * dead >= M.bit_length():
                m1 = r + 1
                break
        # 1/m mod the product of the primes read at m or later, which all exceed m
        while len(inv) < m1:
            while exits[cut][0] < len(inv):
                N //= exits[cut][1]
                cut += 1
            _inverses(inv, min(m1, exits[cut][0] + 1), N)
        w1 = inv[m0:m1]
        weights, w = {}, w1
        for e in range(1, chain_top + 1):
            weights[e] = w = w1 if e == 1 else [a * b % M for a, b in zip(w, w1)]
        for e in large:
            weights[e] = [pow(a, e, M) for a in w1]
        for e in letters:
            if e < 0:
                weights[e] = [M - a if m & 1 else a for m, a in zip(range(m0, m1), weights[-e])]
        # the reads inside the block are taken from the columns of the nodes they read,
        # each reduced mod the primes read there; those at its end from the sums
        block = []
        while at < len(points) and points[at] < m1:
            block.append(points[at])
            at += 1
        mids = [r for r in block if r < m1 - 1]
        where = [(r - m0 + 1, prod(p for p, _, _ in reads[r])) for r in mids]
        readers = set()
        for r in mids:
            for _, _, slots in reads[r]:
                readers.update(slots)
        snaps = dict.fromkeys((0, 1), [1] * len(where))  # a root's sum is 1 at every m
        for root, shift in ((strict, 0), (star, 1)):
            # column c of a node holds its sums at m0 - 1 .. m1 - 1; a strict child reads
            # its parent at m - 1, c[i], a star child at m, c[i + 1]
            stack = [(root, [1] * (m1 - m0 + 1))]
            while stack:
                node, col = stack.pop()
                for kid in node[1]:
                    e, kids, slot, fold = kid
                    if last[slot] < m0:
                        continue
                    w, src = weights[e], islice(col, 1, None) if shift else col
                    if kids or slot in readers:
                        # a column is reduced mod M only if another column is summed from it
                        c = accumulate(map(mul, src, w), initial=sums[slot])
                        c = [x % M for x in c] if fold else list(c)
                        sums[slot] = c[-1] % M
                        if slot in readers:
                            snaps[slot] = [c[j] % q for j, q in where]
                        if kids:
                            stack.append((kid, c))
                    else:  # any other leaf is one dot product
                        sums[slot] = (sums[slot] + sum(map(mul, src, w))) % M
        for j, r in enumerate(block):
            for p, part, slots in reads[r]:
                if r < m1 - 1:
                    tables[p].update(zip(part, [snaps[s][j] % p for s in slots]))
                else:
                    tables[p].update(zip(part, [sums[s] % p for s in slots]))
        while gone < len(exits) and exits[gone][0] < m1:
            gone += 1
        while k < len(primes) and done.get(primes[k], 0) < m1:
            yield tables.pop(primes[k])
            k += 1
        m0 = m1
    for p in primes[k:]:
        yield tables.pop(p)


def compute_cell(variant: str, index, signs, table) -> int:
    """A read of one computed cell from its prime's _sweep table: a function, not an
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


def values_at(columns, p: int, cache: ResidueCache | None = None) -> tuple:
    """Values of the (variant, index, signs) columns at one prime: per_prime's route for
    one prime, without a flush.

    An internal route, like _sweep: it trusts its columns and p, which the caller has
    checked (check_cell, check_prime).  Library callers go through value_of,
    build_matrix or a suite.
    """
    return next(_group(partial(_plan_all, columns), [p], cache))


def _plan_all(columns, p):
    # per_prime's plan of a caller that wants every column's value
    return columns, _finish_all


def _finish_all(read):
    return read()


def _read(columns, values, p, cache, table, computed, n=None) -> tuple:
    """The values of the first n columns (all by default): values[i], the cache's, unless
    None; else, for a nonempty index, the cell computed once, by compute_cell from table,
    and added to the cache in column order, unless it is a third-range cell; else 1."""
    values = values[:n]
    if None in values:
        new = dict.fromkeys(c for c, v in zip(columns, values)
                            if v is None and c[1] and c not in computed)
        for cell in new:
            v = computed[cell] = compute_cell(*cell, table)
            if cache is not None and cell[0] != "third":
                cache.add(*cell, p, v)
        values = [computed.get(c, 1) if v is None else v for c, v in zip(columns, values)]
    return tuple(values)


def _group(plan, primes, cache):
    """Yield finish(read) for each p of primes in order, where columns, finish = plan(p)
    and read(n) gives the values of the first n columns (see _read).  The cache's cells
    are read once per prime; the primes that miss a cell are swept together, once."""
    steps, misses = [], {}
    for p in primes:
        columns, finish = plan(p)
        values = list(map(({} if cache is None else cache.cells_at(p)).get, columns))
        if None in values:
            new = [c for c, v in zip(columns, values) if v is None and c[1]]
            if new:
                misses[p] = new
        steps.append((p, columns, finish, values))
    tables = _sweep(list(misses.values()), list(misses)) if misses else None
    for p, columns, finish, values in steps:
        table = next(tables) if p in misses else None
        yield finish(partial(_read, columns, values, p, cache, table, {}))


def _group_task(plan, primes, held):
    # an in-memory cache of held, the worker's own (pickled) copies of the parent's cells
    # at its primes; each prime's result, and the cells added to its dict
    cache, known = ResidueCache(), [len(cells) for cells in held]
    cache._cells.update(zip(primes, held))
    results = list(_group(plan, primes, cache))
    return [(result, list(islice(cells.items(), n, None)))
            for result, cells, n in zip(results, held, known)]


def _groups(primes) -> list:
    """The ascending primes cut into runs of consecutive ones, each of at most _GROUP
    primes.  A group's sweep keeps about its largest prime's count of inverses, each of
    its product's 30-bit words, so a group of more than one prime also closes before
    that count times those words would pass _WORDS."""
    groups, bits = [], 0
    for p in primes:
        bits += p.bit_length()
        if groups and len(groups[-1]) < _GROUP and -(-bits // 30) * p <= _WORDS:
            groups[-1].append(p)
        else:
            groups.append([p])
            bits = p.bit_length()
    return groups


def per_prime(plan, primes, jobs=1, cache=None) -> list:
    """[finish(read) for p in primes], where columns, finish = plan(p) and read(n) gives
    the values of the first n columns (all by default), through the cache if one is
    given; the cache's lines are flushed once per prime.

    The primes go in groups of consecutive ones (_groups), each swept once (_group); the
    groups go to a pool of min(jobs, groups, CPUs) workers when that is above 1, so a
    run of one group runs here whatever jobs is.  A worker starts from an in-memory
    cache that holds a copy of the parent cache's dicts of cells at its primes, and
    sends back the cells it added to each, in the order it read them; the parent, the
    only writer, adds them to its cache.
    """
    groups = _groups(primes)
    # a pool forks all its workers at once
    jobs = max(1, min(jobs, len(groups), os.cpu_count() or 1))
    out = []
    if jobs <= 1:
        for group in groups:
            for result in _group(plan, group, cache):
                out.append(result)
                if cache is not None:
                    cache.flush()
        return out
    import concurrent.futures

    held = [[{} if cache is None else cache.cells_at(p) for p in group] for group in groups]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        for group, results in zip(groups, pool.map(partial(_group_task, plan), groups, held)):
            for p, (result, cells) in zip(group, results):
                out.append(result)
                if cache is not None:
                    for cell, v in cells:
                        cache.add(*cell, p, v)
                    cache.flush()
    return out
