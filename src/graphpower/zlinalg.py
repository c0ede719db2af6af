"""Exact integer linear algebra over Z and Z/r.

Everything here runs on native Python integers, so intermediate entries may
grow past machine words without loss. Matrices are immutable; all operations
return fresh values.

The list elimination kernel, `_echelon`, puts a row lattice (in Z^n, or in Z/r
by adding r Z^n) into echelon form and carries witness columns along. It
copies a given row the first time it writes it, and a row operation rewrites
only the pivot row's support. The Smith normal form alternates the kernel on a
matrix and its transpose until it is diagonal and returns the divisor chain,
with no unimodular witnesses; rank mod p, the size of a row span mod r, the
lattice index and the Diophantine solver read its pivots.

The Smith form and the lattice index do not depend on the column order, so
both first run `_unit_pivots`, a sparse pre-pass after Dumas, Saunders and
Villard (J. Symbolic Comput. 32, 2001): it takes +-1 pivots with few entries
in their column and row while it finds them, each one a divisor 1 that keeps
the index, and leaves `_echelon` only the dense remainder. A 0/1 matrix of a
sparse graph then fills in far less than under a sweep of its columns from
left to right. row_solve keeps the column order, which decides its click
vectors.

At a prime p <= 13 rank_mod_p and span_order_mod run `_basis_rank`, a basis
keyed by the leading entry that stops at full rank, on rows packed into ints
(a bit per entry mod 2, a byte otherwise), first entry most significant; a
rank mod 2 reads a matrix of masks as given. A span mod a composite r is the
product of the spans mod its prime powers. row_solve runs `_prime_echelon`,
which makes `_echelon`'s choices: the same pivots, click vectors and
LimitExceeded. Both charge a budget the full row width per row reduction or
row operation. `_echelon` stays for Z, prime powers p^k with k >= 2, primes
past 13, and row_solve mod a composite. The pre-pass charges what it writes,
the pivot row's support per row operation.

Every operation takes its rows as an `IntMat`. The 0/1 matrices of graphs
keep the bitmasks `IntMat.from_masks` is given, so at p <= 13 their rows
reach the packed kernels with one format and reverse per mask, the pre-pass
reads the set bits, and only the list kernel unpacks them into entry tuples.
"""

from __future__ import annotations

from itertools import groupby
from math import gcd, prod
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, LimitExceeded, NotPrime

_BITS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")
# the primes p with p (p - 1) < 256, which the packed kernel serves
_PACKED_PRIMES = (2, 3, 5, 7, 11, 13)
_MOD = {p: bytes(b % p for b in range(256)) for p in _PACKED_PRIMES[1:]}


class IntMat:
    """Immutable integer matrix, row-major. One built by `from_masks` holds
    its 0/1 rows as bitmasks, which the packed kernel and `mat_vec` read; its
    entry tuples `_rows` are built on first read, for list readers only."""

    __slots__ = ("rows", "cols", "_rows", "_row_masks")

    def __init__(self, rows: Iterable[Iterable[int]], cols: Optional[int] = None):
        data = tuple(tuple(map(int, row)) for row in rows)
        width = len(data[0]) if data else cols or 0
        if any(len(row) != width for row in data):
            raise DimensionMismatch("ragged rows")
        if cols is not None and cols != width:
            raise DimensionMismatch(f"rows of {width} entries, cols={cols}")
        self._rows, self.rows, self.cols, self._row_masks = data, len(data), width, None

    @classmethod
    def from_masks(cls, masks: Iterable[int], n: int) -> "IntMat":
        """The 0/1 matrix with n columns whose row i has entry w equal to bit
        w of masks[i] (each mask below 2^n), holding the masks as given."""
        self = object.__new__(cls)
        self._row_masks = tuple(masks)
        self.rows, self.cols = len(self._row_masks), n
        return self

    def __getattr__(self, name):  # reached for an unset slot: `_rows` of masks
        if name != "_rows":
            raise AttributeError(name)
        self._rows = tuple(tuple(format(m, f"0{self.cols}b")[::-1].encode().translate(_BITS))
                           for m in self._row_masks)
        return self._rows

    @property
    def _zero_one(self) -> bool:
        """Whether every entry is 0 or 1, as it is in a matrix of masks."""
        return self._row_masks is not None or set().union(*self._rows) <= {0, 1}

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls.from_masks([1 << i for i in range(n)], n)

    def row_list(self) -> list:
        return [list(r) for r in self._rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMat) and self.cols == other.cols and self._rows == other._rows

    def __repr__(self):
        return f"IntMat({[list(r) for r in self._rows]!r})"


def mat_vec(vec: Sequence[int], mat: IntMat) -> tuple:
    """Row vector times matrix, along the set bits of a matrix of masks."""
    if len(vec) != mat.rows:
        raise DimensionMismatch(f"{len(vec)} != {mat.rows}")
    out = [0] * mat.cols
    if mat._row_masks is None:
        for c, row in zip(vec, mat._rows):
            if c:
                for j, x in enumerate(row):
                    out[j] += c * x
    else:
        for c, m in zip(vec, mat._row_masks):
            while c and m:
                out[(m & -m).bit_length() - 1] += c
                m &= m - 1
    return tuple(out)


def _smallest_prime_factor(n: int) -> int:
    """The smallest prime dividing n >= 2, by trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime(p: int) -> bool:
    return p >= 2 and _smallest_prime_factor(p) == p


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


# -- the echelon kernel -------------------------------------------------------

def _xgcd(a: int, b: int) -> tuple:
    """(g, s, t) with s*a + t*b == g == gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _pivot_row(rows, top, c, r):
    """A row at or below `top` whose entry in column c is a unit (mod r when
    r > 0), else one with the smallest nonzero entry, else None."""
    best = None
    for i in range(top, len(rows)):
        v = rows[i][c]
        if v:
            if v == 1 or v == -1 or (r and gcd(v, r) == 1):
                return i
            if best is None or abs(v) < abs(rows[best][c]):
                best = i
    return best


def _smallest_gcd_column(rows, top, c, n):
    """The column in c..n-1 whose entries at or below `top` have the smallest
    nonzero gcd (the first such), or None when they are all zero."""
    best = None
    for k in range(c, n):
        g = 0
        for i in range(top, len(rows)):
            g = gcd(g, rows[i][k])
            if g == 1:
                break
        if g and (best is None or g < best[0]):
            best = (g, k)
            if g == 1:
                break
    return None if best is None else best[1]


def _echelon(rows, n, r=0, perm=None, budget=None):
    """Row echelon form of the lattice spanned by `rows`, any sequences of
    ints, which it leaves as they are: it works on its own list of them and
    copies a row the first time it writes it. Each row operation charges the
    budget the full row width but rewrites only the pivot row's support.

    Only the first n columns are eliminated; any later columns are witness
    columns that every row operation carries along. Returns (echelon rows,
    pivot columns): echelon row i has its positive pivot in column pivots[i],
    zeros to the left of it and in that column below it, and the rows after
    the last pivot row vanish on the first n columns. Rows that no operation
    touched are the given row objects.

    With r > 0 the lattice also contains r*Z^n. All entries, inputs included,
    lie in [0, r). Each pivot row is scaled by a unit mod r, chosen from the
    extended gcd of the pivot and r, so the pivot divides r; for a pivot g the
    row (r/g) * pivot row, which vanishes in the pivot column, joins the rows
    below: the rows below each pivot then span everything in the lattice that
    vanishes on the pivot columns so far (the Howell property), which back
    substitution relies on.

    With `perm` a list, each step first moves the remaining column whose
    entries below the pivots have the smallest nonzero gcd into place and
    records the swap in perm; gcds never drop during elimination, so the
    pivots read 1, ..., 1 and then ascend. The swap writes entries, so this
    mode works on list copies of the rows.

    With `budget` set, the row operations may rewrite at most that many
    entries in all; the one that would pass it raises LimitExceeded.
    """
    rows = [list(row) for row in rows] if perm is not None else list(rows)
    mine = [perm is not None] * len(rows)  # whether rows[k] is a list the kernel made
    pivots = []
    spent = 0
    for c in range(n):
        top = len(pivots)
        if top == len(rows):
            break
        if perm is not None:
            k = _smallest_gcd_column(rows, top, c, n)
            if k is None:
                break
            if k != c:
                for row in rows:
                    row[c], row[k] = row[k], row[c]
                perm[c], perm[k] = perm[k], perm[c]
        # gcd-collect column c into rows[top]
        while True:
            i = _pivot_row(rows, top, c, r)
            if i is None:
                break
            rows[top], rows[i], mine[top], mine[i] = rows[i], rows[top], mine[i], mine[top]
            p = rows[top]
            if r:
                g, s, _ = _xgcd(p[c], r)
                # s is a unit mod r/g; shift it to a unit mod r so that
                # scaling the row keeps the lattice
                while gcd(s, r) != 1:
                    s += r // g
                if s != 1:
                    p = rows[top] = [s * x % r for x in p]
                if g > 1:
                    extra = [r // g * x % r for x in p]
                    if any(extra[c + 1:n]):
                        rows.append(extra)
                        mine.append(True)
            elif p[c] < 0:
                p = rows[top] = [-x for x in p]
            a, hi = p[c], len(p)
            while not p[hi - 1]:
                hi -= 1
            span = p[c:hi]
            done = True
            for k in range(top + 1, len(rows)):
                row = rows[k]
                if row[c]:
                    q = row[c] // a
                    if q:
                        if budget is not None:
                            spent += len(p)
                            if spent > budget:
                                raise _over_budget(budget)
                        if not mine[k]:
                            row = rows[k] = list(row)
                            mine[k] = True
                        if hi == c + 1:  # x - q * a is x % a, in [0, r) too
                            row[c] %= a
                        elif r:
                            row[c:hi] = [(x - q * y) % r for x, y in zip(row[c:hi], span)]
                        else:
                            row[c:hi] = [x - q * y for x, y in zip(row[c:hi], span)]
                    if row[c]:
                        done = False
            if done:
                pivots.append(c)
                break
    return rows, pivots


def _over_budget(budget: int) -> LimitExceeded:
    return LimitExceeded(f"the elimination rewrites more entries than its budget of {budget}")


# -- the packed prime-field kernel --------------------------------------------

def _pack(rows, p: int, extra: int = 0) -> list:
    """Each row, entries in [0, p), as one int followed by `extra` zero
    entries: a bit per entry at p = 2, a byte per entry at 3 <= p <= 13, the
    first entry most significant."""
    if p == 2:
        return [int(bytearray(row).translate(_DIGITS) or b"0", 2) << extra for row in rows]
    return [int.from_bytes(bytearray(row), "big") << 8 * extra for row in rows]


def _packed(M: IntMat, p: int, extra: int = 0) -> list:
    """M's rows mod p packed by `_pack`; a mask's reversed digits are its row mod 2."""
    if M._row_masks is None:
        return _pack([[x % p for x in row] for row in M._rows], p, extra)
    rows = [format(m, f"0{M.cols}b")[::-1] for m in M._row_masks]
    if p == 2:
        return [int(row, 2) << extra for row in rows]
    return _pack([row.encode().translate(_BITS) for row in rows], p, extra)


def _unpack(x: int, width: int, p: int) -> tuple:
    """The entries of x, a row of `width` entries packed by `_pack`."""
    if p == 2:
        return tuple(format(x | 1 << width, "b")[1:].encode().translate(_BITS))
    return tuple(x.to_bytes(width, "big"))


def _reduce(x: int, width: int, p: int) -> int:
    """A packed row of `width` byte entries, each reduced mod p."""
    return int.from_bytes(x.to_bytes(width, "big").translate(_MOD[p]), "big")


def _prime_echelon(rows, n, width, p, budget=None):
    """`_echelon(rows, n, p, budget=budget)` for p in _PACKED_PRIMES on rows
    of `width` entries packed by `_pack`, with its choices: the pivot is the
    first row below the pivot rows so far nonzero in column c, swapped into
    place and scaled to 1; it clears column c below itself only; each row
    operation charges `width` entries. A row operation is one XOR at p = 2,
    else x + (p - q) * pivot and one translate of the bytes mod p: no byte
    of the sum passes p (p - 1) < 256, so none carries."""
    bits = 1 if p == 2 else 8

    def column(x):  # of x's first nonzero entry; width for x = 0
        return width - 1 - (x.bit_length() - 1) // bits
    rows = list(rows)
    # the positions at or below the pivot rows so far, by the column of their
    # first nonzero entry, which lies right of the pivot columns
    starts = {}
    for k, x in enumerate(rows):
        starts.setdefault(column(x), set()).add(k)
    pivots, spent = [], 0
    for c in range(n):
        below = starts.pop(c, None)
        if not below:
            continue
        top, i = len(pivots), min(below)
        below.remove(i)
        if i != top:
            moved = starts[column(rows[top])]
            moved.remove(top)
            moved.add(i)
            rows[top], rows[i] = rows[i], rows[top]
        shift = bits * (width - 1 - c)  # x >> shift is entry c of a row in `below`
        pivot = rows[top]
        if pivot >> shift != 1:
            pivot = rows[top] = _reduce(pow(pivot >> shift, -1, p) * pivot, width, p)
        if budget is not None:
            spent += width * len(below)
            if spent > budget:
                raise _over_budget(budget)
        for k in below:
            x = rows[k]
            x = rows[k] = x ^ pivot if p == 2 else _reduce(x + (p - (x >> shift)) * pivot, width, p)
            starts.setdefault(column(x), set()).add(k)
        pivots.append(c)
    return rows, pivots


# -- the unit-pivot pre-pass --------------------------------------------------

def _unit_pivots(M: IntMat, budget: Optional[int] = None) -> tuple:
    """(k, rest, width): the number k of +-1 pivots taken from M's distinct
    rows in sparse form, and the dense remainder `rest` over the `width`
    columns left with entries.

    The rows are {column: entry} dicts, read off M's masks when it has
    them. Each step takes, among the columns with the fewest entries that
    hold a +-1, the first; in it, the lightest row with a +-1 there, the
    first such (Markowitz). It clears that column from the other rows and
    drops the pivot row and column. A unit pivot splits off a Smith divisor
    1 and keeps the index of the row lattice, so the remainder has M's Smith
    form less k divisors 1, and M's index. A row operation writes the pivot
    row's support, and `budget` caps those entries (LimitExceeded past
    it). The remainder lists its distinct nonzero rows lightest first,
    over its columns fewest entries first, which keeps entry growth in
    `_echelon` low."""
    from heapq import heapify, heappop, heappush  # deferred: most commands never get here
    if M._row_masks is None:
        rows = [{j: x for j, x in enumerate(row) if x} for row in dict.fromkeys(M._rows)]
    else:
        rows = []
        for m in dict.fromkeys(M._row_masks):
            row = {}
            while m:
                row[(m & -m).bit_length() - 1] = 1
                m &= m - 1
            rows.append(row)
    cols = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    # (entries, column), pushed again whenever a pivot row meets the column:
    # only then can its count change or a unit appear in it, so a popped
    # entry with a stale count is skipped, and a column without a unit waits
    heap = [(len(col), j) for j, col in cols.items()]
    heapify(heap)
    k = spent = 0
    while heap:
        count, c = heappop(heap)
        col = cols.get(c)
        if col is None or len(col) != count:
            continue
        best = min(((len(rows[i]), i) for i in col if rows[i][c] in (1, -1)), default=None)
        if best is None:
            continue
        top = best[1]
        pivot, rows[top] = rows[top], None
        unit = pivot.pop(c)
        del cols[c]
        for j in pivot:
            cols[j].discard(top)
        for i in col:
            if i == top:
                continue
            row = rows[i]
            f = row.pop(c) * unit
            if budget is not None:
                spent += len(pivot) + 1  # the pivot column and the rest of the support
                if spent > budget:
                    raise _over_budget(budget)
            for j, y in pivot.items():
                x = row.get(j, 0) - f * y
                if x:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = x
                else:
                    del row[j]
                    cols[j].discard(i)
        for j in pivot:
            if cols[j]:
                heappush(heap, (len(cols[j]), j))
            else:
                del cols[j]
        k += 1
    order = sorted(cols, key=lambda j: (len(cols[j]), j))
    rest = dict.fromkeys(tuple(row.get(j, 0) for j in order)
                         for row in sorted(filter(None, rows), key=len))
    return k, list(rest), len(order)


# -- Smith normal form --------------------------------------------------------

def _smith_chain(d) -> None:
    """Turn the positive diagonal d into a divisor chain in place: the 1s go
    first, each pair (a, b) of the rest becomes (gcd(a, b), lcm(a, b))."""
    d.sort(key=(1).__ne__)
    for i in range(d.count(1), len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g = gcd(a, b)
                d[i], d[j] = g, a // g * b


def _smith_passes(a, n, budget=None) -> list:
    """Echelon passes that alternate between the rows a (n columns) and
    their transpose until a is diagonal; returns the diagonal. The rows after
    the pivots are dropped after each pass (they only add zeros to the
    chain). `budget` caps the entries each pass may rewrite."""
    while True:
        a, pivots = _echelon(a, n, budget=budget)
        k = len(pivots)
        a = a[:k]
        if pivots == list(range(k)) and not any(any(a[i][i + 1:]) for i in range(k)):
            return [a[i][i] for i in range(k)]
        n, a = len(a), list(zip(*a))


def snf_divisors(M: IntMat, budget: Optional[int] = None) -> tuple:
    """Smith normal form divisor chain of M: a divisor 1 for each unit pivot
    of `_unit_pivots`, then the echelon passes of `_smith_passes` on the
    dense remainder. Duplicate and zero rows only add zeros at the tail of
    the chain, so neither reads them. A `budget` caps the entries the
    pre-pass and each later pass may rewrite (LimitExceeded past it)."""
    k, rest, width = _unit_pivots(M, budget)
    d = [1] * k + _smith_passes(rest, width, budget)
    _smith_chain(d)
    return tuple(d + [0] * (min(M.rows, M.cols) - len(d)))


# -- modular rank and lattice predicates --------------------------------------

def _distinct_mod(M: IntMat, r: int) -> list:
    """The distinct nonzero rows of M reduced mod r >= 2; the rows of a
    matrix of masks are 0/1 already, and stay M's own tuples."""
    rows = M._rows
    if M._row_masks is None:
        rows = (tuple(x % r for x in row) for row in rows)
    return [row for row in dict.fromkeys(rows) if any(row)]


def _basis_rank(rows, width: int, p: int, budget: Optional[int] = None) -> int:
    """The rank mod p in _PACKED_PRIMES of rows of `width` entries packed by
    `_pack` (or masks at p = 2): a basis keyed by the leading entry, scaled to
    1, reduces each row until it vanishes or joins; it stops at rank width.
    With `budget` set, each reduction charges `width` entries, as a row
    operation of `_prime_echelon` does; the one past it raises LimitExceeded."""
    bits, basis, spent = 1 if p == 2 else 8, {}, 0
    for x in rows:
        while x:
            shift = (x.bit_length() - 1) // bits * bits
            y = basis.get(shift)
            if y is None:
                basis[shift] = x if x >> shift == 1 else _reduce(pow(x >> shift, -1, p) * x, width, p)
                break
            if budget is not None:
                spent += width
                if spent > budget:
                    raise _over_budget(budget)
            x = x ^ y if p == 2 else _reduce(x + (p - (x >> shift)) * y, width, p)
        if len(basis) == width:
            break
    return len(basis)


def rank_mod_p(M: IntMat, p: int) -> int:
    """Rank of M over the field with p elements."""
    _require_prime(p)
    if p in _PACKED_PRIMES:
        rows = M._row_masks if p == 2 and M._row_masks is not None else _packed(M, p)
        return _basis_rank(rows, M.cols, p)
    return len(_echelon(_distinct_mod(M, p), M.cols, p)[1])


def span_order_mod(M: IntMat, r: int, budget: Optional[int] = None) -> int:
    """Number of vectors in the row span of M in (Z/r)^cols. By the Chinese
    remainder theorem (Z/r)^cols is the product of the (Z/q)^cols over the
    prime powers q of r, and the span the product of its images, so the
    count is the product of the spans mod each q: q^rank at a prime q <= 13,
    else the product of q / pivot over the Howell form mod q, whose pivots
    divide q. A `budget` caps the entries the basis or the elimination may
    rewrite for each q (LimitExceeded past it)."""
    if r < 1:
        raise DimensionMismatch("moduli must be >= 1")
    count = 1
    while r > 1:
        p, q = _smallest_prime_factor(r), 1
        while r % p == 0:
            r, q = r // p, q * p
        if q in _PACKED_PRIMES:
            # first entry most significant, mod 2 too: a mask's last entry
            # first charged 20-40x more on long sparse rows (grid30x30's u <= v
            # rows 478M entries against 11M, C500's 83M against 1.6M)
            count *= q ** _basis_rank(_packed(M, q), M.cols, q, budget)
        else:
            rows, pivots = _echelon(_distinct_mod(M, q), M.cols, q, budget=budget)
            count *= prod(q // rows[i][c] for i, c in enumerate(pivots))
    return count


def lattice_index(M: IntMat, budget: Optional[int] = None) -> int:
    """Index of the row lattice of M in Z^cols, or 0 when its rank is below
    cols: the unit pivots of `_unit_pivots` keep the index, so it is the
    product of the echelon pivots of the dense remainder, which must reach
    rank cols with them. Skips duplicate and zero rows. A `budget` caps the
    entries the pre-pass and the elimination may each rewrite (LimitExceeded
    past it)."""
    k, rest, width = _unit_pivots(M, budget)
    if k + width < M.cols:
        return 0
    rows, pivots = _echelon(rest, width, budget=budget)
    return prod(rows[i][c] for i, c in enumerate(pivots)) if len(pivots) == width else 0


# -- Diophantine solving ------------------------------------------------------

def row_solve(M: IntMat, target: Sequence[int], r: int = 0,
              budget: Optional[int] = None) -> tuple:
    """Row vector c with c M == target (mod r when r > 0), by echelon form
    and back substitution.

    Returns (c, None), c reduced into [0, r) when r > 0, or (None, j) with j
    the first column such that no vector of the row lattice (plus r*Z^cols)
    agrees with `target` on columns 0..j. A `budget` caps the entries the
    elimination may rewrite (LimitExceeded past it).
    """
    if len(target) != M.cols:
        raise DimensionMismatch(f"target length {len(target)} != cols {M.cols}")
    if r in _PACKED_PRIMES:
        return _prime_row_solve(M, target, r, budget)
    m, n = M.rows, M.cols
    rows = [list(row) + w for row, w in zip(M._rows, IntMat.identity(m).row_list())]
    if r:
        rows = [[x % r for x in row] for row in rows]
    rows, pivots = _echelon(rows, n, r, budget=budget)
    pivot_rows = dict(zip(pivots, rows))
    # subtract pivot rows from [target | 0]; the witness part collects -c
    res = list(target) + [0] * m
    for j in range(n):
        rest = res[j] % r if r else res[j]
        p = pivot_rows.get(j)
        y, bad = divmod(rest, p[j]) if p else (0, rest)
        if bad:
            return None, j
        if y:
            res = [x - y * z for x, z in zip(res, p)]
    return tuple(-x % r if r else -x for x in res[n:]), None


def _prime_row_solve(M: IntMat, target: Sequence[int], p: int, budget: Optional[int]) -> tuple:
    """row_solve mod p in _PACKED_PRIMES on packed rows [row mod p | e_i],
    with the back substitution on the packed target too."""
    m, n = M.rows, M.cols
    bits, width = 1 if p == 2 else 8, n + m
    rows = [x | 1 << bits * (m - 1 - i) for i, x in enumerate(_packed(M, p, m))]
    rows, pivots = _prime_echelon(rows, n, width, p, budget)
    pivot_rows = dict(zip(pivots, rows))
    res = _pack([[x % p for x in target]], p, m)[0]
    for j in range(n):
        shift = bits * (width - 1 - j)
        if res.bit_length() > shift:  # entry j, as res vanishes left of it
            pivot = pivot_rows.get(j)
            if pivot is None:
                return None, j
            res = res ^ pivot if p == 2 else _reduce(res + (p - (res >> shift)) * pivot, width, p)
    return tuple(-x % p for x in _unpack(res & (1 << bits * m) - 1, m, p)), None


def divisor_tuple_str(divisors: Sequence[int]) -> str:
    """Exponent-compressed rendering, e.g. (1^3, 3) or (1^4, 2, 0^3)."""
    runs = [(d, len(list(run))) for d, run in groupby(divisors)]
    return "(" + ", ".join(f"{d}^{k}" if k > 1 else f"{d}" for d, k in runs) + ")"
