"""Exact integer linear algebra over Z.

Everything here runs on native Python integers, so intermediate entries may
grow past machine words without loss. Matrices are immutable; all operations
return fresh values.

The two workhorses are the Smith normal form (divisor chains, lattice
membership) and the row Hermite normal form (echelon bases, back
substitution). Both come with unimodular witnesses; lean divisor-only and
rank-only paths exist for large inputs where witnesses would be dead weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, NotPrime


class IntMat:
    """Immutable integer matrix, row-major."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: Iterable[Iterable[int]], cols: Optional[int] = None):
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DimensionMismatch("ragged rows")
        else:
            width = 0 if cols is None else cols
        self._rows = data
        self.rows = len(data)
        self.cols = width if data else (cols or 0)

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMat":
        return cls([[0] * n for _ in range(m)], cols=n)

    @classmethod
    def from_json(cls, obj: dict) -> "IntMat":
        m, n, entries = obj["rows"], obj["cols"], obj["entries"]
        if len(entries) != m * n:
            raise DimensionMismatch("entries length != rows*cols")
        return cls([entries[i * n:(i + 1) * n] for i in range(m)], cols=n)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [x for row in self._rows for x in row],
        }

    @property
    def entries(self) -> tuple:
        return tuple(x for row in self._rows for x in row)

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def row_list(self) -> list:
        return [list(r) for r in self._rows]

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMat) and self._rows == other._rows \
            and self.cols == other.cols

    def __hash__(self):
        return hash((self._rows, self.cols))

    def __repr__(self):
        return f"IntMat({[list(r) for r in self._rows]!r})"

    def transpose(self) -> "IntMat":
        return IntMat(zip(*self._rows)) if self._rows else IntMat([], cols=0)

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} != {other.rows}")
        bt = list(zip(*other._rows)) if other._rows else []
        return IntMat(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self._rows],
            cols=other.cols,
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._rows for x in row)


def mat_vec(vec: Sequence[int], mat: IntMat) -> tuple:
    """Row vector times matrix."""
    if len(vec) != mat.rows:
        raise DimensionMismatch(f"{len(vec)} != {mat.rows}")
    out = [0] * mat.cols
    for c, row in zip(vec, mat._rows):
        if c:
            for j, x in enumerate(row):
                out[j] += c * x
    return tuple(out)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


# -- Smith normal form --------------------------------------------------------

@dataclass(frozen=True)
class SNFDecomposition:
    """U @ M @ V == D with U, V unimodular and D = diag(divisors)."""

    U: IntMat
    D: IntMat
    V: IntMat
    divisors: tuple

    def check(self, M: IntMat) -> bool:
        return (self.U @ M @ self.V) == self.D


def _min_abs_pivot(a, t, m, n):
    best = None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            v = row[j]
            if v and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
                if best[0] == 1:
                    return best[1], best[2]
    return None if best is None else (best[1], best[2])


def _diagonalize(a, m, n, U=None, V=None):
    """In-place SNF elimination on list-of-lists `a`; witnesses optional."""
    t = 0
    while t < min(m, n):
        piv = _min_abs_pivot(a, t, m, n)
        if piv is None:
            break
        i, j = piv
        if i != t:
            a[t], a[i] = a[i], a[t]
            if U is not None:
                U[t], U[i] = U[i], U[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            if V is not None:
                for row in V:
                    row[t], row[j] = row[j], row[t]
        while True:
            # clear column t
            restart = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        _row_sub(a, i, t, q)
                        if U is not None:
                            _row_sub(U, i, t, q)
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        if U is not None:
                            U[t], U[i] = U[i], U[t]
                        restart = True
                        break
            if restart:
                continue
            # clear row t
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        _col_sub(a, j, t, q)
                        if V is not None:
                            _col_sub(V, j, t, q)
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        if V is not None:
                            for row in V:
                                row[t], row[j] = row[j], row[t]
                        restart = True
                        break
            if restart:
                continue
            break
        # divisibility sweep: pivot must divide every remaining entry
        p = a[t][t]
        offender = None
        for i in range(t + 1, m):
            row = a[i]
            for j in range(t + 1, n):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _row_add(a, t, offender)
            if U is not None:
                _row_add(U, t, offender)
            continue  # redo step t
        if p < 0:
            a[t] = [-x for x in a[t]]
            if U is not None:
                U[t] = [-x for x in U[t]]
        t += 1


def _row_sub(a, i, t, q):
    ri, rt = a[i], a[t]
    a[i] = [x - q * y for x, y in zip(ri, rt)]


def _row_add(a, i, k):
    a[i] = [x + y for x, y in zip(a[i], a[k])]


def _col_sub(a, j, t, q):
    for row in a:
        row[j] -= q * row[t]


def snf(M: IntMat) -> SNFDecomposition:
    """Smith normal form with unimodular witnesses U, V."""
    m, n = M.rows, M.cols
    a = M.row_list()
    U = IntMat.identity(m).row_list()
    V = IntMat.identity(n).row_list()
    _diagonalize(a, m, n, U, V)
    divisors = tuple(a[i][i] for i in range(min(m, n)))
    return SNFDecomposition(IntMat(U, cols=m), IntMat(a, cols=n), IntMat(V, cols=n), divisors)


def snf_divisors(M: IntMat) -> tuple:
    """Divisor chain only; skips witness bookkeeping and duplicate rows."""
    seen = set()
    rows = []
    for r in M._rows:
        if r not in seen and any(r):
            seen.add(r)
            rows.append(list(r))
    m, n = len(rows), M.cols
    if m == 0:
        return (0,) * min(M.rows, n)
    _diagonalize(rows, m, n)
    divs = [rows[i][i] for i in range(min(m, n))]
    # duplicate and zero rows removed above never carry extra divisors: they
    # only contribute zeros at the tail of the chain
    divs += [0] * (min(M.rows, n) - len(divs))
    return tuple(divs[:min(M.rows, n)])


# -- Hermite normal form ------------------------------------------------------

@dataclass(frozen=True)
class HNFDecomposition:
    """U @ M == H (columns permuted first when a permutation is present).

    H is in row echelon form: pivots positive and strictly right-moving,
    entries above each pivot reduced into [0, pivot), zero rows last. With
    `column_permutation` set, H's column k corresponds to original column
    column_permutation[k] and the pivots read 1, ..., 1, a_1 <= ... <= a_k
    with a_1 > 1 (identity block, then the constrained block, then zeros).
    """

    U: IntMat
    H: IntMat
    column_permutation: Optional[tuple] = None

    def pivots(self) -> list:
        """(row, col, value) for each pivot row of H."""
        out = []
        for i, row in enumerate(self.H._rows):
            for j, v in enumerate(row):
                if v:
                    out.append((i, j, v))
                    break
        return out


def _hnf_core(M: IntMat, nice: bool):
    m, n = M.rows, M.cols
    a = M.row_list()
    U = IntMat.identity(m).row_list()
    perm = list(range(n))
    row = 0
    pos = 0  # next column position to fill
    while row < m and pos < n:
        if nice:
            # choose the remaining column whose entries below `row` have the
            # smallest nonzero gcd; gcds never drop during elimination, so
            # the pivot sequence comes out sorted
            best = None
            for k in range(pos, n):
                g = 0
                for i in range(row, m):
                    g = gcd(g, a[i][k])
                    if g == 1:
                        break
                if g and (best is None or g < best[0]):
                    best = (g, k)
                    if g == 1:
                        break
            if best is None:
                break
            k = best[1]
            if k != pos:
                for r in a:
                    r[pos], r[k] = r[k], r[pos]
                perm[pos], perm[k] = perm[k], perm[pos]
        col = pos
        # gcd-collect column entries at rows >= row into the pivot slot
        if not any(a[i][col] for i in range(row, m)):
            pos += 1
            continue
        while True:
            i_min = min(
                (i for i in range(row, m) if a[i][col]),
                key=lambda i: abs(a[i][col]),
            )
            if i_min != row:
                a[row], a[i_min] = a[i_min], a[row]
                U[row], U[i_min] = U[i_min], U[row]
            done = True
            for i in range(row + 1, m):
                if a[i][col]:
                    q = a[i][col] // a[row][col]
                    _row_sub(a, i, row, q)
                    _row_sub(U, i, row, q)
                    if a[i][col]:
                        done = False
            if done:
                break
        if a[row][col] < 0:
            a[row] = [-x for x in a[row]]
            U[row] = [-x for x in U[row]]
        pivot = a[row][col]
        for i in range(row):
            q = a[i][col] // pivot
            if q:
                _row_sub(a, i, row, q)
                _row_sub(U, i, row, q)
        row += 1
        pos += 1
    return a, U, perm


def hnf(M: IntMat, nice: bool = False) -> HNFDecomposition:
    """Row Hermite normal form; `nice` allows a column permutation that
    front-loads unit pivots and sorts the rest ascending."""
    a, U, perm = _hnf_core(M, nice)
    return HNFDecomposition(
        IntMat(U, cols=M.rows),
        IntMat(a, cols=M.cols),
        tuple(perm) if nice else None,
    )


# -- modular rank and lattice predicates --------------------------------------

def rank_mod_p(M: IntMat, p: int) -> int:
    """Rank of M over the field with p elements."""
    _require_prime(p)
    rows = []
    seen = set()
    for r in M._rows:
        rr = tuple(x % p for x in r)
        if any(rr) and rr not in seen:
            seen.add(rr)
            rows.append(list(rr))
    n = M.cols
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p) if p > 2 else rows[rank][col]
        prow = rows[rank]
        if inv != 1:
            prow[:] = [(x * inv) % p for x in prow]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def spans_full_lattice(M: IntMat) -> bool:
    """True iff the rows of M generate all of Z^cols."""
    n = M.cols
    if n == 0:
        return True
    if M.rows < n:
        return False
    divs = snf_divisors(M)
    return len(divs) >= n and all(d == 1 for d in divs[:n])


def row_sum_divisibility_certificate(M: IntMat, p: int) -> bool:
    """True iff every row sum of M is divisible by p.

    With at least as many rows as columns this forces an elementary divisor
    of M divisible by p (zero counts); with fewer rows it is only the raw
    divisibility fact.
    """
    _require_prime(p)
    return all(sum(row) % p == 0 for row in M._rows)


# -- Diophantine solving ------------------------------------------------------

def solve_row_combination(M: IntMat, target: Sequence[int]) -> Optional[tuple]:
    """Integer row vector c with c @ M == target, or None.

    Decides membership of `target` in the row lattice of M by Smith normal
    form back substitution; the returned combination verifies exactly.
    """
    if len(target) != M.cols:
        raise DimensionMismatch(f"target length {len(target)} != cols {M.cols}")
    m, n = M.rows, M.cols
    if m == 0:
        return None if any(target) else ()
    dec = snf(M)
    k = min(m, n)
    # c @ M = t  <=>  (c @ Uinv) @ D = t @ V, with z = c @ Uinv supported on
    # the diagonal part of D
    tv = mat_vec(tuple(target), dec.V)
    z = [0] * m
    for i in range(k):
        d = dec.divisors[i]
        if d == 0:
            if tv[i]:
                return None
        else:
            if tv[i] % d:
                return None
            z[i] = tv[i] // d
    if any(tv[i] for i in range(k, n)):
        return None
    c = mat_vec(tuple(z), dec.U)
    if mat_vec(c, M) != tuple(target):  # pragma: no cover - internal check
        raise ArithmeticError("SNF back substitution produced a bad witness")
    return c


def divisor_tuple_str(divisors: Sequence[int]) -> str:
    """Exponent-compressed rendering, e.g. (1^3, 3) or (1^4, 2, 0^3)."""
    out = []
    i = 0
    divs = list(divisors)
    while i < len(divs):
        j = i
        while j < len(divs) and divs[j] == divs[i]:
            j += 1
        run = j - i
        out.append(f"{divs[i]}^{run}" if run > 1 else f"{divs[i]}")
        i = j
    return "(" + ", ".join(out) + ")"


def divisor_table_csv(rows: Iterable) -> str:
    """CSV text for (label, divisors) pairs."""
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["label", "divisors"])
    for label, divisors in rows:
        writer.writerow([label, divisor_tuple_str(divisors)])
    return buf.getvalue()


def parse_divisor_tuple(text: str) -> tuple:
    """Inverse of divisor_tuple_str."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    out = []
    if body.strip():
        for part in body.split(","):
            part = part.strip()
            if "^" in part:
                v, e = part.split("^")
                out.extend([int(v)] * int(e))
            else:
                out.append(int(part))
    return tuple(out)
