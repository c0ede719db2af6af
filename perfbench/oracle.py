"""Independent reference code for building inputs and checking answers.

Nothing here imports graphpower: the benchmark builds the graphs it sends,
encodes them as graph6 literals and checks solver answers with its own
arithmetic, so a bug in the program cannot hide in its own checker.

Family constructors number vertices exactly as the `graphpower` CLI does for
the same family label (`grid12x12`, `Q7`, ...), because `solve` targets are
indexed by vertex.
"""

from __future__ import annotations

from fractions import Fraction


def grid(m: int, k: int) -> tuple:
    edges = []
    for i in range(m):
        for j in range(k):
            if j + 1 < k:
                edges.append((i * k + j, i * k + j + 1))
            if i + 1 < m:
                edges.append((i * k + j, (i + 1) * k + j))
    return m * k, edges


def hypercube(d: int) -> tuple:
    n = 1 << d
    return n, [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]


def folded_cube(d: int) -> tuple:
    n, edges = hypercube(d - 1)
    return n, edges + [(v, v ^ (n - 1)) for v in range(n) if v < v ^ (n - 1)]


def path(n: int) -> tuple:
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> tuple:
    return n, [(i, (i + 1) % n) for i in range(n)]


def complete_bipartite(m: int, n: int) -> tuple:
    return m + n, [(i, m + j) for i in range(m) for j in range(n)]


def petersen() -> tuple:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + spokes + inner


def family(label: str) -> tuple:
    """(n, edges) for the family labels the workloads use."""
    if label == "petersen":
        return petersen()
    if label.startswith("grid"):
        m, k = label[4:].split("x")
        return grid(int(m), int(k))
    if label.startswith("FQ"):
        return folded_cube(int(label[2:]))
    if label.startswith("Q"):
        return hypercube(int(label[1:]))
    if label.startswith("K"):
        m, k = label[1:].split(",")
        return complete_bipartite(int(m), int(k))
    if label.startswith("C"):
        return cycle(int(label[1:]))
    if label.startswith("P"):
        return path(int(label[1:]))
    raise ValueError(f"no reference constructor for {label!r}")


def relabel(n: int, edges, perm) -> list:
    """New vertex i is old vertex perm[i]."""
    inv = [0] * n
    for i, v in enumerate(perm):
        inv[v] = i
    return [(inv[u], inv[v]) for u, v in edges]


def graph6(n: int, edges) -> str:
    """graph6 encoding (n < 258047): size prefix, then the upper triangle
    column by column, six bits per printable character."""
    if n < 63:
        out = [chr(n + 63)]
    else:
        out = [chr(126)] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def activation_rows(n: int, edges) -> list:
    """Closed neighborhoods as sorted vertex lists (row v of A + I)."""
    nb = [{v} for v in range(n)]
    for u, v in edges:
        nb[u].add(v)
        nb[v].add(u)
    return [sorted(s) for s in nb]


def intersection_rows(n: int, edges) -> list:
    """Rows of the RA matrix: B(u) & B(v) for u <= v, as sorted lists."""
    nb = [set(r) for r in activation_rows(n, edges)]
    return [sorted(nb[u] & nb[v]) for u in range(n) for v in range(u, n)]


def parse_divisors(text: str) -> tuple:
    """'(1^4, 2, 0^3)' -> (1, 1, 1, 1, 2, 0, 0, 0)."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not a divisor tuple: {text!r}")
    out = []
    for part in filter(None, (p.strip() for p in body[1:-1].split(","))):
        value, _, count = part.partition("^")
        out += [int(value)] * int(count or 1)
    return tuple(out)


def row_times_matrix(x, rows, n: int) -> list:
    """x . A for the 0/1 matrix whose row v has ones at rows[v]."""
    out = [0] * n
    for v, c in enumerate(x):
        if c:
            for w in rows[v]:
                out[w] += c
    return out


class EchelonModP:
    """Row echelon form of A over GF(p), to decide whether t is in the row
    space: reduce t by the pivot rows and see whether anything is left."""

    def __init__(self, rows, n: int, p: int):
        self.p = p
        self.pivots = {}  # column -> normalized row, in insertion order
        for support in rows:
            if len(self.pivots) == n:
                break  # full rank: every further row is in the span
            vec = [0] * n
            for w in support:
                vec[w] = 1
            self._insert(vec)

    def _reduce(self, vec):
        p = self.p
        for col, prow in self.pivots.items():
            f = vec[col]
            if f:
                vec = [(a - f * b) % p for a, b in zip(vec, prow)]
        return vec

    def _insert(self, vec) -> None:
        p = self.p
        vec = self._reduce([x % p for x in vec])
        col = next((j for j, x in enumerate(vec) if x), None)
        if col is None:
            return
        inv = pow(vec[col], p - 2, p)
        # each pivot row is zero at every earlier pivot column, so one pass
        # over the pivots in insertion order reduces a vector completely
        self.pivots[col] = [(x * inv) % p for x in vec]

    def contains(self, target) -> bool:
        return not any(self._reduce([x % self.p for x in target]))


def integer_solvable(rows, n: int, target) -> bool:
    """Whether x . A = target has an integer solution, for nonsingular A:
    solve over the rationals and test integrality."""
    # A is symmetric, so x . A = t is A x = t
    aug = [[Fraction(0)] * n + [Fraction(t)] for t in target]
    for v, support in enumerate(rows):
        for w in support:
            aug[v][w] = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ValueError("activation matrix is singular over Q")
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        inv = 1 / prow[col]
        prow[:] = [x * inv for x in prow]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], prow)]
    return all(aug[i][n].denominator == 1 for i in range(n))
