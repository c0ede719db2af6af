"""Deciding when a graph is reducible to abelian (RA).

A graph is RA when the coordinatewise commutator subgroup of every graph
power is the full [G,G]^n. That holds exactly when the intersection matrix
(rows: indicator vectors of pairwise closed-neighborhood intersections)
spans the full integer lattice, so the verdict is that theorem itself:
`is_ra` takes the index of the row lattice from one echelon pass over Z, and
the graph is RA when it is 1. The census reads the index's possible primes
off the activation divisors and tests only the rank mod each of them; a
graph whose A+I is singular still takes the pass over Z.

Structural sufficient conditions (girth at least 5, girth-4 shapes, complete
bipartite shapes) are reported as advisory hints; the lattice test stays the
decision procedure.
"""

from __future__ import annotations

import warnings
from math import gcd, inf
from typing import NamedTuple, Optional

from .errors import InvalidParameter, LimitExceeded, PreconditionViolated, UnsupportedFamily
from .graphs import (
    Graph,
    classify,
    enumerate_connected_graphs,
    graph6_encode,
    is_connected,
    is_neighborhood_distinguishable,
)
from .zlinalg import (IntMat, _require_prime, _smallest_prime_factor, lattice_index,
                      rank_mod_p, snf_divisors)

# Every reader of the intersection rows (the RA test, heisenberg_ra, the
# closed-form test and the Comm_b and Comm_d orders in `power`, `eldivs
# --matrix ra`) takes the one IntMat of their masks that `_distinct_rows`
# builds, which stops once the distinct nonzero rows hold more than this many
# entries: Q9's 12032 rows hold 6.2 million and pass, Q10, Q12 and C4000 stop
# within a second. Ranks and spans mod p <= 13 read the masks (packed first
# entry most significant, except a rank mod 2), and so does the unit-pivot
# pre-pass of the lattice index and the Smith divisors over Z; spans mod
# other factors of [G,G] and the dense remainder after the pre-pass take
# entry tuples. A budgeted elimination stops, with LimitExceeded instead of
# exhausting time or memory, once it has charged this many entries: the
# pivot row's support per row operation of the pre-pass, and the full row
# width per row reduction of a span's basis mod p <= 13 and per row
# operation of the list kernel over Z or mod other r. The pre-pass of Q9's
# lattice index writes 55188 entries and leaves one column; the Smith
# divisors of Q8's A+I, whose dense remainder has 128 rows, and dense graphs
# of 120 vertices and more, through entry growth, still stop. Both bounds
# count entries, also of packed rows.
RA_TEST_BUDGET = 1 << 24


def _closed_masks(graph: Graph) -> list:
    """Bitmask of the closed neighborhood B(v) of each vertex v."""
    return [m | 1 << v for v, m in enumerate(graph._masks)]


def _distinct_rows(graph: Graph, include_equal: bool) -> IntMat:
    """The distinct nonzero rows B(u) cap B(v), u < v (u <= v with
    include_equal), as a 0/1 IntMat in the order of their first pair: the
    rows a lattice, a rank or a span depends on. Once the rows found up to
    some vertex u hold more than RA_TEST_BUDGET entries it raises
    LimitExceeded instead."""
    b = _closed_masks(graph)
    n = graph.n
    masks = {}
    for u, bu in enumerate(b):
        masks.update(dict.fromkeys(map(bu.__and__, b[u if include_equal else u + 1:])))
        rows = len(masks) - (0 in masks)
        if rows * n > RA_TEST_BUDGET:
            raise LimitExceeded(f"RA test: the distinct intersection rows through vertex {u} "
                                f"hold {rows * n} entries ({rows} rows of {n}), over the "
                                f"budget of {RA_TEST_BUDGET}")
    masks.pop(0, None)
    return IntMat.from_masks(masks, n)


def activation_matrix(graph: Graph) -> IntMat:
    """Adjacency plus identity; row v is the indicator of the closed
    neighborhood of v."""
    return IntMat.from_masks(_closed_masks(graph), graph.n)


class RAVerdict(NamedTuple):
    graph: str          # graph6
    ra: bool
    method: str         # "full_lattice"
    witness: str

    def to_json(self) -> dict:
        return {"graph": self.graph, "ra": self.ra,
                "method": self.method, "witness": self.witness}


def is_ra(graph: Graph) -> RAVerdict:
    """Decide the RA property for a connected, neighborhood-distinguishable
    graph: it is RA exactly when the rows of its intersection matrix span
    Z^n, i.e. their lattice has index 1. Otherwise the witness is the
    smallest prime dividing the index, over which the matrix loses rank, or
    the rank deficiency when the index is 0. Past RA_TEST_BUDGET it raises
    LimitExceeded instead of answering."""
    if not is_connected(graph):
        raise PreconditionViolated("graph must be connected (reduce components first)")
    if not is_neighborhood_distinguishable(graph):
        raise PreconditionViolated(
            "graph has neighborhood-indistinguishable vertices (reduce first)")
    rows = _distinct_rows(graph, True)
    try:
        index = lattice_index(rows, budget=RA_TEST_BUDGET)
    except LimitExceeded as exc:
        raise LimitExceeded(f"RA test: {exc}") from None
    if index == 1:
        witness = "lattice index 1"
    elif index == 0:
        witness = "zero divisor (rank deficient)"
    else:
        witness = f"prime {_smallest_prime_factor(index)}"
    return RAVerdict(graph6_encode(graph), index == 1, "full_lattice", witness)


def heisenberg_ra(graph: Graph, p: int) -> bool:
    """RA over the Heisenberg group of order p^3: full rank of the
    intersection matrix modulo p. Past RA_TEST_BUDGET distinct-row entries
    it raises LimitExceeded instead of answering."""
    _require_prime(p)
    return rank_mod_p(_distinct_rows(graph, True), p) == graph.n


def pqr_criterion(graph: Graph, p: int) -> bool:
    """Row-sum obstruction: every degree is -1 mod p, adjacent pairs share
    -2 mod p common neighbors, and distance-2 pairs share 0 mod p. When it
    holds, every row sum of the intersection matrix vanishes mod p, so the
    graph is not RA over the Heisenberg group of order p^3."""
    _require_prime(p)
    masks = graph._masks
    if any((m.bit_count() + 1) % p for m in masks):
        return False
    # a non-adjacent pair with a common neighbour is exactly a distance-2 pair
    for u, mu in enumerate(masks):
        for v in range(u + 1, graph.n):
            common = (mu & masks[v]).bit_count()
            if (common + 2 if mu >> v & 1 else common) % p:
                return False
    return True


# -- structural hints -----------------------------------------------------------

class Hint(NamedTuple):
    rule: str
    conclusion: str  # "ra" or "strongly_ra"
    detail: str


def _complete_bipartition(graph: Graph) -> Optional[tuple]:
    """(m, n) when the graph is the complete bipartite graph K_{m,n}, K1
    counting as K_{1,0}, else None. The right side is the neighbourhood of
    vertex 0, and each vertex must be adjacent to exactly the other side."""
    masks = graph._masks
    right = masks[0]
    left = (1 << graph.n) - 1 ^ right
    if (right or graph.n == 1) and all(m == (left if right >> v & 1 else right)
                                       for v, m in enumerate(masks)):
        return left.bit_count(), right.bit_count()
    return None


def structural_ra_hints(graph: Graph) -> list:
    """Sufficient conditions that fire for this graph. Advisory only; the
    lattice test remains the decision procedure."""
    hints = []
    cls = classify(graph)
    if not cls.connected:
        return hints
    girth = cls.girth
    if girth >= 5 and graph.n >= 3:
        tag = "girth >= 5" if girth != inf else "forest"
        hints.append(Hint("girth5", "strongly_ra", tag))
    if girth == 4:
        degs = [graph.degree(v) for v in range(graph.n)]
        if any(d == 1 for d in degs):
            hints.append(Hint("girth4_degree1", "strongly_ra", "pendant vertex"))
        if not cls.square_completion:
            hints.append(Hint("girth4_no_square_completion", "strongly_ra",
                              "a 3-vertex path with a unique middle"))
        if any(d == 2 for d in degs):
            hints.append(Hint("girth4_degree2", "ra", "degree-2 vertex"))
    parts = _complete_bipartition(graph)
    if parts is not None and min(parts) >= 1 and graph.n >= 3:
        m, n = parts
        hints.append(Hint("complete_bipartite", "ra", f"K_{{{m},{n}}}"))
        if gcd(m, n) == 1:
            hints.append(Hint("complete_bipartite_coprime", "strongly_ra",
                              f"gcd({m},{n}) = 1"))
    return hints


# -- closed-form divisor families -------------------------------------------------

def known_family_divisors(family: str, *params: int) -> tuple:
    """Closed-form activation divisor tuples for paths, cycles, complete
    bipartite graphs, and stars."""
    if family == "path":
        (n,) = params
        if n < 1:
            raise InvalidParameter("path needs n >= 1")
        return (1,) * (n - 1) + (0,) if n % 3 == 2 else (1,) * n
    if family == "cycle":
        (n,) = params
        if n < 3:
            raise InvalidParameter("cycle needs n >= 3")
        if n % 3 == 0:
            return (1,) * (n - 2) + (0, 0)
        return (1,) * (n - 1) + (3,)
    if family == "complete_bipartite":
        m, n = params
        if min(m, n) < 1:
            raise InvalidParameter("complete_bipartite needs m, n >= 1")
        return (1,) * (m + n - 1) + (m * n - 1,)
    if family == "star":
        (n,) = params
        if n < 1:
            raise InvalidParameter("star needs n >= 1")
        return (1,) * n + (n - 1,)
    raise UnsupportedFamily(f"no closed form for {family!r}")


# -- census -----------------------------------------------------------------------

class CensusRow(NamedTuple):
    n: int
    graph6: str
    divisors: tuple   # activation divisors
    ra: bool
    method: str
    witness: str


class CensusSummary(NamedTuple):
    n: int
    connected_classes: int
    distinguishable: int
    full_lattice: int
    ra_count: int


class CensusReport(NamedTuple):
    rows: tuple
    summaries: tuple

    def nontrivial_rows(self, max_n: Optional[int] = None) -> list:
        out = [r for r in self.rows
               if any(d != 1 for d in r.divisors)]
        if max_n is not None:
            out = [r for r in out if r.n <= max_n]
        return out

    def full_lattice_counts(self) -> tuple:
        return tuple(s.full_lattice for s in self.summaries)

    def distinguishable_counts(self) -> tuple:
        return tuple(s.distinguishable for s in self.summaries)


def _census_verdict(graph: Graph, divisors: tuple) -> RAVerdict:
    """is_ra(graph) for a census graph, from its activation divisors d. L
    holds the rows of A+I, so its index N divides |det(A+I)| = d_1 ... d_n,
    and a prime p divides N exactly when L loses rank mod p: with d_n > 0 the
    first such prime of d_n is N's smallest, is_ra's witness."""
    d = divisors[-1]
    if not d:
        return is_ra(graph)
    rows = _distinct_rows(graph, True) if d > 1 else None
    while d > 1:
        p = _smallest_prime_factor(d)
        if rank_mod_p(rows, p) < graph.n:
            return RAVerdict(graph6_encode(graph), False, "full_lattice", f"prime {p}")
        while d % p == 0:
            d //= p
    return RAVerdict(graph6_encode(graph), True, "full_lattice", "lattice index 1")


def census(max_n: int) -> CensusReport:
    """Analyze every connected neighborhood-distinguishable graph with up to
    max_n vertices: activation divisors and the RA verdict."""
    if max_n < 1:
        raise InvalidParameter("max_n must be positive")
    if max_n > 8:
        raise LimitExceeded(
            f"census to n = {max_n} is over the cap of 8 vertices: n = 9 alone "
            "has 261080 connected classes, against 11117 at n = 8")
    if max_n == 8:
        warnings.warn("census at n = 8 enumerates 11117 graph classes; "
                      "about 2.5 s on a Xeon core")
    rows, summaries = [], []
    for n in range(1, max_n + 1):
        connected_classes, start = 0, len(rows)
        for g in enumerate_connected_graphs(n):
            connected_classes += 1
            if is_neighborhood_distinguishable(g):
                divs = snf_divisors(activation_matrix(g))
                verdict = _census_verdict(g, divs)
                rows.append(CensusRow(n, verdict.graph, divs, verdict.ra,
                                      verdict.method, verdict.witness))
        new = rows[start:]
        summaries.append(CensusSummary(n, connected_classes, len(new),
                                       sum(r.divisors[-1] == 1 for r in new),
                                       sum(r.ra for r in new)))
    return CensusReport(tuple(rows), tuple(summaries))
