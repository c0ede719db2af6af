"""Finite simple graphs: construction, classification, enumeration, IO.

Vertices are always 0..n-1. Graphs are immutable after construction and all
operations are pure, so values can be shared freely.
"""

from __future__ import annotations

import binascii
import functools
import json
import math
import re
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    LimitExceeded,
    MalformedGraph6,
    SelfLoopRejected,
    SpecParseError,
)

# size caps checked before any vertex or edge storage is allocated; far above
# the largest graph the library is used on (grid20x20: 400 vertices, 760 edges)
MAX_VERTICES = 4096
MAX_EDGES = 65536

# individualization-refinement visits a handful of search nodes per graph at
# enumeration scale (K16 takes one path per level), but some highly regular
# graphs still need exponentially many; this library needs certificates only
# at enumeration scale
_CERTIFICATE_MAX_N = 16


class Graph:
    """Undirected simple graph on vertices 0..n-1, stored as one neighbour
    bitmask per vertex: bit w of _masks[v] is set when vw is an edge."""

    __slots__ = ("n", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple]):
        """Duplicate edges are accepted idempotently; bad indices and
        self-loops raise."""
        if n < 1:
            raise InvalidParameter("graphs need at least one vertex")
        if n > MAX_VERTICES:
            raise LimitExceeded(f"{n} vertices exceed the cap of {MAX_VERTICES}")
        masks = [0] * n
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopRejected(f"self-loop at {u}")
            if not masks[u] >> v & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
                count += 1
                if count > MAX_EDGES:
                    raise LimitExceeded(f"more than {MAX_EDGES} edges exceed the cap")
        self.n = n
        self._masks = tuple(masks)

    @classmethod
    def _from_masks(cls, masks: Sequence[int]) -> "Graph":
        """The graph whose vertex v has neighbour bitmask masks[v]; the masks
        must be symmetric and loop-free, which is not checked."""
        g = cls.__new__(cls)
        g.n = len(masks)
        g._masks = tuple(masks)
        return g

    @property
    def edges(self) -> frozenset:
        """The edges as pairs (u, v) with u < v."""
        return frozenset((u, v) for v, m in enumerate(self._masks)
                         for u in _vertices(m & ((1 << v) - 1)))

    def neighbors(self, v: int) -> frozenset:
        self._check(v)
        return frozenset(_vertices(self._masks[v]))

    def degree(self, v: int) -> int:
        self._check(v)
        return self._masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return bool(self._masks[u] >> v & 1)

    def _check(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexOutOfRange(f"vertex {v} outside 0..{self.n - 1}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._masks == other._masks

    def __hash__(self):
        return hash(self._masks)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def closed_neighborhood(g: Graph, v: int) -> frozenset:
    """v together with its neighbors."""
    return g.neighbors(v) | {v}


# -- standard families --------------------------------------------------------

def path(n: int) -> Graph:
    _at_least(n, 1, "path")
    _check_size("path", n, n - 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _at_least(n, 3, "cycle")
    _check_size("cycle", n, n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    _at_least(n, 1, "complete")
    _check_size("complete", n, n * (n - 1) // 2)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    _at_least(m, 1, "complete_bipartite")
    _at_least(n, 1, "complete_bipartite")
    _check_size("complete_bipartite", m + n, m * n)
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star(n: int) -> Graph:
    """Star with n leaves (n+1 vertices, hub 0)."""
    _at_least(n, 1, "star")
    _check_size("star", n + 1, n)
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def hypercube(d: int) -> Graph:
    """d-cube on the d-bit strings in binary order."""
    if d < 0:
        raise InvalidParameter("hypercube needs d >= 0")
    if d >= MAX_VERTICES.bit_length():
        raise LimitExceeded(f"hypercube {d} has 2^{d} vertices, over the cap of {MAX_VERTICES}")
    n = 1 << d
    _check_size("hypercube", n, d * n // 2)
    return Graph(max(n, 1), [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)])


def folded_cube(d: int) -> Graph:
    """(d-1)-cube with every pair of antipodal vertices joined."""
    _at_least(d, 2, "folded_cube")
    if d > MAX_VERTICES.bit_length():
        raise LimitExceeded(f"folded_cube {d} has 2^{d - 1} vertices, over the cap of {MAX_VERTICES}")
    _check_size("folded_cube", 1 << (d - 1), d << (d - 2))
    base = hypercube(d - 1)._masks
    top = len(base) - 1
    return Graph._from_masks([m | 1 << (v ^ top) for v, m in enumerate(base)])


def wheel(n: int) -> Graph:
    """Wheel on n vertices: hub n-1 joined to the cycle 0..n-2."""
    _at_least(n, 4, "wheel")
    _check_size("wheel", n, 2 * (n - 1))
    rim = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
    spokes = [(i, n - 1) for i in range(n - 1)]
    return Graph(n, rim + spokes)


def grid(m: int, k: int) -> Graph:
    _at_least(m, 1, "grid")
    _at_least(k, 1, "grid")
    _check_size("grid", m * k, m * (k - 1) + (m - 1) * k)
    edges = []
    for i in range(m):
        for j in range(k):
            if j + 1 < k:
                edges.append((i * k + j, i * k + j + 1))
            if i + 1 < m:
                edges.append((i * k + j, (i + 1) * k + j))
    return Graph(m * k, edges)


def tadpole(m: int, k: int) -> Graph:
    """Cycle on m vertices with a pendant path of k extra vertices at vertex 0."""
    _at_least(m, 3, "tadpole")
    _at_least(k, 1, "tadpole")
    _check_size("tadpole", m + k, m + k)
    edges = [(i, (i + 1) % m) for i in range(m)]
    prev = 0
    for t in range(k):
        edges.append((prev, m + t))
        prev = m + t
    return Graph(m + k, edges)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def triangle_strip(n: int) -> Graph:
    """Vertices 0..n-1 with triangles 012, 123, ..., (n-3)(n-2)(n-1)."""
    _at_least(n, 3, "triangle_strip")
    _check_size("triangle_strip", n, 2 * n - 3)
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
    return Graph(n, edges)


# name -> (builder, CLI shorthand); a shorthand captures one group per
# builder parameter
FAMILIES = {
    "path": (path, re.compile(r"P(\d+)")),
    "cycle": (cycle, re.compile(r"C(\d+)")),
    "complete": (complete, re.compile(r"K(\d+)")),
    "complete_bipartite": (complete_bipartite, re.compile(r"K(\d+),(\d+)")),
    "star": (star, re.compile(r"St(\d+)")),
    "hypercube": (hypercube, re.compile(r"Q(\d+)")),
    "folded_cube": (folded_cube, re.compile(r"FQ(\d+)")),
    "wheel": (wheel, re.compile(r"W(\d+)")),
    "grid": (grid, re.compile(r"grid(\d+)x(\d+)")),
    "tadpole": (tadpole, re.compile(r"T(\d+),(\d+)")),
    "petersen": (petersen, re.compile(r"(?ai:petersen)")),
    "triangle_strip": (triangle_strip, re.compile(r"TS(\d+)")),
}


def make_family(family: str, *params: int) -> Graph:
    if family not in FAMILIES:
        raise InvalidParameter(f"unknown family {family!r}")
    build, shorthand = FAMILIES[family]
    if len(params) != shorthand.groups:
        raise InvalidParameter(f"{family} takes {shorthand.groups} parameter(s), got {len(params)}")
    return build(*params)


def _at_least(value: int, minimum: int, family: str) -> None:
    if value < minimum:
        raise InvalidParameter(f"{family} parameter {value} below minimum {minimum}")


def _check_size(family: str, vertices: int, edges: int) -> None:
    if vertices > MAX_VERTICES or edges > MAX_EDGES:
        raise LimitExceeded(f"{family} would have {vertices} vertices and {edges} edges; "
                            f"the caps are {MAX_VERTICES} and {MAX_EDGES}")


# -- classification -----------------------------------------------------------

class Classification(NamedTuple):
    connected: bool
    components: tuple
    girth: float  # math.inf for forests
    nbhd_distinguishable: bool
    square_completion: bool
    degree_sequence: tuple

    def to_json(self) -> dict:
        return {
            "connected": self.connected,
            "components": [list(c) for c in self.components],
            "girth": None if math.isinf(self.girth) else int(self.girth),
            "nbhd_distinguishable": self.nbhd_distinguishable,
            "square_completion": self.square_completion,
            "degree_sequence": list(self.degree_sequence),
        }


def components(g: Graph) -> tuple:
    """Vertex tuples of the connected components, each sorted, in order of
    their lowest vertex: the closure of the lowest unvisited vertex under
    neighbour masks."""
    out = []
    rest = (1 << g.n) - 1
    while rest:
        comp = _closure(g._masks, rest & -rest, rest)
        rest ^= comp
        out.append(tuple(_vertices(comp)))
    return tuple(out)


def _closure(masks: Sequence[int], start: int, within: int) -> int:
    """Bitmask of the vertices of `within` reachable from those of `start`
    inside it, one breadth-first layer at a time."""
    reach = layer = start
    while layer:
        nxt = 0
        for v in _vertices(layer):
            nxt |= masks[v]
        layer = nxt & within & ~reach
        reach |= layer
    return reach


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def girth(g: Graph) -> float:
    """Length of a shortest cycle; inf for forests.

    Every cycle lies in the 2-core, so vertices of degree <= 1 are peeled
    first, in O(n + m); a forest peels away entirely. Then one breadth-first
    search from a core vertex s: a non-tree edge ab closes a walk through s of
    length d(a) + d(b) + 1, which holds a cycle at most that long, so the
    search finds a cycle no longer than any through s. A search stops at the
    depth where no shorter cycle can close. Then s leaves the core, which is
    peeled again, and the next search starts: every cycle through s is no
    shorter than the best found, and the others survive, so a long cycle
    peels away after one search. The scan stops at the first triangle. A
    vertex's core neighbours are read from its mask when a search first
    reaches it, so a dense graph reads only a few masks; a vertex that
    leaves the core later stays in the lists already read, marked as gone.
    """
    masks = g._masks
    degree = [m.bit_count() for m in masks]
    adj = [None] * g.n
    core = (1 << g.n) - 1
    unseen = [-1] * g.n  # a search's starting distances; -2 marks a vertex out of the core

    def peel(queue):
        nonlocal core
        for v in queue:
            core &= ~(1 << v)
            unseen[v] = -2
            for w in _vertices(masks[v] & core):
                degree[w] -= 1
                if degree[w] == 1:
                    queue.append(w)

    peel([v for v in range(g.n) if degree[v] <= 1])
    best = math.inf
    for s in range(g.n):
        if unseen[s] == -2:
            continue
        dist = unseen[:]
        parent = [-1] * g.n
        dist[s] = 0
        frontier = [s]
        depth = 0
        while frontier and 2 * depth + 1 < best:
            nxt = []
            for a in frontier:
                if adj[a] is None:
                    adj[a] = tuple(_vertices(masks[a] & core))
                for b in adj[a]:
                    if dist[b] == -1:
                        dist[b] = depth + 1
                        parent[b] = a
                        nxt.append(b)
                    elif dist[b] >= 0 and b != parent[a]:
                        best = min(best, depth + dist[b] + 1)
                        if best == 3:
                            return 3
            frontier = nxt
            depth += 1
        peel([s])
    return best


def is_neighborhood_distinguishable(g: Graph) -> bool:
    """No two vertices share a closed neighborhood."""
    seen = set()
    for v in range(g.n):
        key = g._masks[v] | (1 << v)
        if key in seen:
            return False
        seen.add(key)
    return True


def has_square_completion(g: Graph) -> bool:
    """Every 3-vertex path u-v-w extends to a 4-cycle through a vertex
    outside {u, v, w} adjacent to both u and w.

    A path u-v-w has no completion exactly when v is the only common
    neighbour of u and w, so the property fails iff some pair of vertices has
    exactly one common neighbour."""
    masks = g._masks
    for u in range(g.n):
        mu = masks[u]
        for w in range(u + 1, g.n):
            common = mu & masks[w]
            if common and not common & (common - 1):
                return False
    return True


def classify(g: Graph) -> Classification:
    comps = components(g)
    return Classification(
        connected=len(comps) == 1,
        components=comps,
        girth=girth(g),
        nbhd_distinguishable=is_neighborhood_distinguishable(g),
        square_completion=has_square_completion(g),
        degree_sequence=tuple(sorted((m.bit_count() for m in g._masks), reverse=True)),
    )


def reduce_indistinguishable(g: Graph) -> Graph:
    """Keep the lowest vertex of each closed-neighborhood class and delete
    the rest at once. Deleting one twin leaves every other twin class
    unchanged, so this is the graph that deleting twins one at a time leaves.
    Idempotent."""
    keep = {}
    for v, m in enumerate(g._masks):
        keep.setdefault(m | 1 << v, v)
    position = {v: i for i, v in enumerate(keep.values())}
    return Graph._from_masks([sum(1 << position[w] for w in _vertices(g._masks[v]) if w in position)
                              for v in position])


def _vertices(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


# -- canonical labeling and isomorph-free enumeration --------------------------

def _refine(masks: tuple, cells: list, stack: list, ncells: int) -> int:
    """Refine an ordered partition of ncells cells, in place, to the
    coarsest equitable one finer than it; return its number of cells.

    cells[s] is the vertex bitmask of the cell that starts at position s and
    0 at the other positions of a cell; stack holds the start positions of
    the splitter cells. Each cell is split by the number of neighbours its
    vertices have in a splitter, pieces ordered by that count, so the result
    does not depend on vertex labels: a singleton splitter splits a cell into
    its non-neighbours, then its neighbours.
    """
    n = len(cells)
    queued = set(stack)
    while stack and ncells < n:
        start = stack.pop()
        queued.discard(start)
        w = cells[start]
        single = masks[w.bit_length() - 1] if not w & (w - 1) else None
        s = 0
        while s < n:
            x = cells[s]
            size = x.bit_count()
            if single is not None:
                near = x & single
                if near and near != x:
                    k = size - near.bit_count()
                    cells[s], cells[s + k] = x ^ near, near
                    # a queued cell needs both pieces queued; otherwise the
                    # larger one, the first on a tie, is implied (Hopcroft)
                    pos = s + k if s in queued or 2 * k >= size else s
                    stack.append(pos)
                    queued.add(pos)
                    ncells += 1
            elif size > 1:
                groups = {}
                y = x
                while y:
                    b = y & -y
                    k = (masks[b.bit_length() - 1] & w).bit_count()
                    groups[k] = groups.get(k, 0) | b
                    y ^= b
                if len(groups) > 1:
                    pieces = [groups[k] for k in sorted(groups)]
                    sizes = [p.bit_count() for p in pieces]
                    # likewise every piece, or all but the largest
                    skip = 0 if s in queued else sizes.index(max(sizes))
                    pos = s
                    for i, p in enumerate(pieces):
                        cells[pos] = p
                        if i != skip and pos not in queued:
                            stack.append(pos)
                            queued.add(pos)
                        pos += sizes[i]
                    ncells += len(pieces) - 1
            s += size
    return ncells


def _column_codes(masks: tuple, order: Sequence[int]) -> tuple:
    """Code of each position j: the adjacency bits of order[j] to order[0..j-1],
    earliest position most significant."""
    codes = []
    for j, v in enumerate(order):
        mv = masks[v]
        code = 0
        for u in order[:j]:
            code = (code << 1) | (mv >> u & 1)
        codes.append(code)
    return tuple(codes)


def _canonical_search(n: int, masks: tuple) -> tuple:
    """(certificate, placement, automorphism generators) of the graph on
    0..n-1 with neighbour bitmasks `masks`, by individualization-refinement.

    The root partition is the equitable refinement of the unit partition.
    A node individualizes each vertex of its first smallest non-singleton
    cell in turn and refines; a leaf is a discrete partition, read as a
    vertex order and scored by its column codes. A leaf that scores like the
    first or the best leaf gives an automorphism (old order -> new order).
    A child whose orbit, under the automorphisms found so far that fix the
    node's individualized vertices, holds an explored child is skipped, and
    after such a leaf the search returns to the node where its path left the
    equivalent leaf's path, whose subtree there mirrors one already searched
    (McKay 1981). The automorphisms found generate the automorphism group.
    """
    if n > _CERTIFICATE_MAX_N:
        raise LimitExceeded(f"canonical labeling capped at {_CERTIFICATE_MAX_N} vertices")
    gens: list = []
    first = best = None  # (codes, order, individualized vertices)
    individualized: list = []

    def common_depth(other: list) -> int:
        d = 0
        for a, b in zip(individualized, other):
            if a != b:
                break
            d += 1
        return d

    def leaf(cells: list) -> int:
        nonlocal first, best
        order = [c.bit_length() - 1 for c in cells]
        codes = _column_codes(masks, order)
        if first is None:
            first = best = (codes, order, individualized.copy())
            return n
        jump = n
        for codes0, order0, path0 in ((first,) if best is first else (first, best)):
            if codes == codes0:
                aut = [0] * n
                for u, v in zip(order0, order):
                    aut[u] = v
                gens.append(tuple(aut))
                jump = min(jump, common_depth(path0))
        if codes < best[0]:
            best = (codes, order, individualized.copy())
        return jump

    def search(cells: list, ncells: int) -> int:
        """Search the subtree under this node; return the depth to resume at."""
        if ncells == n:
            return leaf(cells)
        target, tsize, s = 0, n + 1, 0
        while s < n:
            size = cells[s].bit_count()
            if 1 < size < tsize:
                target, tsize = s, size
            s += size
        depth = len(individualized)
        x = cells[target]
        explored = 0
        y = x
        while y:
            b = y & -y
            y ^= b
            v = b.bit_length() - 1
            if explored:
                fixing = [a for a in gens if all(a[u] == u for u in individualized)]
                if _orbit(v, fixing) & explored:
                    continue
            explored |= b
            child = cells.copy()
            child[target] = b
            child[target + 1] = x ^ b
            individualized.append(v)
            jump = search(child, _refine(masks, child, [target], ncells + 1))
            individualized.pop()
            if jump < depth:
                return jump
        return depth

    cells = [0] * n
    cells[0] = (1 << n) - 1
    search(cells, _refine(masks, cells, [0], 1))
    return (n, best[0]), best[1], gens


def canonical_form(g: Graph) -> tuple:
    """(certificate, placement) where placement[i] is the original vertex put
    at position i.

    The certificate is (n, codes) for the smallest code sequence over the
    leaves of the individualization-refinement tree (see _canonical_search);
    the tree depends only on the isomorphism class, so isomorphic graphs get
    equal certificates. The column code at position j packs the adjacency
    bits of the vertex placed there to positions 0..j-1, earliest position
    most significant, so comparing code sequences equals comparing the
    packed upper-triangle bit string, and the graph whose vertex i is g's
    vertex placement[i] has exactly these codes. A graph whose own labeling
    already scores the minimum gets the identity placement.
    """
    cert, placement, _ = _canonical_search(g.n, g._masks)
    if _column_codes(g._masks, range(g.n)) == cert[1]:
        placement = list(range(g.n))
    return cert, placement


def canonical_certificate(g: Graph) -> tuple:
    return canonical_form(g)[0]


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if sorted(m.bit_count() for m in a._masks) != sorted(m.bit_count() for m in b._masks):
        return False
    return canonical_certificate(a) == canonical_certificate(b)


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of connected graphs
    on n vertices, in certificate order (see _level). Capped at n = 8 (desk
    scale)."""
    if n < 1:
        raise InvalidParameter("n must be positive")
    if n > 8:
        raise LimitExceeded("enumeration capped at 8 vertices")
    for _, masks, _ in _level(n):
        yield Graph._from_masks(masks)


@functools.lru_cache(maxsize=None)
def _level(n: int) -> tuple:
    """(certificate, neighbour masks of the canonical representative,
    automorphism generators on its labels) per class, sorted.

    Canonical augmentation (McKay 1998): a child joins a new vertex n-1 to a
    parent from _level(n - 1), one neighbour set per orbit of the parent's
    automorphisms, and is kept only when n-1 is in the orbit of its
    canonical deletion vertex: of the non-cut vertices least in (degree,
    sorted neighbour degrees), the one placed first in the canonical order.
    Every connected graph has a non-cut vertex, and the choice does not
    depend on labels, so each class is kept once; a child that a non-cut
    vertex beats on the invariant is dropped before its search."""
    if n == 1:
        return (((1, (0,)), (0,), ()),)
    found = []
    last = n - 1
    for _, parent, parent_gens in _level(last):
        parent_degree = [m.bit_count() for m in parent]
        for mask in _subset_orbit_representatives(last, parent_gens):
            child = tuple(m | 1 << last if mask >> u & 1 else m
                          for u, m in enumerate(parent)) + (mask,)
            ties = _deletion_ties(child, [d + (mask >> u & 1) for u, d in enumerate(parent_degree)]
                                  + [mask.bit_count()])
            if not ties:
                continue
            cert, placement, gens = _canonical_search(n, child)
            first = next(v for v in placement if ties >> v & 1)
            if not _orbit(first, gens) >> last & 1:
                continue
            position = sorted(range(n), key=placement.__getitem__)
            bit = [1 << i for i in position]
            masks = []
            for v in placement:  # the canonical masks, by position bits
                m, x = child[v], 0
                while m:
                    b = m & -m
                    x |= bit[b.bit_length() - 1]
                    m ^= b
                masks.append(x)
            found.append((cert, tuple(masks),
                          tuple(tuple(position[a[v]] for v in placement) for a in gens)))
    return tuple(sorted(found))


def _deletion_ties(masks: tuple, degree: list) -> int:
    """Bitmask of the non-cut vertices that tie with the last vertex, itself
    non-cut, on (degree, sorted neighbour degrees), or 0 when one is less;
    degree[v] is v's degree. Neighbour degrees are read only for vertices
    tied on degree, and a vertex of degree 1 cuts no connected graph."""
    last = len(masks) - 1
    d, key, ties = degree[last], None, 1 << last
    for v in range(last):
        if degree[v] == d:
            if key is None:
                key = sorted(degree[w] for w in _vertices(masks[last]))
            other = sorted(degree[w] for w in _vertices(masks[v]))
        if degree[v] > d or degree[v] == d and other > key:
            continue
        rest = (2 << last) - 1 ^ 1 << v
        if degree[v] == 1 or _closure(masks, rest & -rest, rest) == rest:  # v is not a cut vertex
            if degree[v] < d or other < key:
                return 0
            ties |= 1 << v
    return ties


def _orbit(v: int, gens) -> int:
    """Bitmask of the orbit of v under the group generated by gens."""
    orbit, frontier = 1 << v, [v]
    for u in frontier:
        for a in gens:
            if not orbit >> a[u] & 1:
                orbit |= 1 << a[u]
                frontier.append(a[u])
    return orbit


def _subset_orbit_representatives(m: int, gens: list) -> Iterator[int]:
    """The smallest bitmask of each orbit of the nonempty subsets of 0..m-1
    under the group generated by gens."""
    if not gens:
        yield from range(1, 1 << m)
        return
    # images[x] is the image of the subset x, built up one element u at a time
    tables = []
    for a in gens:
        images = [0]
        for u in range(m):
            img = 1 << a[u]
            images += [y | img for y in images]
        tables.append(images)
    seen = bytearray(1 << m)
    for mask in range(1, 1 << m):
        if seen[mask]:
            continue
        yield mask
        seen[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for images in tables:
                y = images[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)


# -- graph6, DOT, JSON --------------------------------------------------------

# graph6 packs six bits per character exactly as base64 does, in the alphabet
# chr(63)..chr(126) instead of base64's own
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6 = bytes(range(63, 127))
_TO_GRAPH6 = bytes.maketrans(_BASE64, _GRAPH6)
_FROM_GRAPH6 = bytes.maketrans(_GRAPH6, _BASE64)


def graph6_encode(g: Graph) -> str:
    """Encode in graph6: the size (one character below 63 vertices, else
    four), then the upper triangle in column order, six bits per character,
    offset 63."""
    n = g.n
    bits = (f"{n:06b}" if n < 63 else f"111111{n:018b}") + "".join(
        [format(m & (1 << j) - 1, f"0{j}b")[::-1] for j, m in enumerate(g._masks[1:], 1)])
    chars = -(-len(bits) // 6)
    bits += "0" * (-len(bits) % 24)
    packed = binascii.b2a_base64(int(bits, 2).to_bytes(len(bits) // 8, "big"), newline=False)
    return packed[:chars].translate(_TO_GRAPH6).decode()


def graph6_decode(text: str) -> Graph:
    """The graph of a graph6 string, with or without the >>graph6<< header.
    The data length is checked against the size field before any bit is
    unpacked."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    raw = s.encode("utf-8", "surrogatepass")
    if raw.translate(None, _GRAPH6):
        bad = next(ch for ch in s if not "?" <= ch <= "~")
        raise MalformedGraph6(f"byte {bad!r} outside graph6 range")
    head = [c - 63 for c in raw[:8]]
    if head[0] < 63:
        size, k = head[:1], 1
    elif len(head) >= 4 and head[1] < 63:
        size, k = head[1:4], 4
    elif len(head) == 8:
        size, k = head[2:], 8
    else:
        raise MalformedGraph6("truncated size field")
    n = int("".join(f"{v:06b}" for v in size), 2)
    if n < 1:
        raise MalformedGraph6("graph6 with zero vertices unsupported")
    nbits = n * (n - 1) // 2
    need = -(-nbits // 6)
    if len(raw) - k != need:
        raise MalformedGraph6(f"expected {need} data bytes, got {len(raw) - k}")
    data = raw[k:].translate(_FROM_GRAPH6) + b"A" * (-need % 4)
    bits = format(int.from_bytes(binascii.a2b_base64(data), "big"), f"0{6 * len(data)}b")
    if bits.find("1", nbits) >= 0:
        raise MalformedGraph6("nonzero padding bits")
    edges = []
    k = bits.find("1")
    while k >= 0:
        j = (math.isqrt(8 * k + 1) + 1) // 2  # bit k lies in column j
        edges.append((k - j * (j - 1) // 2, j))
        k = bits.find("1", k + 1)
    return Graph(n, edges)


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        lines.append(f'  {v} [label="{v}"];')
    for u, v in sorted(g.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)


def to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def from_json(obj: dict) -> Graph:
    """The graph {"n": n, "edges": [[u, v], ...]}. n and both ends of every
    edge must be integers, not floats or booleans, and every edge a pair;
    anything else raises TypeError."""
    return Graph(_json_int(obj["n"]), (_json_edge(e) for e in obj["edges"]))


def _json_int(value) -> int:
    """A value read from JSON that must be an integer, not a float or a
    boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _json_edge(edge) -> tuple:
    if not isinstance(edge, (list, tuple)) or len(edge) != 2:
        raise TypeError(f"edge {edge!r} is not a pair")
    return _json_int(edge[0]), _json_int(edge[1])


# -- CLI graph mini-language ---------------------------------------------------

def parse_graph_spec(token: str) -> Graph:
    """Parse the CLI graph mini-language.

    Accepted forms: family shorthands (P5, C4, K5, K2,3, St3, Q3, FQ5, W6,
    T4,1, TS6, grid5x5, petersen), a literal `g6:<chars>` graph6 string, or
    `@path` naming a JSON file {"n": ..., "edges": [[i, j], ...]}.
    """
    tok = token.strip()
    if not tok:
        raise SpecParseError(token, "empty graph spec")
    if tok.startswith("g6:"):
        try:
            return graph6_decode(tok[3:])
        except MalformedGraph6 as exc:
            raise SpecParseError(tok, f"bad graph6 ({exc})") from exc
    if tok.startswith("@"):
        try:
            with open(tok[1:], "r", encoding="utf-8") as fh:
                return from_json(json.load(fh))
        except OSError as exc:
            raise SpecParseError(tok, f"cannot read file ({exc})") from exc
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise SpecParseError(tok, f"bad graph JSON ({exc})") from exc
    for build, shorthand in FAMILIES.values():
        m = shorthand.fullmatch(tok)
        if m:
            try:
                params = [int(x) for x in m.groups()]
            except ValueError as exc:  # past sys.get_int_max_str_digits()
                raise SpecParseError(tok, "number too long") from exc
            try:
                return build(*params)
            except InvalidParameter as exc:
                raise SpecParseError(tok, str(exc)) from exc
    raise SpecParseError(tok, "unrecognized graph spec")
