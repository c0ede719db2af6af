"""Finite groups given by permutation generators.

Built-in families: cyclic, dihedral, symmetric, alternating, Heisenberg (the
unitriangular 3x3 matrices over F_p, realized as affine maps of F_p^2 on p^2
points so one permutation engine serves everything), and direct products on
disjoint domains.

The abelianization is computed without coset tables: breadth-first search
over the cosets of the derived subgroup records one exponent vector per
coset, closing a Cayley-graph spanning tree; the non-tree edges generate the
relation lattice, and its Smith normal form yields the invariant factors and
a projection map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DomainMismatch,
    SearchBoundExceeded,
    SpecParseError,
    UnsupportedParameter,
)
from .perm import Perm, PermGroup, derived_subgroup_of
from .zlinalg import IntMat, mat_vec, is_prime, snf

ELEMENT_SEARCH_BOUND = 20000


class FiniteGroup:
    """A finite group with a faithful permutation representation."""

    __slots__ = ("name", "degree", "generators", "_perm_group", "_derived")

    def __init__(self, name: str, degree: int, generators: Sequence[Perm]):
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise DomainMismatch(f"generator degree {g.degree} != {degree}")
        self.name = name
        self.degree = degree
        self.generators = gens
        self._perm_group = None
        self._derived = None

    @property
    def perm_group(self) -> PermGroup:
        if self._perm_group is None:
            self._perm_group = PermGroup(self.degree, self.generators, max_order=None)
        return self._perm_group

    def order(self) -> int:
        return self.perm_group.order()

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def contains(self, p: Perm) -> bool:
        return p.degree == self.degree and self.perm_group.contains(p)

    def elements(self, bound: int = ELEMENT_SEARCH_BOUND) -> list:
        if self.order() > bound:
            raise SearchBoundExceeded(f"|{self.name}| = {self.order()} > {bound}")
        return self.perm_group.elements(limit=bound)

    def __repr__(self):
        return f"FiniteGroup({self.name}, degree={self.degree})"


# -- built-in families ---------------------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise UnsupportedParameter("cyclic needs n >= 1")
    if n == 1:
        return FiniteGroup("C1", 1, [])
    rot = Perm([(i + 1) % n for i in range(n)])
    return FiniteGroup(f"C{n}", n, [rot])


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order, acting on n = order/2 points
    for n >= 3; the degenerate n <= 2 cases fall back to the regular
    representation, where the natural action is not faithful."""
    if order < 2 or order % 2:
        raise UnsupportedParameter("dihedral takes an even order >= 2")
    n = order // 2
    if n == 1:
        swap = Perm([1, 0])
        return FiniteGroup("D2", 2, [swap])
    if n == 2:
        a = Perm([1, 0, 2, 3])
        b = Perm([0, 1, 3, 2])
        return FiniteGroup("D4", 4, [a, b])
    rot = Perm([(i + 1) % n for i in range(n)])
    refl = Perm([(n - i) % n for i in range(n)])
    return FiniteGroup(f"D{order}", n, [rot, refl])


def symmetric(m: int) -> FiniteGroup:
    if m < 1:
        raise UnsupportedParameter("symmetric needs m >= 1")
    if m == 1:
        return FiniteGroup("S1", 1, [])
    gens = [Perm.from_cycles(m, (0, 1))]
    if m > 2:
        gens.append(Perm(list(range(1, m)) + [0]))
    return FiniteGroup(f"S{m}", m, gens)


def alternating(m: int) -> FiniteGroup:
    if m < 3:
        raise UnsupportedParameter("alternating needs m >= 3")
    gens = [Perm.from_cycles(m, (0, 1, 2))]
    if m > 3:
        if m % 2:
            gens.append(Perm.from_cycles(m, tuple(range(m))))
        else:
            gens.append(Perm.from_cycles(m, tuple(range(1, m))))
    return FiniteGroup(f"A{m}", m, gens)


def heisenberg(p: int) -> FiniteGroup:
    """Heisenberg group over F_p (order p^3) as the affine maps
    (x, y) -> (x + a, y + b*x + c) of F_p^2, on p^2 points (point x*p + y).

    The generators (x, y) -> (x + 1, y) and (x, y) -> (x, y + x) play the
    unitriangular matrices with a = 1 resp. b = 1; the derived subgroup is
    the center, the translations (x, y) -> (x, y + c).

    The limit p <= 7 stays because `abelianization` tests each new coset
    against every coset found so far, which is quadratic in |G^Ab| = p^2
    (`ra gra C5 --group H13` would take about 1.3 s and H17 about 6 s on one
    2 GHz Xeon core; H7 takes 0.2 s)."""
    if not is_prime(p) or p > 7:
        raise UnsupportedParameter("heisenberg needs a prime p <= 7")
    shift = Perm([((x + 1) % p) * p + y for x in range(p) for y in range(p)])
    shear = Perm([x * p + (y + x) % p for x in range(p) for y in range(p)])
    return FiniteGroup(f"H{p}", p * p, [shift, shear])


def direct_product(*groups: FiniteGroup) -> FiniteGroup:
    if not groups:
        raise UnsupportedParameter("direct_product of nothing")
    if len(groups) == 1:
        return groups[0]
    degree = sum(g.degree for g in groups)
    gens = []
    offset = 0
    for g in groups:
        for gen in g.generators:
            image = list(range(offset)) + [offset + x for x in gen.image] \
                + list(range(offset + g.degree, degree))
            gens.append(Perm(image))
        offset += g.degree
    name = "x".join(g.name for g in groups)
    return FiniteGroup(name, degree, gens)


def make_group(kind: str, *params) -> FiniteGroup:
    """Build a catalog group. `direct_product` takes groups or spec strings:
    make_group("direct_product", "D8", "C3")."""
    if kind == "direct_product":
        factors = [p if isinstance(p, FiniteGroup) else parse_group_spec(p)
                   for p in params]
        return direct_product(*factors)
    table = {
        "cyclic": cyclic,
        "dihedral": dihedral,
        "symmetric": symmetric,
        "alternating": alternating,
        "heisenberg": heisenberg,
    }
    if kind not in table:
        raise UnsupportedParameter(f"unknown group kind {kind!r}")
    return table[kind](*params)


def parse_group_spec(text: str) -> FiniteGroup:
    """Parse the CLI group mini-language: C4, D8, S5, H3, A4, and products
    joined with 'x' such as D8xC3."""
    token = text.strip()
    if not token:
        raise SpecParseError(text, "empty group spec")
    parts = token.split("x")
    groups = []
    for part in parts:
        part = part.strip()
        letter = part[:1]
        if letter not in ("C", "D", "S", "A", "H") or not part[1:].isdigit():
            raise SpecParseError(part, "unrecognized group token")
        try:
            n = int(part[1:])
        except ValueError as exc:  # past sys.get_int_max_str_digits(), or a digit int() refuses
            raise SpecParseError(part, "bad group order") from exc
        builder = {"C": cyclic, "D": dihedral, "S": symmetric,
                   "A": alternating, "H": heisenberg}[letter]
        try:
            groups.append(builder(n))
        except UnsupportedParameter as exc:
            raise SpecParseError(part, str(exc)) from exc
    return groups[0] if len(groups) == 1 else direct_product(*groups)


# -- subgroups, commutators, abelianization -------------------------------------

def derived_subgroup(group: FiniteGroup) -> PermGroup:
    """Commutator subgroup, as the normal closure of generator-pair
    commutators."""
    if group._derived is None:
        if not group.generators:
            group._derived = PermGroup(group.degree, [], max_order=None)
        else:
            group._derived = derived_subgroup_of(
                group.degree, group.generators, max_order=None)
    return group._derived


def commutator_witnesses(group: FiniteGroup, bound: int = ELEMENT_SEARCH_BOUND) -> dict:
    """Map commutator value -> one (x, y) with [x, y] equal to it."""
    elems = group.elements(bound)
    inverses = {g: g.inverse() for g in elems}
    out = {}
    for x in elems:
        xi = inverses[x]
        for y in elems:
            c = x * y * xi * inverses[y]
            if c not in out:
                out[c] = (x, y)
    return out


@dataclass(frozen=True)
class AbelianInvariants:
    """G/[G,G] as a sum of cyclic groups Z/r_1 x ... x Z/r_k, r_1 | ... | r_k,
    each r_i >= 2, together with enough data to project group elements onto
    exponent vectors."""

    factors: tuple
    _group: FiniteGroup
    _coset_reps: tuple       # one representative Perm per coset
    _coset_vectors: tuple    # projected exponent vector per coset, same order
    _derived: PermGroup

    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f
        return out

    def project(self, g: Perm) -> tuple:
        """Exponent vector of g's class in the factor decomposition."""
        for rep, vec in zip(self._coset_reps, self._coset_vectors):
            if self._derived.contains(g * rep.inverse()):
                return vec
        raise DomainMismatch("element not in the group")


def abelianization(group: FiniteGroup) -> AbelianInvariants:
    derived = derived_subgroup(group)
    k = len(group.generators)
    identity = group.identity()
    if k == 0:
        return AbelianInvariants((), group, (identity,), ((),), derived)
    # BFS over cosets of [G, G]; record an exponent vector per coset and the
    # relation vectors closing non-tree Cayley edges
    reps = [identity]
    vectors = [(0,) * k]
    relations = []
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            rep, vec = reps[idx], vectors[idx]
            for gi, gen in enumerate(group.generators):
                new = rep * gen
                new_vec = tuple(v + (1 if j == gi else 0) for j, v in enumerate(vec))
                found = None
                for j, other in enumerate(reps):
                    if derived.contains(new * other.inverse()):
                        found = j
                        break
                if found is None:
                    reps.append(new)
                    vectors.append(new_vec)
                    nxt.append(len(reps) - 1)
                else:
                    rel = tuple(a - b for a, b in zip(new_vec, vectors[found]))
                    if any(rel):
                        relations.append(rel)
        frontier = nxt
    if not relations:
        relations = [(0,) * k]
    dec = snf(IntMat(relations, cols=k))
    divisors = list(dec.divisors) + [0] * (k - len(dec.divisors))
    if any(d == 0 for d in divisors):
        raise SearchBoundExceeded("relation lattice not of full rank; group infinite?")
    keep = [i for i, d in enumerate(divisors) if d > 1]
    factors = tuple(divisors[i] for i in keep)
    # coordinates of an exponent vector e: (e @ V) reduced mod the divisors
    proj_vectors = []
    for vec in vectors:
        full = mat_vec(vec, dec.V)
        proj_vectors.append(tuple(full[i] % divisors[i] for i in keep))
    return AbelianInvariants(factors, group, tuple(reps), tuple(proj_vectors), derived)
