"""Permutations and strong-generating-set machinery.

Permutations act on 0..degree-1 and compose left to right: (p * q) sends i to
q[p[i]]. PermGroup keeps a base and stabilizer chain built by one deterministic
incremental Schreier-Sims pass, giving exact orders and fast membership for
the subgroup scales this package needs (orders up to ~2^30 on a few hundred
points); the pass stops early at an order the caller has proven. The
catalogue groups and every subgroup of G^n are PermGroups.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import CapacityExceeded, ConsistencyError, DomainMismatch, LimitExceeded

DEFAULT_MAX_ORDER = 1 << 30
# Schreier-Sims work one PermGroup may do, in permutation entries written:
# each transversal element and its inverse, each Schreier generator formed
# (two products) and each product taken while sifting it. The largest group
# the tests build, H7^C5 on 1715 points, writes 60M; C4000 64M. S80 and
# C100000 stop, C100000 before its first transversal is stored.
SCHREIER_SIMS_BUDGET = 1 << 26


def _budget_error(degree: int) -> LimitExceeded:
    return LimitExceeded(f"Schreier-Sims on {degree} points needs more than "
                         f"{SCHREIER_SIMS_BUDGET} permutation entries")


def _compose(p: tuple, q: tuple) -> tuple:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def _inverse(p: tuple, points: Sequence[int] = ()) -> tuple:
    """p^-1, its entries taken from `points` (the identity tuple of a group,
    so that a stored transversal shares one set of int objects)."""
    points = points or range(len(p))
    out = list(points)
    for i, x in zip(points, p):
        out[x] = i
    return tuple(out)


class Perm:
    """Immutable permutation in one-line form."""

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]):
        img = tuple(image)
        if sorted(img) != list(range(len(img))):
            raise ValueError("not a permutation")
        object.__setattr__(self, "image", img)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Perm":
        img = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                img[a] = b
        return cls(img)

    @property
    def degree(self) -> int:
        return len(self.image)

    def __getitem__(self, i: int) -> int:
        return self.image[i]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.image) != len(other.image):
            raise DomainMismatch("degrees differ")
        return Perm(_compose(self.image, other.image))

    def inverse(self) -> "Perm":
        return Perm(_inverse(self.image))

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        result = tuple(range(len(self.image)))
        base = self.image
        while k:
            if k & 1:
                result = _compose(result, base)
            base = _compose(base, base)
            k >>= 1
        return Perm(result)

    def conjugate(self, by: "Perm") -> "Perm":
        """by^-1 * self * by."""
        return by.inverse() * self * by

    def commutator(self, other: "Perm") -> "Perm":
        """self * other * self^-1 * other^-1."""
        return self * other * self.inverse() * other.inverse()

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.image))

    def cycles(self) -> list:
        seen = [False] * len(self.image)
        out = []
        for i in range(len(self.image)):
            if seen[i] or self.image[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.image[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.image[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return f"Perm(id/{len(self.image)})"
        return "Perm(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cyc) + ")"


class _Level:
    __slots__ = ("point", "gens", "orbit", "inv", "pairs", "ptr")

    def __init__(self, point: int, identity: tuple):
        self.point = point
        self.gens = []
        self.orbit = {point: identity}
        self.inv = {point: identity}
        self.pairs = []
        self.ptr = 0


class PermGroup:
    """Group generated by permutations, with exact order and membership.

    `max_order` aborts construction with CapacityExceeded once the stabilizer
    chain certifies the order exceeds the cap (the chain product is a lower
    bound for the final order throughout construction). A group with a cap
    builds its chain in `__init__`, so the cap stops the request that asks
    for the group; a group without one (the catalogue groups, closures)
    builds it on first use of `order`, `contains` or `elements`. Either way
    construction stops, with LimitExceeded, past SCHREIER_SIMS_BUDGET. `name`
    labels a catalogue group (C4, D8xC3, ...) in reports.

    `order`, when the caller knows |G| (a catalogue formula, or the closed
    form of G^graph on an RA graph), is kept as `known_order`. Above
    `max_order` it raises CapacityExceeded before any sifting. Otherwise
    construction stops as soon as the product of the basic orbit lengths
    reaches it, with Schreier generators still pending (the known-order
    variant of Schreier-Sims; Seress, Permutation Group Algorithms, 2003).
    The stop is exact. Level i holds the orbit D_i of its base point b_i
    under generators that lie in G and fix b_1, ..., b_{i-1}, so D_i lies
    inside the true basic orbit B_i of b_i under the pointwise stabilizer
    G_(b_1..b_{i-1}), and

        prod |D_i| <= prod |B_i| = |G : G_(b_1..b_k)| <= |G|.

    Equality forces D_i = B_i at every level and a trivial pointwise
    stabilizer of the base. Then each g in G sifts through every level (its
    image of b_i lies in B_i = D_i) to a residue in that stabilizer, the
    identity; and a permutation that sifts to the identity is a product of
    transversal elements, all in G. So order and membership are exact. A
    chain product above the known order, or a chain that completes below
    it, raises ConsistencyError; a wrong order that the product passes
    through exactly goes unseen, so callers pass only proven orders.
    `add_generator` forgets the known order.
    """

    def __init__(self, degree: int, generators: Iterable = (),
                 max_order: Optional[int] = DEFAULT_MAX_ORDER, name: Optional[str] = None,
                 order: Optional[int] = None):
        self.degree = degree
        self.name = name
        self._identity = tuple(range(degree))
        self.max_order = max_order
        self.known_order = order
        self._levels: list[_Level] = []
        self._built = False
        self._derived = None  # derived_subgroup's cache
        raw = {}
        for g in generators:
            img = g.image if isinstance(g, Perm) else tuple(g)
            if len(img) != degree:
                raise DomainMismatch(f"generator degree {len(img)} != {degree}")
            raw[img] = None
        raw.pop(self._identity, None)
        self._gens: list[tuple] = list(raw)
        if max_order is not None:
            if order is not None and order > max_order:
                raise CapacityExceeded(order, max_order)
            self._chain()

    # -- chain construction ----------------------------------------------

    def _chain(self) -> list:
        """The stabilizer chain, built from the generators on first call (a
        build that raised starts again from nothing)."""
        if not self._built:
            self._levels, self._bound, self._work = [], 1, 0
            for img in self._gens:
                self._add_gen(img)
            self._complete()
            self._built = True
        return self._levels

    def _strip(self, g: tuple):
        """(residue, index of the level where sifting stopped, number of
        permutations composed)."""
        steps = 0
        for idx, level in enumerate(self._levels):
            target = g[level.point]
            if target == level.point:
                continue
            t_inv = level.inv.get(target)
            if t_inv is None:
                return g, idx, steps
            g = _compose(g, t_inv)
            steps += 1
        return g, len(self._levels), steps

    def _add_gen(self, g: tuple) -> None:
        h, j, steps = self._strip(g)
        self._spend(steps)
        if h == self._identity:
            return
        if j == len(self._levels):
            point = next(i for i, x in enumerate(h) if x != i)
            self._levels.append(_Level(point, self._identity))
            j = len(self._levels) - 1
        for lvl in range(j + 1):
            self._extend_level(self._levels[lvl], h)
        self._check_bound()

    def _spend(self, perms: int) -> None:
        """Count `perms` permutations written; past the budget, stop."""
        self._work += perms * self.degree
        if self._work > SCHREIER_SIMS_BUDGET:
            raise _budget_error(self.degree)

    def _extend_level(self, level: _Level, new_gen: tuple) -> None:
        """Add a generator to a level and close its orbit, mapping the old
        points (closed under the old generators) by the new one only. The new
        points are found first, so their transversal (each point's
        permutation and its inverse) is paid for before it is stored."""
        level.gens.append(new_gen)
        level.pairs += [(pt, new_gen) for pt in level.orbit]
        found = {}  # new orbit point -> (the point it is reached from, generator)
        queue, old = list(level.orbit), len(level.orbit)
        for i, pt in enumerate(queue):
            for s in level.gens if i >= old else (new_gen,):
                np = s[pt]
                if np not in level.orbit and np not in found:
                    found[np] = (pt, s)
                    queue.append(np)
        self._spend(2 * len(found))
        for np, (pt, s) in found.items():
            level.orbit[np] = _compose(level.orbit[pt], s)
            level.inv[np] = _inverse(level.orbit[np], self._identity)
            level.pairs += [(np, s2) for s2 in level.gens]

    def _check_bound(self) -> None:
        """Record the chain product, a lower bound for |G|, and hold it to
        the known order and the cap."""
        bound = 1
        for level in self._levels:
            bound *= len(level.orbit)
        self._bound = bound
        if self.known_order is not None and bound > self.known_order:
            raise ConsistencyError(f"Schreier-Sims chain product {bound} exceeds the "
                                   f"known order {self.known_order}")
        if self.max_order is not None and bound > self.max_order:
            raise CapacityExceeded(bound, self.max_order)

    def _complete(self) -> None:
        """Sift Schreier generators, each one from the deepest level that has
        a pending pair, until none is pending or the chain product reaches
        the known order."""
        while self._bound != self.known_order:
            level = next((lv for lv in reversed(self._levels)
                          if lv.ptr < len(lv.pairs)), None)
            if level is None:
                if self.known_order is not None:
                    raise ConsistencyError(f"Schreier-Sims chain completes at order {self._bound}, "
                                           f"below the known order {self.known_order}")
                return
            pt, s = level.pairs[level.ptr]
            level.ptr += 1
            self._spend(2)
            schreier = _compose(_compose(level.orbit[pt], s), level.inv[s[pt]])
            if schreier != self._identity:
                self._add_gen(schreier)

    # -- queries ------------------------------------------------------------

    def identity(self) -> Perm:
        return Perm(self._identity)

    def order(self) -> int:
        self._chain()
        return self._bound

    def contains(self, p) -> bool:
        img = p.image if isinstance(p, Perm) else tuple(p)
        if len(img) != self.degree:
            return False
        self._chain()
        h, _, _ = self._strip(img)
        return h == self._identity

    __contains__ = contains

    @property
    def generators(self) -> list:
        return [Perm(g) for g in self._gens]

    def add_generator(self, p) -> None:
        img = p.image if isinstance(p, Perm) else tuple(p)
        if len(img) != self.degree:
            raise DomainMismatch(f"degree {len(img)} != {self.degree}")
        if img == self._identity:
            return
        self._gens.append(img)
        self._derived = None
        self.known_order = None
        if self._built:
            self._add_gen(img)
            self._complete()

    def base_points(self) -> list:
        """The base points of the chain built so far."""
        return [lv.point for lv in self._levels]

    def elements(self, limit: int = 1 << 20) -> list:
        """Full enumeration by breadth-first closure; raises past `limit`."""
        if self.order() > limit:
            raise LimitExceeded(f"order {self.order()} exceeds enumeration limit {limit}")
        seen = {self._identity}
        frontier = [self._identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self._gens:
                    y = _compose(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return [Perm(x) for x in seen]

    def __repr__(self):
        label = f"{self.name}, " if self.name else ""
        return f"PermGroup({label}degree={self.degree}, order={self.order()})"


def normal_closure(degree: int, ambient_gens: Sequence, sub_gens: Iterable) -> PermGroup:
    """Smallest subgroup containing sub_gens and closed under conjugation by
    the ambient generators, grown from the trivial group: an element joins
    only if the group lacks it, and only a joining element has its
    conjugates queued. No order cap: callers take it inside a built group."""
    amb = [g.image if isinstance(g, Perm) else tuple(g) for g in ambient_gens]
    conjugators = [(_inverse(a), a) for a in amb]
    group = PermGroup(degree, max_order=None)
    for g in sub_gens:
        work = [g.image if isinstance(g, Perm) else tuple(g)]
        for x in work:
            if not group.contains(x):
                group.add_generator(x)
                work.extend(_compose(_compose(ai, x), a) for ai, a in conjugators)
    return group


def derived_subgroup(group: PermGroup) -> PermGroup:
    """[H,H]: the normal closure of the commutators of unordered generator
    pairs ([b,a] = [a,b]^-1), each formed as the closure reads it; kept on H.
    No order cap: |[H,H]| <= |H|, and H passed its cap when built. When the 3
    products of each of the k(k-1)/2 commutators of k generators pass
    SCHREIER_SIMS_BUDGET, LimitExceeded comes before any is formed."""
    if group._derived is None:
        gens, degree, k = group._gens, group.degree, len(group._gens)
        if 3 * degree * k * (k - 1) // 2 > SCHREIER_SIMS_BUDGET:
            raise _budget_error(degree)
        invs = [_inverse(a) for a in gens]
        comms = (_compose(_compose(_compose(a, b), ai), bi)
                 for i, (a, ai) in enumerate(zip(gens, invs))
                 for b, bi in zip(gens[i + 1:], invs[i + 1:]))
        group._derived = normal_closure(degree, gens, comms)
    return group._derived
