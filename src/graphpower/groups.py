"""Finite groups given by permutation generators.

Built-in families: cyclic, dihedral, symmetric, alternating, Heisenberg (the
unitriangular 3x3 matrices over F_p, realized as affine maps of F_p^2 on p^2
points so one permutation engine serves everything), and direct products on
disjoint domains. Each is a named PermGroup without an order cap that knows
its order (n, 2m, m!, m!/2, p^3, or the product of its factors' orders), so
its Schreier-Sims chain is built on first use and stops once it reaches that
order; a product reads its factors' generators and builds only its own chain.
A group whose chain cannot fit the Schreier-Sims budget is refused first.

The abelianization builds no coset table and no Smith normal form: its
invariant factors come from the indices of the subgroups generated by the
derived subgroup and the p^j-th powers of the generators, one subgroup per
prime p and exponent j.
"""

from __future__ import annotations

from math import factorial, prod
from typing import NamedTuple, Optional

from .errors import SpecParseError, UnsupportedParameter
from . import perm
from .perm import Perm, PermGroup, derived_subgroup
from .zlinalg import _smallest_prime_factor, is_prime


# -- built-in families ---------------------------------------------------------

def _require_chain_fits(degree: int, orbits) -> None:
    """Raise LimitExceeded, before any permutation is allocated, when a
    complete chain on `degree` points has a level for each of these orbits
    O and the 2 (|O| - 1) degree entries the build pays for their
    transversals pass perm.SCHREIER_SIMS_BUDGET. A build to the known order
    stops only on complete chains (PermGroup). C_n, D_2n (n >= 3), S_m and
    A_m act transitively on their points. In a direct product on disjoint domains, every base
    point before the first one b that a factor H moves lies outside H's
    domain, so their pointwise stabilizer contains H, and the basic orbit of
    b is b's orbit under H: at least H's smallest orbit of 2 or more."""
    if 2 * degree * sum(o - 1 for o in orbits) > perm.SCHREIER_SIMS_BUDGET:
        raise perm._budget_error(degree)


def _least_orbit(group: PermGroup) -> int:
    """The size of the smallest orbit of 2 or more points under the group's
    generators, else 1."""
    sizes, seen = [], set()
    for start in range(group.degree):
        if start not in seen:
            orbit = [start]
            seen.add(start)
            for x in orbit:
                new = {g[x] for g in group._gens} - seen
                seen |= new
                orbit += new
            sizes.append(len(orbit))
    return min((s for s in sizes if s > 1), default=1)


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise UnsupportedParameter("cyclic needs n >= 1")
    _require_chain_fits(n, (n,))
    if n == 1:
        return PermGroup(1, [], max_order=None, name="C1", order=1)
    rot = Perm([(i + 1) % n for i in range(n)])
    return PermGroup(n, [rot], max_order=None, name=f"C{n}", order=n)


def dihedral(order: int) -> PermGroup:
    """Dihedral group of the given (even) order, acting on n = order/2 points
    for n >= 3; the degenerate n <= 2 cases fall back to the regular
    representation, where the natural action is not faithful."""
    if order < 2 or order % 2:
        raise UnsupportedParameter("dihedral takes an even order >= 2")
    n = order // 2
    if n == 1:
        swap = Perm([1, 0])
        return PermGroup(2, [swap], max_order=None, name="D2", order=2)
    if n == 2:
        a = Perm([1, 0, 2, 3])
        b = Perm([0, 1, 3, 2])
        return PermGroup(4, [a, b], max_order=None, name="D4", order=4)
    _require_chain_fits(n, (n,))
    rot = Perm([(i + 1) % n for i in range(n)])
    refl = Perm([(n - i) % n for i in range(n)])
    return PermGroup(n, [rot, refl], max_order=None, name=f"D{order}", order=order)


def symmetric(m: int) -> PermGroup:
    if m < 1:
        raise UnsupportedParameter("symmetric needs m >= 1")
    _require_chain_fits(m, (m,))
    if m == 1:
        return PermGroup(1, [], max_order=None, name="S1", order=1)
    gens = [Perm.from_cycles(m, (0, 1))]
    if m > 2:
        gens.append(Perm(list(range(1, m)) + [0]))
    return PermGroup(m, gens, max_order=None, name=f"S{m}", order=factorial(m))


def alternating(m: int) -> PermGroup:
    if m < 3:
        raise UnsupportedParameter("alternating needs m >= 3")
    _require_chain_fits(m, (m,))
    gens = [Perm.from_cycles(m, (0, 1, 2))]
    if m > 3:
        if m % 2:
            gens.append(Perm.from_cycles(m, tuple(range(m))))
        else:
            gens.append(Perm.from_cycles(m, tuple(range(1, m))))
    return PermGroup(m, gens, max_order=None, name=f"A{m}", order=factorial(m) // 2)


def heisenberg(p: int) -> PermGroup:
    """Heisenberg group over F_p (order p^3) as the affine maps
    (x, y) -> (x + a, y + b*x + c) of F_p^2, on p^2 points (point x*p + y).

    The generators (x, y) -> (x + 1, y) and (x, y) -> (x, y + x) play the
    unitriangular matrices with a = 1 resp. b = 1; the derived subgroup is
    the center, the translations (x, y) -> (x, y + c).

    The Schreier-Sims build of H_p on p^2 points stops at its known order
    p^3; on one shared 2-core host H13 takes 0.003 s, H31 0.14 s and H37
    0.26 s. The limit p <= 31 keeps `ra gra C5 --group HpxC2` under 1 s in
    one process (H31xC2 0.8 s at 45 MB, H37xC2 1.2 s at 75 MB): its
    abelianization builds subgroups whose orders are not known in advance."""
    if p > 31 or not is_prime(p):
        raise UnsupportedParameter("heisenberg needs a prime p <= 31")
    shift = Perm([((x + 1) % p) * p + y for x in range(p) for y in range(p)])
    shear = Perm([x * p + (y + x) % p for x in range(p) for y in range(p)])
    return PermGroup(p * p, [shift, shear], max_order=None, name=f"H{p}", order=p ** 3)


def direct_product(*groups: PermGroup) -> PermGroup:
    if not groups:
        raise UnsupportedParameter("direct_product of nothing")
    if len(groups) == 1:
        return groups[0]
    degree = sum(g.degree for g in groups)
    _require_chain_fits(degree, [_least_orbit(g) for g in groups])
    identity, gens, offset = tuple(range(degree)), [], 0
    for g in groups:
        end = offset + g.degree
        gens += [identity[:offset] + tuple(offset + x for x in gen) + identity[end:]
                 for gen in g._gens]
        offset = end
    name = "x".join(g.name for g in groups)
    orders = [g.known_order for g in groups]
    return PermGroup(degree, gens, max_order=None, name=name,
                     order=None if None in orders else prod(orders))


def parse_group_spec(text: str) -> PermGroup:
    """Parse the CLI group mini-language: C4, D8, S5, H3, A4, and products
    joined with 'x' such as D8xC3. Every token is read before any group is
    built, so a malformed spec is refused as such."""
    token = text.strip()
    if not token:
        raise SpecParseError(text, "empty group spec")
    builders = {"C": cyclic, "D": dihedral, "S": symmetric, "A": alternating, "H": heisenberg}
    parsed = []
    for part in token.split("x"):
        part = part.strip()
        if part[:1] not in builders or not part[1:].isdigit():
            raise SpecParseError(part, "unrecognized group token")
        try:
            parsed.append((part, builders[part[0]], int(part[1:])))
        except ValueError as exc:  # past sys.get_int_max_str_digits(), or a digit int() refuses
            raise SpecParseError(part, "bad group order") from exc
    groups = []
    for part, builder, n in parsed:
        try:
            groups.append(builder(n))
        except UnsupportedParameter as exc:
            raise SpecParseError(part, str(exc)) from exc
    return groups[0] if len(groups) == 1 else direct_product(*groups)


# -- abelianization ---------------------------------------------------------------

class AbelianInvariants(NamedTuple):
    """G/[G,G] as a sum of cyclic groups Z/r_1 x ... x Z/r_k, r_1 | ... | r_k,
    each r_i >= 2."""

    factors: tuple

    def order(self) -> int:
        return prod(self.factors)


def abelianization(group: PermGroup) -> AbelianInvariants:
    """Invariant factors of G/[G,G], counted from p-power subgroups.

    For a prime p dividing m = |G : [G,G]|, the subgroup generated by [G,G]
    and the p^j-th powers of G's generators is the preimage of p^j G^Ab,
    since G^Ab is abelian and generated by the generators' images. So the
    index of the j-th subgroup in the (j-1)-th is p^c_j, with c_j the number
    of cyclic p-parts of G^Ab of order at least p^j; the count stops once
    |G^Ab / p^j G^Ab| reaches the p-part of m. The t-th largest p-part is
    p^(number of j with c_j > t), and the t-th largest invariant factor is
    the product of those over p."""
    order = group.order()
    derived = derived_subgroup(group)
    m = order // derived.order()
    factors = []  # largest first
    while m > 1:
        p = _smallest_prime_factor(m)
        part = 1
        while m % p == 0:
            m, part = m // p, part * p
        steps, index, q = [], 1, p  # steps[j - 1] = p^c_j
        while index < part:
            sub = PermGroup(group.degree, derived.generators + [g ** q for g in group.generators],
                            max_order=None)
            steps.append(order // sub.order() // index)
            index, q = index * steps[-1], q * p
        t, bound = 0, 1
        while bound < steps[0]:
            if t == len(factors):
                factors.append(1)
            factors[t] *= p ** sum(1 for s in steps if s > bound)
            t, bound = t + 1, bound * p
    return AbelianInvariants(tuple(reversed(factors)))


def central_lift(group: PermGroup, invariants: AbelianInvariants) -> Optional[tuple]:
    """Elements e_1, ..., e_k of G, e_j of order exactly m_j, whose images
    form a basis of G^ab = Z/m_1 x ... x Z/m_k (`invariants`, the group's
    abelianization), when every generator of [G,G] commutes with every
    generator of G; else None.

    Elements e_j of order m_j that generate G together with [G,G] have such
    images: the images generate G^ab, each has order dividing m_j, so Z/m_1 x
    ... x Z/m_k maps onto G^ab, and both have order m_1 ... m_k. G's own
    generators serve when their orders are the m_j. Otherwise, for |G| <=
    512, the e_j are picked greedily, largest m_j first, from G's elements: e
    of order m_j joins when none of e, ..., e^(m_j - 1) lies in the subgroup
    S that [G,G] and the picks so far generate (normal, as it contains
    [G,G]), so that S<e> has |S| m_j elements; after k picks S is G. When no
    element fits some m_j it gives None, as for a larger G, although other
    earlier picks might have fitted: the caller then only loses a shortcut."""
    gens, derived = group.generators, derived_subgroup(group)
    if any(d * g != g * d for d in derived.generators for g in gens):
        return None
    factors = sorted(invariants.factors, reverse=True)
    if sorted((g.order() for g in gens), reverse=True) == factors:
        return tuple(gens)
    if group.order() > 512:
        return None
    elements, subgroup, lift = group.elements(), set(derived.elements()), []
    for m in factors:
        e = next((e for e in elements if e.order() == m
                  and all(e ** a not in subgroup for a in range(1, m))), None)
        if e is None:
            return None
        powers = [e ** a for a in range(m)]
        subgroup = {s * x for s in subgroup for x in powers}
        lift.append(e)
    return tuple(lift)
