import random
from math import factorial

import pytest

from graphpower.errors import (CapacityExceeded, ConsistencyError, DomainMismatch, LimitExceeded,
                               SpecParseError, UnsupportedParameter)
from graphpower.groups import (
    abelianization,
    alternating,
    central_lift,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    heisenberg,
    parse_group_spec,
    symmetric,
)
from graphpower import perm
from graphpower.perm import Perm, PermGroup

from graphpower.graphs import cycle, hypercube, path
from graphpower.power import graph_power

from oracles import (
    abelianization_by_cosets,
    basic_commutator_order,
    closure_elements,
    closure_order,
    derived_subgroup_by_batch,
    heisenberg_regular,
    membership_sample,
    normal_closure_by_batch,
    plain_build,
    random_words,
)


def quaternion_group() -> PermGroup:
    """Q8 through its right regular representation."""
    # elements (s, u): s in {0,1} sign exponent, u in {1, i, j, k} as 0..3
    def mult(a, b):
        table = {  # (u, v) -> (sign, w) for the unit part
            (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
            (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
            (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
            (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
        }
        sign, unit = table[(a[1], b[1])]
        return ((a[0] + b[0] + sign) % 2, unit)

    elems = [(s, u) for s in range(2) for u in range(4)]
    index = {e: i for i, e in enumerate(elems)}
    gens = []
    for g in [(0, 1), (0, 2)]:  # i and j
        gens.append(Perm([index[mult(e, g)] for e in elems]))
    return PermGroup(8, gens, max_order=None, name="Q8")


def test_builtin_orders():
    assert cyclic(1).order() == 1
    assert cyclic(7).order() == 7
    assert dihedral(2).order() == 2
    assert dihedral(4).order() == 4
    assert dihedral(8).order() == 8
    assert dihedral(14).order() == 14
    assert symmetric(1).order() == 1
    assert symmetric(5).order() == 120
    assert alternating(4).order() == 12
    for p in (2, 3, 5):
        assert heisenberg(p).order() == p ** 3
    assert direct_product(dihedral(8), cyclic(3)).order() == 24
    assert parse_group_spec("D8xC3").order() == 24
    assert direct_product(dihedral(8), cyclic(2)).order() == 16
    with pytest.raises(UnsupportedParameter):
        heisenberg(4)
    with pytest.raises(UnsupportedParameter):
        heisenberg(37)  # prime, but past the limit p <= 31


def test_orders_match_closure_oracle():
    for group in [dihedral(8), symmetric(4), heisenberg(3), alternating(4)]:
        assert group.order() == closure_order(group.degree, group.generators)


def test_dihedral_presentation():
    for order in (6, 8, 10, 12):
        g = dihedral(order)
        r, s = g.generators
        n = order // 2
        assert (s * s).is_identity()
        assert ((r * s) ** 2).is_identity()
        assert (r ** n).is_identity()
        assert not (r ** (n - 1)).is_identity()


def test_heisenberg_properties():
    # exponent p for odd p, exponent 4 at p = 2; derived = center of order p
    h2 = heisenberg(2)
    orders2 = {g.order() for g in h2.elements()}
    assert max(orders2) == 4
    assert derived_subgroup(h2).order() == 2
    assert abelianization(h2).factors == (2, 2)
    # H(F_2) is the dihedral group of order 8: five involutions, not one
    assert sum(1 for g in h2.elements() if g.order() == 2) == 5

    h3 = heisenberg(3)
    assert {g.order() for g in h3.elements()} == {1, 3}
    der3 = derived_subgroup(h3)
    assert der3.order() == 3
    # derived subgroup is central
    for d in der3.generators:
        for g in h3.generators:
            assert d.conjugate(g) == d
    assert abelianization(h3).factors == (3, 3)

    h5 = heisenberg(5)
    assert {g.order() for g in h5.elements()} == {1, 5}


def test_heisenberg_seven():
    h7 = heisenberg(7)
    assert h7.degree == 49
    assert h7.order() == 343
    assert {g.order() for g in h7.elements()} == {1, 7}
    assert abelianization(h7).factors == (7, 7)


def _element_orders(group):
    return sorted(g.order() for g in group.elements())


def _same_group_data(affine, regular):
    assert affine.order() == regular.order()
    assert _element_orders(affine) == _element_orders(regular)
    assert derived_subgroup(affine).order() == derived_subgroup(regular).order()
    assert abelianization(affine).factors == abelianization(regular).factors


def test_heisenberg_matches_regular_representation():
    # the affine maps on p^2 points against the right regular representation
    # on p^3 points: same group data and the same graph-power orders
    for p in (2, 3, 5, 7):
        affine, regular = heisenberg(p), heisenberg_regular(p)
        assert affine.degree == p * p and regular.degree == p ** 3
        _same_group_data(affine, regular)
        graphs = (cycle(4), cycle(5), hypercube(3)) if p < 7 else (cycle(4),)
        for graph in graphs:
            assert graph_power(affine, graph, max_order=None).order() == \
                graph_power(regular, graph, max_order=None).order()


@pytest.mark.slow
def test_heisenberg_seven_power_on_c5_matches_regular_representation():
    # Schreier-Sims on the 1715-point regular representation takes about 6 s
    # here (and about 16 s on Q3, which is left out)
    assert graph_power(heisenberg(7), cycle(5), max_order=None).order() == \
        graph_power(heisenberg_regular(7), cycle(5), max_order=None).order() == 7 ** 15


def test_derived_subgroup_fixtures():
    assert derived_subgroup(dihedral(8)).order() == 2
    assert derived_subgroup(cyclic(9)).order() == 1
    assert derived_subgroup(symmetric(4)).order() == 12
    assert derived_subgroup(symmetric(3)).order() == 3


def test_derived_subgroups_match_the_batch_closure():
    # the worklist closure of the streamed commutators against the batch
    # build it replaced: equal orders, and equal membership of 50 seeded
    # random elements of the group
    rng = random.Random(20261020)
    for spec in ("D8", "D10", "S3", "S4", "S5", "A4", "A5", "H3", "H5", "D8xC3", "H3xC2"):
        group = parse_group_spec(spec)
        new, old = derived_subgroup(group), derived_subgroup_by_batch(group)
        assert new.order() == old.order(), spec
        for x in random_words(group.generators, group.identity(), rng):
            assert new.contains(x) == old.contains(x), spec


def test_normal_closure_of_a_random_element_matches_the_batch_closure():
    rng = random.Random(20261021)
    for spec in ("S6", "A7"):
        group = parse_group_spec(spec)
        x = random_words(group.generators, group.identity(), rng, 1)[0]
        new = perm.normal_closure(group.degree, group.generators, [x])
        old = normal_closure_by_batch(group.degree, group.generators, [x])
        assert new.order() == old.order() > 1, spec
        for y in random_words(group.generators, group.identity(), rng):
            assert new.contains(y) == old.contains(y), spec


def test_derived_subgroup_follows_an_added_generator():
    group = PermGroup(3, [Perm.from_cycles(3, (0, 1, 2))])
    assert derived_subgroup(group).order() == 1
    group.add_generator(Perm.from_cycles(3, (0, 1)))
    assert derived_subgroup(group).order() == 3


def test_derived_subgroup_is_normal():
    for group in [dihedral(8), symmetric(4), heisenberg(3)]:
        der = derived_subgroup(group)
        for d in [Perm(x.image) for x in der.generators]:
            for g in group.generators:
                assert der.contains(d.conjugate(g))


def test_abelianization_fixtures():
    assert abelianization(symmetric(4)).factors == (2,)
    assert abelianization(dihedral(10)).factors == (2,)   # odd n
    assert abelianization(dihedral(12)).factors == (2, 2)  # even n
    assert abelianization(cyclic(12)).factors == (12,)
    assert abelianization(direct_product(cyclic(2), cyclic(4))).factors == (2, 4)
    assert abelianization(alternating(4)).factors == (3,)
    q8 = quaternion_group()
    assert q8.order() == 8
    assert abelianization(q8).factors == (2, 2)


def test_abelianization_order_and_coset_oracle():
    for group in [dihedral(8), symmetric(4), heisenberg(3), direct_product(dihedral(8), cyclic(3))]:
        assert abelianization(group).order() == group.order() // derived_subgroup(group).order()
    groups = [parse_group_spec(spec) for spec in (
        "S3", "S4", "S5", "A4", "A5", "D8", "D10", "D12", "C1", "C12", "H2", "H3", "H5", "H7",
        "D8xC3", "C2xC4", "C4xC6xC9", "C8xC4xC2", "S4xC6", "D16xC8", "H3xC9")]
    for group in groups + [quaternion_group()]:
        factors = abelianization(group).factors
        assert factors == abelianization_by_cosets(group), group.name
        assert all(f >= 2 for f in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def test_central_lift_finds_a_basis_of_the_abelianization_or_refuses():
    # D8, D8xC2, D8xC3 and D8xC4 by the search (D8's generators have orders
    # 4 and 2, D8^ab = Z/2 x Z/2), the others by their own generators; every
    # lift has the orders of the invariant factors and
    # generates G with [G,G], which is central. A4, S4 and D16 have [G,G]
    # not central, and Q8's only involution, -1, lies in [G,G], so no lift of
    # Z/2 x Z/2 exists
    for spec in ("C1", "C6", "C2xC4", "D4", "D8", "H2", "H3", "D8xC2", "D8xC3", "D8xC4",
                 "H5xC5"):
        group = parse_group_spec(spec)
        invariants = abelianization(group)
        lift = central_lift(group, invariants)
        der = derived_subgroup(group)
        elements = group.elements()
        assert all(d * g == g * d for d in der.elements() for g in elements), spec
        assert sorted(e.order() for e in lift) == sorted(invariants.factors), spec
        assert closure_order(group.degree, list(lift) + der.generators) == group.order(), spec
    for group in (alternating(4), symmetric(4), dihedral(16), quaternion_group()):
        assert central_lift(group, abelianization(group)) is None, group.name


def test_commutator_set_fixtures():
    # the commutators of D8 are e and r^2, those of S3 make up A3, and C6 has
    # only e: the subgroup all [x, y] generate is [G,G] in each case
    d8 = dihedral(8)
    r = d8.generators[0]
    assert derived_subgroup(d8).order() == 2 and derived_subgroup(d8).contains(r * r)
    assert derived_subgroup(symmetric(3)).order() == 3
    assert derived_subgroup(cyclic(6)).order() == 1
    for group in (d8, symmetric(3), cyclic(6), alternating(4), symmetric(4)):
        assert basic_commutator_order(group, path(1), True) == derived_subgroup(group).order()


def test_subgroup_order_and_membership():
    s4 = symmetric(4)
    sub = PermGroup(4, list(s4.generators))
    assert sub.order() == 24
    assert sub.contains(Perm.from_cycles(4, (0, 1, 2)))
    trivial = PermGroup(5, [])
    assert trivial.order() == 1
    with pytest.raises(DomainMismatch):
        PermGroup(2, [Perm([1, 0]), Perm([0, 1, 2])])


def test_subgroup_order_on_cycle_click_generators():
    # the ten click generators of S4 on the 5-cycle generate the full product
    from graphpower.graphs import cycle
    from graphpower.power import graph_power
    gp = graph_power(symmetric(4), cycle(5))
    clicks = [s.as_perm() for s in gp.generators]
    assert len(clicks) == 10
    sub = PermGroup(5 * 4, clicks, max_order=None)
    assert sub.order() == 24 ** 5 == 7962624


def test_subgroup_membership_matches_closure():
    import random
    rng = random.Random(5)
    s5 = symmetric(5)
    elems = s5.elements()
    for _ in range(5):
        gens = [rng.choice(elems) for _ in range(2)]
        sub = PermGroup(5, gens)
        closure = closure_elements(5, gens)
        assert sub.order() == len(closure)
        for _ in range(10):
            probe = rng.choice(elems)
            assert sub.contains(probe) == (probe.image in closure)


def test_permgroup_base_and_elements():
    d8 = dihedral(8)
    pg = PermGroup(4, d8.generators)
    assert pg.order() == 8
    assert len(pg.elements()) == 8
    assert PermGroup(3, []).order() == 1


def _random_generating_set(rng, blocks: tuple, pad: bool) -> list:
    """Random generators on consecutive blocks of the given sizes. Each one
    applies a single random permutation to a random set of equal-size blocks,
    as a click does to the coordinates of G^n. With `pad`, a duplicate, the
    identity and a product of two generators join them, in random order."""
    starts = [sum(blocks[:k]) for k in range(len(blocks))]
    gens = []
    for _ in range(rng.randint(2, 4)):
        size = rng.choice(blocks)
        same = [k for k, b in enumerate(blocks) if b == size]
        moved = [k for k in same if rng.random() < 0.5] or [rng.choice(same)]
        perm = list(range(size))
        rng.shuffle(perm)
        img = list(range(sum(blocks)))
        for k in moved:
            img[starts[k]:starts[k] + size] = [starts[k] + x for x in perm]
        gens.append(Perm(img))
    if pad:
        gens += [rng.choice(gens), Perm.identity(sum(blocks)), rng.choice(gens) * rng.choice(gens)]
    rng.shuffle(gens)
    return gens


def _generated_by(degree: int, elements) -> set:
    """closure_elements of `elements`, closing again only after an element
    that the closure so far does not reach."""
    gens, reached = [], {tuple(range(degree))}
    for x in elements:
        if x.image not in reached:
            gens.append(x)
            reached = closure_elements(degree, gens)
    return reached


def test_permgroup_with_redundant_generators_matches_closure():
    import random
    rng = random.Random(3)
    for blocks in [(5,), (6,), (7,), (3, 3), (4, 4), (2, 2, 3), (4, 4, 4), (3,) * 5]:
        degree = sum(blocks)
        for _ in range(10):
            gens = _random_generating_set(rng, blocks, pad=True)
            group = PermGroup(degree, gens)
            closure = closure_elements(degree, gens)
            assert group.order() == len(closure)
            assert sorted(g.image for g in group.generators) == \
                sorted({g.image for g in gens} - {tuple(range(degree))})
            for _ in range(50):
                img = list(range(degree))
                rng.shuffle(img)
                assert group.contains(Perm(img)) == (tuple(img) in closure)
            for x in list(closure)[:50]:
                assert group.contains(Perm(x))


def test_derived_subgroup_of_matches_commutator_closure():
    # [G,G] is generated by the [x, s] with x in G and s a generator:
    # g[x,s]g^-1 = [gx,s][g,s]^-1 makes that subgroup normal, and modulo it
    # every generator is central, so the quotient is abelian. Where |G| <= 120
    # the closure of all commutators [x, y] checks that oracle too. Half the
    # sets are unpadded: a duplicate or a product can stand in for a
    # generator that the commutator pairs leave out.
    import random
    rng = random.Random(2)
    for blocks in [(5,), (6,), (7,), (2, 3), (2, 2, 2), (3, 3), (2, 2, 3), (3, 4)]:
        degree = sum(blocks)
        for _ in range(3):
            gens = _random_generating_set(rng, blocks, pad=rng.random() < 0.5)
            elements = [Perm(x) for x in closure_elements(degree, gens)]
            oracle = _generated_by(degree, [x.commutator(s) for x in elements for s in gens])
            if len(elements) <= 120:
                assert oracle == _generated_by(
                    degree, [x.commutator(y) for x in elements for y in elements])
            derived = derived_subgroup(PermGroup(degree, gens))
            assert derived.order() == len(oracle)
            for x in elements:
                assert derived.contains(x) == (x.image in oracle)


def test_element_search_bound():
    with pytest.raises(LimitExceeded):
        symmetric(8).elements(limit=100)


def test_schreier_sims_budget_counts_permutation_entries(monkeypatch):
    # C_n on n points stores n - 1 transversal elements and their inverses
    # and forms n trivial Schreier generators of two products each: (4n - 2)n.
    # Built to its known order n it stops before forming any: (2n - 2)n
    n = 50
    rot = cyclic(n).generators
    for known, work in [(None, (4 * n - 2) * n), (n, (2 * n - 2) * n)]:
        monkeypatch.setattr(perm, "SCHREIER_SIMS_BUDGET", work)
        assert PermGroup(n, rot, order=known).order() == n
        monkeypatch.setattr(perm, "SCHREIER_SIMS_BUDGET", work - 1)
        with pytest.raises(LimitExceeded):
            PermGroup(n, rot, order=known)


def test_parse_group_spec():
    assert parse_group_spec("C4").order() == 4
    assert parse_group_spec("D8").order() == 8
    assert parse_group_spec("S5").order() == 120
    assert parse_group_spec("H3").order() == 27
    assert parse_group_spec("A4").order() == 12
    prod = parse_group_spec("D8xC3")
    assert prod.order() == 24 and prod.name == "D8xC3"
    # every token is read before a group is built: a malformed spec is bad
    # input even when a factor before the bad token is over the budget
    for spec in ("D8xZ3", "S3000000xZ3"):
        with pytest.raises(SpecParseError) as exc:
            parse_group_spec(spec)
        assert "Z3" in str(exc.value)
    with pytest.raises(SpecParseError):
        parse_group_spec("H4")


def test_a_group_spec_is_refused_exactly_when_its_transversals_pass_the_budget(monkeypatch):
    # the refusal counts 2 (|O| - 1) D entries, D the degree, for one level
    # per factor with O that factor's smallest orbit of more than one point
    # (D4 has two orbits of 2): at that count the spec is built, one entry
    # below it the spec is refused and a build of its generators stops too
    floors = {"C7": 2 * 7 * 6, "D10": 2 * 5 * 4, "S5": 2 * 5 * 4, "A6": 2 * 6 * 5,
              "D8xC3": 2 * 7 * (3 + 2), "D4xC5": 2 * 9 * (1 + 4), "S3xS3xC2": 2 * 8 * (2 + 2 + 1),
              "C2xC2xC2": 2 * 6 * 3}
    for spec, floor in floors.items():
        group = parse_group_spec(spec)
        gens, degree, order = group.generators, group.degree, group.known_order
        monkeypatch.setattr(perm, "SCHREIER_SIMS_BUDGET", floor)
        assert parse_group_spec(spec).name == spec
        monkeypatch.setattr(perm, "SCHREIER_SIMS_BUDGET", floor - 1)
        message = (f"Schreier-Sims on {degree} points needs more than {floor - 1} "
                   f"permutation entries")
        with pytest.raises(LimitExceeded, match=f"^{message}$"):
            parse_group_spec(spec)
        for known in (order, None):
            with pytest.raises(LimitExceeded, match=f"^{message}$"):
                PermGroup(degree, gens, max_order=None, order=known).order()
        monkeypatch.undo()


# every builder branch, and the products the tests and the benchmark decks name
CATALOGUE = ("C1", "C2", "C7", "C12", "D2", "D4", "D8", "D10", "D14", "S1", "S3", "S4", "S5",
             "S6", "A4", "A5", "A6", "H2", "H3", "H5", "H7", "D8xC3", "D8xC2", "H3xC2", "D8xD8",
             "S3xS3xC2")


def test_known_order_builds_match_plain_builds_on_catalogue_groups():
    rng = random.Random(20261019)
    for spec in CATALOGUE:
        group = parse_group_spec(spec)
        plain = plain_build(group)
        assert group.known_order == group.order() == plain.order(), spec
        members, non_members = membership_sample(plain, rng)
        assert all(map(group.contains, members)), spec
        assert not any(map(group.contains, non_members)), spec
        assert len(non_members) == 50 or plain.order() == factorial(group.degree), spec


def test_a_known_order_one_prime_factor_off_raises_consistency_error():
    # one prime factor too large, the chain completes below it; too small,
    # the chain product passes it (an order the product meets exactly, such
    # as 12 for S4, goes unseen: callers pass only proven orders)
    for spec, primes in [("H7", (7,)), ("A5", (2, 3, 5)), ("D8xC3", (2, 3)), ("D10", (2, 5))]:
        group = parse_group_spec(spec)
        for p in primes:
            with pytest.raises(ConsistencyError, match="below the known order"):
                PermGroup(group.degree, group.generators, order=group.known_order * p)
            with pytest.raises(ConsistencyError, match="exceeds the known order"):
                PermGroup(group.degree, group.generators, order=group.known_order // p)


def test_a_known_order_above_the_cap_stops_before_sifting(monkeypatch):
    def refuse(self):
        raise AssertionError("sifted a Schreier generator")

    monkeypatch.setattr(PermGroup, "_complete", refuse)
    clicks = graph_power(heisenberg(7), cycle(5), max_order=None).perm_group.generators
    with pytest.raises(CapacityExceeded) as exc:
        PermGroup(5 * 49, clicks, order=7 ** 15)
    assert (exc.value.bound, exc.value.cap) == (7 ** 15, perm.DEFAULT_MAX_ORDER)
    with pytest.raises(CapacityExceeded):
        PermGroup(4, dihedral(8).generators, max_order=7, order=8)


def test_add_generator_forgets_the_known_order():
    reflection = Perm([(6 - i) % 6 for i in range(6)])
    for build_first in (True, False):
        group = cyclic(6)
        if build_first:
            assert group.order() == 6
        group.add_generator(reflection)
        assert group.known_order is None and group.order() == 12


def test_a_product_builds_only_its_own_chain(monkeypatch):
    built = []
    chain = PermGroup._chain

    def recording(self):
        if not self._built:
            built.append(self.name)
        return chain(self)

    monkeypatch.setattr(PermGroup, "_chain", recording)
    group = parse_group_spec("H7xC2")
    assert built == [] and group.known_order == 686
    assert group.order() == 686 and built == ["H7xC2"]
