import random
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from graphpower.errors import CapacityExceeded, ConsistencyError, LimitExceeded
from graphpower import perm, power, ra, zlinalg
from graphpower.cli import main
from graphpower.graphs import (
    Graph,
    complete,
    cycle,
    enumerate_connected_graphs,
    folded_cube,
    hypercube,
    path,
    petersen,
    star,
)
from graphpower.groups import (
    abelianization,
    alternating,
    cyclic,
    derived_subgroup,
    dihedral,
    heisenberg,
    parse_group_spec,
    symmetric,
)
from graphpower.perm import Perm, PermGroup
from graphpower.power import (
    StateVector,
    abelian_power_order,
    chain_report,
    comm_b,
    comm_b_order,
    comm_d,
    comm_d_order,
    graph_power,
    is_g_ra,
    matrix_power,
    power_click,
    ra_index,
)
from graphpower.ra import activation_matrix
from graphpower.zlinalg import IntMat, lattice_index

from oracles import (
    disjoint_union,
    abelian_power_order_by_snf,
    basic_commutator_order,
    closure_order,
    comm_order_by_closure,
    comm_order_by_spread_closure,
    derived_power_order_by_closure,
    derived_subgroup_by_batch,
    gfp_rank,
    in_comm,
    membership_sample,
    random_words,
    ra_matrix_by_sets,
    ra_rows_by_sets,
)

D8 = dihedral(8)
R, S = D8.generators


def states_of(power_subgroup):
    return {tuple(c.image for c in s.components)
            for s in power_subgroup.elements_as_states()}


def as_state(group, *elements):
    return StateVector(group, tuple(elements))


def test_power_click_fixtures():
    g = R
    sv = power_click(D8, g, (1, 1, 0))
    assert sv.components == (g, g, D8.identity())
    assert power_click(D8, R, (-1,)).components == (R ** 3,)
    sv2 = power_click(D8, R, (2, 0, 0))
    assert sv2.components == (R * R, D8.identity(), D8.identity())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_power_click_additive(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    lhs = power_click(D8, R, x) * power_click(D8, R, y)
    rhs = power_click(D8, R, [a + b for a, b in zip(x, y)])
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=5))
def test_power_click_zero_one_multiplicative(x):
    lhs = power_click(D8, R, x) * power_click(D8, S, x)
    rhs = power_click(D8, R * S, x)
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.integers(-4, 4), st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_power_click_scalar_law(k, x):
    lhs = power_click(D8, R ** k, x)
    rhs = power_click(D8, R, [k * xi for xi in x])
    assert lhs == rhs


def test_matrix_power_square_click():
    p = matrix_power(D8, [[2]])
    assert p.order() == 2
    expected = {((R * R).image,), (D8.identity().image,)}
    assert states_of(p) == expected
    assert p.derived().order() == 1
    # Comm = [G,G]^1 cap G^M is nontrivial although the derived power is trivial
    der = derived_subgroup(D8)
    comm_members = [s for s in p.elements_as_states()
                    if all(der.contains(c) for c in s.components)]
    assert len(comm_members) == 2


def test_derived_powers_match_the_batch_closure():
    # [G^graph, G^graph] by the worklist closure against the batch build it
    # replaced, on every connected graph to 5 vertices: equal orders, and
    # equal membership of 50 seeded random elements of G^graph
    rng = random.Random(20261022)
    for spec in ("D8", "A4", "S4"):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                power_group = graph_power(parse_group_spec(spec), g, max_order=None).perm_group
                new, old = derived_subgroup(power_group), derived_subgroup_by_batch(power_group)
                assert new.order() == old.order(), (spec, g.edges)
                for x in random_words(power_group.generators, power_group.identity(), rng):
                    assert new.contains(x) == old.contains(x), (spec, g.edges)


def test_derived_builds_one_normal_closure(monkeypatch):
    calls = []
    closure = perm.normal_closure

    def counting(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(perm, "normal_closure", counting)
    p = graph_power(D8, cycle(4))
    first, second = p.derived(), p.derived()
    assert len(calls) == 1
    assert first.perm_group is second.perm_group and first.order() == 16


def test_matrix_power_needs_full_enumeration_off_zero_one():
    # with two involution generators, generator clicks alone would miss
    # squares of products; S3 = <(01), (02)> over M = [2] must still give A3
    s3 = symmetric(3)
    a, b = Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 2))
    s3_alt = PermGroup(3, [a, b], max_order=None, name="S3'")
    assert s3_alt.order() == 6
    p = matrix_power(s3_alt, [[2]])
    assert p.order() == 3
    _ = s3


def test_matrix_power_neg_one_fixture():
    p = matrix_power(D8, [[1, 1], [1, -1]])
    der = p.derived()
    r2 = R * R
    e = D8.identity()
    assert states_of(der) == {(r2.image, r2.image), (e.image, e.image)}
    assert p.contains(as_state(D8, r2, e))
    assert not der.contains(as_state(D8, r2, e))


def test_matrix_power_rejects_huge_group_enumeration():
    with pytest.raises(LimitExceeded):
        matrix_power(symmetric(7), [[2]])


def test_graph_power_fixtures():
    assert graph_power(symmetric(3), path(3)).order() == 216
    assert graph_power(cyclic(2), cycle(4)).order() == 16
    for n in (3, 4):
        assert graph_power(D8, complete(n)).order() == 8  # diagonal
    assert graph_power(symmetric(4), cycle(5)).order() == 24 ** 5


def test_a4_on_c5_strictly_smaller():
    a4 = alternating(4)
    order = graph_power(a4, cycle(5)).order()
    assert order < 12 ** 5
    assert 12 ** 5 % order == 0


@pytest.mark.slow
def test_a4_on_c5_order_against_closure_oracle():
    gp = graph_power(alternating(4), cycle(5))
    assert gp.order() == closure_order(gp.perm_group.degree,
                                       [s.as_perm() for s in gp.generators])


def test_capacity_cap():
    with pytest.raises(CapacityExceeded):
        graph_power(symmetric(4), cycle(5), max_order=10 ** 5)


def test_abelian_power_order_fixtures():
    assert abelian_power_order((2,), activation_matrix(cycle(4))) == 16
    assert abelian_power_order((2,), activation_matrix(star(3))) == 8
    assert abelian_power_order((3,), activation_matrix(cycle(4))) == 27
    assert abelian_power_order(abelianization(D8), activation_matrix(cycle(4))) == 256
    assert abelian_power_order((2, 3), IntMat.identity(3)) == 6 ** 3


def _spy_eliminations(monkeypatch) -> list:
    """Record (rows, r) as each elimination starts, by the list kernel or the
    span basis; the basis's rows (mod a prime p <= 13) are recorded unpacked."""
    seen = []
    echelon, basis_rank = zlinalg._echelon, zlinalg._basis_rank

    def spy(rows, n, r=0, perm=None, budget=None):
        seen.append(([row[:] for row in rows], r))
        return echelon(rows, n, r, perm, budget)

    def basis_spy(rows, width, p, budget=None):
        rows = list(rows)
        seen.append(([zlinalg._unpack(x, width, p) for x in rows], p))
        return basis_rank(rows, width, p, budget)
    monkeypatch.setattr(zlinalg, "_echelon", spy)
    monkeypatch.setattr(zlinalg, "_basis_rank", basis_spy)
    return seen


def test_abelian_part_eliminates_once_per_distinct_invariant_factor(monkeypatch):
    # D8^ab = (2, 2) and H3^ab = (3, 3): one span of the activation rows each
    seen = _spy_eliminations(monkeypatch)
    for group, graph, p in [(D8, cycle(4), 2), (heisenberg(3), hypercube(3), 3)]:
        seen.clear()
        ab = power._power_orders(group, graph)[2]
        act = activation_matrix(graph).row_list()
        assert [r for rows, r in seen if list(map(list, rows)) == act] == [p]
        assert ab == abelian_power_order_by_snf((p, p), act)
    seen.clear()
    assert abelian_power_order((2, 2), activation_matrix(cycle(4))) == 16 ** 2
    assert [r for _, r in seen] == [2]


def test_comm_intersection_order_fixtures():
    for group, graph, comm in [(D8, hypercube(3), 128), (cyclic(6), cycle(4), 1),
                               (D8, cycle(4), 16)]:
        assert power._power_orders(group, graph)[3] == comm
        assert comm_order_by_closure(group, graph) == comm


def test_closed_form_matches_schreier_sims():
    # On a graph whose intersection lattice is Z^n, _power_orders answers by the
    # closed form Comm = [G,G]^n without building G^graph; on the others it
    # builds G^graph. Both must match an uncapped Schreier-Sims build.
    groups = [D8, symmetric(3), symmetric(4), alternating(4), heisenberg(3)]
    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    closed = 0
    for graph in graphs + [hypercube(3)]:
        full_lattice = lattice_index(ra_matrix_by_sets(graph)) == 1
        closed += full_lattice
        for group in groups:
            ab, comm, full = power._power_orders(group, graph, max_order=None)[2:]
            assert full == derived_subgroup(group).order() ** graph.n
            assert ab == abelian_power_order_by_snf(abelianization(group).factors,
                                                    activation_matrix(graph).row_list())
            assert comm == comm_order_by_closure(group, graph), (group.name, graph.edges)
            if full_lattice:
                assert comm == full
    assert closed >= 20
    # Q3 has intersection lattice index 2, and over D8 its Comm has index 2 too
    assert power._power_orders(D8, hypercube(3))[1:] == (128, 256, 128, 256)


def test_closed_form_builds_no_subgroup(monkeypatch):
    # the closed form needs only the span of the intersection rows mod
    # |[G,G]|: full for every modulus on C5 and petersen (lattice index 1),
    # and on Q3 and FQ5 (index 2) mod |[G,G]| = 3, 5, 7 and 12 below
    def refuse(*args, **kwargs):
        raise AssertionError("G^graph built on the closed form")
    monkeypatch.setattr(power, "graph_power", refuse)
    monkeypatch.setattr(power, "PermGroup", refuse)
    assert power._power_orders(symmetric(4), petersen()) == \
        (None, 12 ** 10, 32, 12 ** 10, 12 ** 10)
    assert ra_index(heisenberg(7), cycle(5)) == 1
    assert ra_index(heisenberg(3), folded_cube(5)) == 1
    assert power._power_orders(heisenberg(3), hypercube(3)) == \
        (None, 3 ** 8, 3 ** 10, 3 ** 8, 3 ** 8)
    assert chain_report(dihedral(10), hypercube(3)).orders() == (5 ** 8,) * 5
    assert chain_report(symmetric(4), cycle(5)).orders() == (12 ** 5,) * 5
    assert chain_report(heisenberg(5), folded_cube(5), max_order=None).orders() == (5 ** 16,) * 5
    # a prime divides both the index and |[G,G]|: 2 on Q3 under D8 and A4.
    # D8's [G,G] is central and its G^ab lifts, so Comm = Comm_b is counted;
    # A4's [G,G] = V4 is not central, so A4^Q3 is built (|Comm_b| = 2^14 and
    # |Comm| = 2^16 there: test_chain_report_matches_the_derived_power_closure)
    assert power._power_orders(D8, hypercube(3)) == (None, 128, 256, 128, 256)
    assert chain_report(D8, hypercube(3)).orders() == (128, 128, 128, 128, 256)
    with pytest.raises(AssertionError):
        power._power_orders(alternating(4), hypercube(3))
    with pytest.raises(AssertionError):
        chain_report(alternating(4), hypercube(3))


def test_central_lift_route_matches_the_closure_and_the_build(monkeypatch):
    # off the closed form, a central [G,G] and a lift of a basis of G^ab give
    # Comm = Comm_b with nothing built (the proof is _power_orders's): those
    # orders equal the uncapped closure and the build path, which the same
    # call takes when the gate refuses, on every connected graph to 6
    # vertices and on Q3 and FQ5
    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    gated = 0
    for spec in ("D8", "H2", "H3", "D8xC2", "D8xC3"):
        group = parse_group_spec(spec)
        for graph in graphs + [hypercube(3), folded_cube(5)]:
            orders = power._power_orders(group, graph, max_order=None)
            gp, cb, _, comm, full = orders
            assert gp is None and cb == comm
            if comm != full:
                gated += 1
                with monkeypatch.context() as m:
                    m.setattr(power, "central_lift", lambda *args: None)
                    built = power._power_orders(group, graph, max_order=None)
                assert built[0] is not None and built[1:] == orders[1:], (spec, graph.edges)
            assert comm == comm_order_by_closure(group, graph), (spec, graph.edges)
    assert gated >= 300


def test_closed_form_chain_meets_the_cap_it_does_not_build_under():
    # |H3^Q3| = 3^8 |(Z3^2)^Q3| = 3^18; the chain stops above the cap without
    # building the group, while ra_index needs no cap
    with pytest.raises(CapacityExceeded, match=f"{3 ** 18} exceeds cap {3 ** 18 - 1}"):
        chain_report(heisenberg(3), hypercube(3), max_order=3 ** 18 - 1)
    assert chain_report(heisenberg(3), hypercube(3), max_order=3 ** 18).comm == 3 ** 8
    assert ra_index(heisenberg(3), hypercube(3), max_order=1) == 1


def test_chain_meets_the_cap_on_an_independent_set_before_counting(monkeypatch):
    # |G^graph| >= |G|^|S| for a greedy independent set S stops the chain
    # before the abelian part or any span is counted, on the closed form too
    def refuse(*args, **kwargs):
        raise AssertionError("counted before the cap")
    monkeypatch.setattr(power, "abelian_power_order", refuse)
    monkeypatch.setattr(ra, "_distinct_rows", refuse)
    with pytest.raises(CapacityExceeded, match=f"{2 ** 31} exceeds cap {2 ** 30}"):
        chain_report(cyclic(2), cycle(4000), max_order=2 ** 30)
    with pytest.raises(CapacityExceeded, match="576 exceeds cap 100"):
        chain_report(symmetric(4), cycle(4), max_order=100)
    # |H7|^2 = 343^2 fits the default cap; the closed-form |H7^C5| = 7^15 does not
    monkeypatch.undo()
    with pytest.raises(CapacityExceeded, match=f"{7 ** 15} exceeds cap {2 ** 30}"):
        chain_report(heisenberg(7), cycle(5))


def test_ra_gra_and_ra_chain_never_eliminate_over_z(monkeypatch, capsys):
    # the closed-form test, the Comm_b and Comm_d spans and the abelian part
    # all work mod r; only the RA verdict takes a lattice index over Z. The
    # cases take the closed form, count Comm = Comm_b (Q3 under D8), build
    # G^graph (Q3 under A4), take a Comm_d closure (C4 under S4) or exit 3 on
    # the cap (C5 under H7, Q7 under D8), and answer the same with every
    # elimination over Z refused
    argvs = [["ra", command, graph, "--group", group]
             for graph, group in [("Q3", "D8"), ("Q3", "D10"), ("Q3", "A4"), ("C4", "S4"),
                                  ("petersen", "S3"), ("FQ5", "H3"), ("C5", "H7"), ("Q7", "D8")]
             for command in ("gra", "chain")]

    def answers():
        return [(main(argv), capsys.readouterr().out) for argv in argvs]
    want = answers()
    assert {code for code, _ in want} == {0, 3}

    def refuse(*args, **kwargs):
        raise AssertionError("a lattice index over Z")

    echelon, basis_rank = zlinalg._echelon, zlinalg._basis_rank
    moduli = set()

    def echelon_mod_r(rows, n, r=0, perm=None, budget=None):
        if not r:
            refuse()
        moduli.add(r)
        return echelon(rows, n, r, perm, budget)

    def basis_rank_mod_p(rows, width, p, budget=None):
        moduli.add(p)
        return basis_rank(rows, width, p, budget)

    monkeypatch.setattr(zlinalg, "lattice_index", refuse)
    monkeypatch.setattr(ra, "lattice_index", refuse)
    monkeypatch.setattr(zlinalg, "_echelon", echelon_mod_r)
    monkeypatch.setattr(zlinalg, "_basis_rank", basis_rank_mod_p)
    with pytest.raises(AssertionError, match="over Z"):
        main(["ra", "check", "Q3"])
    assert answers() == want
    # the answers did eliminate: mod the primes of the groups' factors and
    # mod 4 and 3, the prime powers of 12 = |A4|, whose product is the span
    # mod |A4| of S4's nonabelian [G,G]
    assert moduli == {2, 3, 4, 5, 7}


def test_span_mod_k_is_full_exactly_when_the_index_is_prime_to_k():
    # L + k Z^n = Z^n exactly when [Z^n : L] is nonzero and prime to k, and
    # the closed-form test is |Comm_b| (|Comm_d| on the u < v rows) = k^n,
    # k = |[G,G]|: spans mod the invariant factors of an abelian [G,G]
    # (C2, C3, V4 and C4, C5, C6), one span mod k of a nonabelian one (A4,
    # A5). The index comes from the set-based rows, the count from
    # _distinct_rows
    groups = {2: [D8], 3: [symmetric(3)], 4: [alternating(4), dihedral(16)], 5: [dihedral(10)],
              6: [dihedral(24)], 12: [symmetric(4)], 60: [symmetric(5)]}
    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    graphs += [hypercube(3), hypercube(4), folded_cube(5), petersen(), cycle(9), star(5)]
    off_index_1 = 0
    for graph in graphs:
        for include_equal, rows in _intersection_rows_by_sets(graph):
            index = lattice_index(IntMat(rows, cols=graph.n))
            off_index_1 += index != 1
            for k in (2, 3, 4, 5, 6, 12, 60):
                for group in groups[k]:
                    assert derived_subgroup(group).order() == k
                    count = power._comm_count(group, ra._distinct_rows(graph, include_equal),
                                              ra.RA_TEST_BUDGET)
                    assert (count == k ** graph.n) == (index != 0 and gcd(index, k) == 1), \
                        (graph.edges, include_equal, k, group.name)
    assert off_index_1 >= 100


def _intersection_rows_by_sets(graph) -> list:
    """[(False, the rows B(u) cap B(v), u < v), (True, those with u <= v)],
    from neighbourhood sets."""
    pairs = [(u, v) for u in range(graph.n) for v in range(u, graph.n)]
    rows = ra_rows_by_sets(graph)
    return [(include_equal, [row for (u, v), row in zip(pairs, rows) if include_equal or u < v])
            for include_equal in (False, True)]


def _dense_graph(n, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5])


def test_ra_test_budget_falls_back_to_closure(monkeypatch):
    # a dense graph whose 820 distinct intersection rows (32800 entries) fit a
    # budget of 40000 but whose elimination mod |[S3,S3]| = 3 does not: the
    # closed-form test gives up, and the build path meets the cap
    dense = _dense_graph(40, 7)
    assert lattice_index(ra_matrix_by_sets(dense)) == 1
    ab, comm, full = power._power_orders(symmetric(3), dense, max_order=100)[2:]
    assert comm == full == 3 ** 40
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 40000)
    with pytest.raises(CapacityExceeded):
        power._power_orders(symmetric(3), dense, max_order=100)
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 0)
    assert power._power_orders(symmetric(4), cycle(5))[2:] == (32, 12 ** 5, 12 ** 5)
    # a trivial [G,G] reads no rows, so the budget cannot stop its closed form
    assert power._power_orders(cyclic(6), cycle(4), max_order=100) == \
        (None, 1, 2 ** 4 * 3 ** 3, 1, 1)
    with pytest.raises(CapacityExceeded):
        power._power_orders(symmetric(4), cycle(5), max_order=100)


def test_abelian_count_mod_r_matches_snf_formula():
    rng = random.Random(20261018)
    for _ in range(1500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        r = rng.randint(1, 36)
        assert abelian_power_order((r,), rows) == abelian_power_order_by_snf((r,), rows), (rows, r)
    for n in range(1, 7):
        for graph in enumerate_connected_graphs(n):
            rows = activation_matrix(graph).row_list()
            for factors in [(r,) for r in range(1, 37)] + [(2, 6, 12)]:
                assert abelian_power_order(factors, rows) == \
                    abelian_power_order_by_snf(factors, rows)


def test_comm_d_comm_b_fixtures():
    c4 = cycle(4)
    assert comm_d(D8, c4).order() == 8
    assert comm_b(D8, c4).order() == 16
    assert comm_d(cyclic(4), c4).order() == 1
    assert comm_d_order(D8, c4) == 8
    assert comm_b_order(D8, c4) == 16


def test_comm_orders_fast_path_matches_closure():
    for group in [D8, heisenberg(3)]:
        for graph in [cycle(4), path(4), complete(3), star(3)]:
            assert comm_d(group, graph).order() == comm_d_order(group, graph)
            assert comm_b(group, graph).order() == comm_b_order(group, graph)
    # a group whose commutator subgroup is nonabelian takes the closure path
    s4 = symmetric(4)
    assert comm_b_order(s4, path(3)) == comm_b(s4, path(3)).order()


def test_comm_orders_stop_past_the_ra_test_budget(monkeypatch):
    # C5 has 15 distinct intersection rows with u <= v (75 entries) and 10
    # with u < v (50 entries); both the row-span count ([D8,D8] abelian) and
    # the closure ([S4,S4] = A4) read them through the same bound
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 74)
    for group in (D8, symmetric(4)):
        with pytest.raises(LimitExceeded, match="75 entries"):
            comm_b_order(group, cycle(5))
    assert comm_d_order(D8, cycle(5)) == 2 ** 5


def test_comm_orders_of_an_abelian_commutator_subgroup_take_no_closure(monkeypatch):
    # [G,G] is abelian but not central in S3, A4, D10 and D12, and central of
    # prime order in H3: all of them count row spans mod the invariant factors
    # of [G,G]
    cases = [(group, graph)
             for group in (symmetric(3), alternating(4), dihedral(10), dihedral(12), heisenberg(3))
             for graph in (cycle(4), path(4), hypercube(3))]
    want = [(comm_b(group, graph).order(), comm_d(group, graph).order())
            for group, graph in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("closure built for an abelian [G,G]")
    monkeypatch.setattr(power, "_comm_subgroup", refuse)
    assert [(comm_b_order(group, graph), comm_d_order(group, graph))
            for group, graph in cases] == want


def test_derived_of_power_fixtures():
    h2 = heisenberg(2)
    q3 = hypercube(3)
    assert graph_power(h2, q3).derived().order() == comm_b_order(h2, q3)
    assert graph_power(cyclic(5), cycle(5)).derived().order() == 1


def test_is_g_ra_and_ra_index():
    q3 = hypercube(3)
    assert is_g_ra(dihedral(10), q3)
    assert not is_g_ra(D8, q3)
    assert is_g_ra(cyclic(12), q3)
    assert ra_index(D8, q3) == 2
    assert ra_index(dihedral(10), q3) == 1
    assert ra_index(D8, cycle(4)) == 1


def test_chain_report_fixtures():
    rep = chain_report(D8, cycle(4))
    assert rep.orders() == (8, 16, 16, 16, 16)
    rep = chain_report(D8, hypercube(3))
    assert rep.orders()[3:] == (128, 256)
    for a, b in zip(rep.orders(), rep.orders()[1:]):
        assert b % a == 0
    rep = chain_report(cyclic(6), cycle(4))
    assert rep.orders() == (1, 1, 1, 1, 1)
    payload = rep.to_json()
    assert payload["orders"]["comm_d"] == 1


def _assert_chain_matches_derived_power_closure(group, graph):
    rep = chain_report(group, graph)
    assert rep.derived_power == derived_power_order_by_closure(group, graph), \
        (group.name, graph.edges)


def test_chain_report_matches_the_derived_power_closure():
    # chain_report reads [G^graph, G^graph] from Comm_b <= it <= Comm when the
    # two bounds meet; the oracle takes the normal closure in a plain build
    for group in (D8, symmetric(3), alternating(4), heisenberg(3)):
        for n in range(1, 5):
            for graph in enumerate_connected_graphs(n):
                _assert_chain_matches_derived_power_closure(group, graph)
    # [A4,A4] = V4 is not central, and on Q3 the bounds do not meet, so the
    # chain takes the closure
    rep = chain_report(alternating(4), hypercube(3))
    assert (rep.comm_b, rep.comm) == (2 ** 14, 2 ** 16)
    _assert_chain_matches_derived_power_closure(alternating(4), hypercube(3))


@pytest.mark.slow
def test_chain_report_matches_the_derived_power_closure_on_five_vertices():
    for group in (D8, symmetric(3), alternating(4), heisenberg(3)):
        for graph in enumerate_connected_graphs(5):
            _assert_chain_matches_derived_power_closure(group, graph)


SWEEP_GROUPS = ("D8", "D10", "S3", "S4", "A4", "H3", "H5", "D8xC3")


def _sweep_against_closures(graphs) -> list:
    """Check _power_orders, chain_report, comm_b_order and comm_d_order against
    Schreier-Sims closures on every graph under every group of the sweep;
    count the cases where a u < v and a u <= v lattice of index > 1 still
    took the closed form."""
    fired = [0, 0]
    for name in SWEEP_GROUPS:
        group = parse_group_spec(name)
        k = derived_subgroup(group).order()
        for graph in graphs:
            comm, full = comm_order_by_closure(group, graph), k ** graph.n
            want = (comm_order_by_spread_closure(group, graph, False),
                    comm_order_by_spread_closure(group, graph, True),
                    derived_power_order_by_closure(group, graph), comm, full)
            assert power._power_orders(group, graph, max_order=None)[3:] == (comm, full), \
                (name, graph.edges)
            assert chain_report(group, graph, max_order=None).orders() == want, \
                (name, graph.edges)
            assert (comm_d_order(group, graph), comm_b_order(group, graph)) == want[:2]
            for i, (_, rows) in enumerate(_intersection_rows_by_sets(graph)):
                index = lattice_index(IntMat(rows, cols=graph.n))
                fired[i] += index > 1 and gcd(index, k) == 1
    return fired


def test_orders_and_chain_match_the_closures():
    graphs = [g for n in range(1, 5) for g in enumerate_connected_graphs(n)]
    fired = _sweep_against_closures(graphs + [hypercube(3), folded_cube(5), cycle(6), petersen()])
    # Q3 and FQ5 (index 2 both ways) under D10, S3, H3, H5; C4 (u < v index
    # 2) under D10, S3, H3, H5
    assert fired == [12, 8]


@pytest.mark.slow
def test_orders_and_chain_match_the_closures_on_five_vertices():
    _sweep_against_closures(list(enumerate_connected_graphs(5)))


def test_heisenberg_ra_index_is_p_to_the_rank_deficiency_mod_p():
    # the paper's criterion for H_p, through the group code: the closed form
    # where p is prime to the lattice index, G^graph built where it is not
    graphs = [g for n in range(1, 6) for g in enumerate_connected_graphs(n)]
    cases = [(p, graph) for p in (2, 3, 5) for graph in graphs + [hypercube(3), folded_cube(5)]]
    cases += [(p, hypercube(5)) for p in (3, 5)]
    deficient = 0
    for p, graph in cases:
        want = p ** (graph.n - gfp_rank(ra_rows_by_sets(graph), p))
        deficient += want > 1
        assert ra_index(heisenberg(p), graph, max_order=None) == want, (p, graph.edges)
    assert deficient >= 40


def test_chain_report_builds_the_derived_power_only_off_the_sandwich(monkeypatch):
    def refuse(self):
        raise AssertionError("built [G^graph, G^graph]")

    monkeypatch.setattr(power.PowerSubgroup, "derived", refuse)
    assert chain_report(symmetric(3), petersen()).orders() == (3 ** 10,) * 5
    assert chain_report(D8, hypercube(3)).orders() == (128, 128, 128, 128, 256)
    with pytest.raises(AssertionError, match="built"):
        chain_report(alternating(4), hypercube(3))


def test_chain_builds_and_eliminates_the_u_le_v_rows_once(monkeypatch):
    # off the closed form (Q3 under D8) the chain reuses the Comm_b count of
    # the closed-form test
    q3 = hypercube(3)
    want = list(ra._distinct_rows(q3, True)._rows)
    built = []
    rows_of = ra._distinct_rows

    def spy(graph, include_equal):
        built.append(include_equal)
        return rows_of(graph, include_equal)
    monkeypatch.setattr(ra, "_distinct_rows", spy)
    seen = _spy_eliminations(monkeypatch)
    assert chain_report(D8, q3).orders() == (128, 128, 128, 128, 256)
    assert built.count(True) == 1
    assert [rows for rows, _ in seen].count(want) == 1


def test_chain_builds_and_eliminates_each_row_set_once_off_the_closed_form(monkeypatch):
    # [S4,S4] = A4 is nonabelian, so Comm_b and Comm_d are counted by one
    # span mod 12 each, the product of one span mod 4 and one mod 3; Q3's
    # u <= v span mod 12 is not full, so G^graph is built and Comm_b is the
    # closure of the rows the count read
    q3 = hypercube(3)
    want = [list(ra._distinct_rows(q3, include_equal)._rows) for include_equal in (True, False)]
    built = []
    rows_of = ra._distinct_rows

    def spy(graph, include_equal):
        built.append(include_equal)
        return rows_of(graph, include_equal)
    monkeypatch.setattr(ra, "_distinct_rows", spy)
    seen = _spy_eliminations(monkeypatch)
    assert chain_report(symmetric(4), q3, max_order=10 ** 15).orders() == (12 ** 8,) * 5
    assert built == [True, False]
    assert [rows for rows, r in seen if r == 4] == [rows for rows, r in seen if r == 3] == want


def test_chain_hands_the_closure_the_rows_it_built(monkeypatch):
    # S4 on Q3 is the closure path (all five orders 12^8): the u <= v rows
    # are counted mod 12 and then closed, the u < v rows likewise, and each
    # closure reads the very row objects _rows built, in their order, after
    # the eliminations of the count
    q3 = hypercube(3)
    built, handed = {}, []
    rows_of, closure = power._rows, power._comm_subgroup

    def build(group, graph, include_equal):
        built[include_equal] = rows_of(group, graph, include_equal)
        return built[include_equal]

    def close(group, rows, max_order):
        handed.append(rows)
        return closure(group, rows, max_order)
    monkeypatch.setattr(power, "_rows", build)
    monkeypatch.setattr(power, "_comm_subgroup", close)
    assert chain_report(symmetric(4), q3, max_order=10 ** 15).orders() == (12 ** 8,) * 5
    assert len(handed) == 2
    for include_equal, rows in zip((True, False), handed):
        assert rows == ra._distinct_rows(q3, include_equal)
        assert rows is built[include_equal]
        assert list(map(id, rows._rows)) == list(map(id, built[include_equal]._rows))


def _power_of_known_order(group, graph, order):
    """G^graph's clicks built as a PermGroup given its order."""
    gens = graph_power(group, graph, max_order=None).perm_group.generators
    return PermGroup(graph.n * group.degree, gens, max_order=None, order=order)


def _assert_known_order_power_matches_plain_build(group, graph, rng):
    ab, comm, full = power._power_orders(group, graph)[2:]
    assert comm == full  # the closed form
    known = _power_of_known_order(group, graph, ab * full)
    plain = graph_power(group, graph, max_order=None).perm_group
    assert known.known_order == known.order() == plain.order(), (group.name, graph.edges)
    members, non_members = membership_sample(plain, rng)
    assert all(map(known.contains, members)), (group.name, graph.edges)
    assert not any(map(known.contains, non_members)), (group.name, graph.edges)
    assert len(non_members) == 50 or plain.order() == factorial(plain.degree)


def _ra_graphs(n):
    return [g for g in enumerate_connected_graphs(n) if lattice_index(ra_matrix_by_sets(g)) == 1]


def test_known_order_powers_match_plain_builds():
    # on an RA graph the closed form |G^graph| = |[G,G]|^n |(G^ab)^graph|,
    # given as the known order of a build, gives the plain build's group
    rng = random.Random(20261019)
    for group in (D8, symmetric(4), heisenberg(3)):
        for n in range(1, 5):
            for graph in _ra_graphs(n):
                _assert_known_order_power_matches_plain_build(group, graph, rng)


@pytest.mark.slow
def test_known_order_powers_match_plain_builds_on_five_vertices():
    rng = random.Random(20261020)
    for group in (D8, symmetric(4), heisenberg(3)):
        for graph in _ra_graphs(5):
            _assert_known_order_power_matches_plain_build(group, graph, rng)


def test_a_known_power_order_one_prime_factor_off_raises_consistency_error():
    for group, graph, p in [(heisenberg(7), cycle(5), 7), (D8, cycle(4), 2),
                            (symmetric(4), cycle(5), 3)]:
        _, _, ab, _, full = power._power_orders(group, graph)
        with pytest.raises(ConsistencyError, match="below the known order"):
            _power_of_known_order(group, graph, ab * full * p).order()
        with pytest.raises(ConsistencyError, match="exceeds the known order"):
            _power_of_known_order(group, graph, ab * full // p).order()


def test_connected_components_product():
    both = disjoint_union(path(3), cycle(4))
    lhs = graph_power(D8, both).order()
    rhs = graph_power(D8, path(3)).order() * graph_power(D8, cycle(4)).order()
    assert lhs == rhs


def test_indistinguishable_vertex_drop():
    assert graph_power(D8, complete(4)).order() == graph_power(D8, complete(3)).order()


def test_full_power_projects_to_full_abelian():
    from graphpower.graphs import enumerate_connected_graphs
    for group in [D8, symmetric(3)]:
        inv = abelianization(group)
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                full = graph_power(group, g).order() == group.order() ** g.n
                if full:
                    ab = abelian_power_order(inv, activation_matrix(g))
                    assert ab == inv.order() ** g.n


def test_basic_commutator_is_its_commutator_spread_over_the_intersection():
    # [g^u, h^v] = [g,h]^I with I the indicator of B(u) cap B(v)
    for group, graph in [(D8, cycle(4)), (symmetric(3), path(3))]:
        act = activation_matrix(graph).row_list()
        elems = group.elements()
        for u in range(graph.n):
            for v in range(u, graph.n):
                both = [a * b for a, b in zip(act[u], act[v])]
                for g in elems:
                    for h in elems:
                        lhs = power_click(group, g, act[u]).as_perm().commutator(
                            power_click(group, h, act[v]).as_perm())
                        assert lhs == power_click(group, g.commutator(h), both).as_perm()


def _assert_comm_subgroups_match_oracle(group, graph):
    d, b = (basic_commutator_order(group, graph, e) for e in (False, True))
    assert comm_d(group, graph).order() == comm_d_order(group, graph) == d, (group, graph)
    assert comm_b(group, graph).order() == comm_b_order(group, graph) == b, (group, graph)


def test_comm_subgroups_match_basic_commutator_oracle():
    for group, max_n in [(D8, 4), (symmetric(3), 4), (alternating(4), 4), (dihedral(10), 4),
                         (dihedral(12), 4), (symmetric(4), 3), (heisenberg(3), 3)]:
        for n in range(1, max_n + 1):
            for graph in enumerate_connected_graphs(n):
                _assert_comm_subgroups_match_oracle(group, graph)
    _assert_comm_subgroups_match_oracle(D8, hypercube(3))


@pytest.mark.slow
def test_comm_subgroups_match_basic_commutator_oracle_to_five_vertices():
    for group, max_n in [(D8, 5), (symmetric(3), 5), (heisenberg(3), 4)]:
        for graph in enumerate_connected_graphs(max_n):
            _assert_comm_subgroups_match_oracle(group, graph)
    _assert_comm_subgroups_match_oracle(D8, petersen())
    # on Q4 the u < v intersection lattice has index 2, and Comm_d is half of
    # Comm_b = [D8,D8]^16
    _assert_comm_subgroups_match_oracle(D8, hypercube(4))
    _assert_comm_subgroups_match_oracle(D8, folded_cube(5))


def test_integer_lattice_coordinate_sum_law():
    # every lattice vector of the C4 activation rows has coordinate sum 0 mod 3;
    # the sum is linear, so the rows that span the lattice decide it
    for row in activation_matrix(cycle(4)).row_list():
        assert sum(row) % 3 == 0


def test_in_comm_membership():
    c4 = cycle(4)
    gp = graph_power(D8, c4)
    r2 = R * R
    e = D8.identity()
    # a basic commutator lands in Comm
    state = as_state(D8, r2, r2, e, e)
    assert in_comm(D8, c4, state)
    # a click generator with non-commutator coordinates does not
    state2 = power_click(D8, R, activation_matrix(c4).row_list()[0])
    assert gp.contains(state2)
    assert not in_comm(D8, c4, state2)
    # C4 is RA over D8: all of [G,G]^4 lies inside
    assert in_comm(D8, c4, as_state(D8, r2, e, e, e))


def test_power_subgroup_order_matches_closure_oracle():
    gp = graph_power(symmetric(3), path(3))
    assert gp.order() == closure_order(gp.perm_group.degree,
                                       [s.as_perm() for s in gp.generators])
    gp2 = graph_power(D8, cycle(4))
    assert gp2.order() == closure_order(gp2.perm_group.degree,
                                        [s.as_perm() for s in gp2.generators])


def test_ra_index_consistency_error_never_masks():
    # identity sanity: index times |G^Gamma| equals |[G,G]|^n * abelian part
    q3 = hypercube(3)
    gp = graph_power(D8, q3)
    idx = ra_index(D8, q3)
    ab = abelian_power_order(abelianization(D8), activation_matrix(q3))
    assert idx * gp.order() == derived_subgroup(D8).order() ** q3.n * ab


def test_all_identity_state_is_identity():
    s = StateVector(D8, (D8.identity(),) * 3)
    assert s.is_identity()
    assert s.as_perm().is_identity()
