from collections import Counter

import pytest

from graphpower.errors import InvalidParameter, LimitExceeded, NotPrime, PreconditionViolated, UnsupportedFamily
from graphpower.graphs import (
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected_graphs,
    folded_cube,
    graph6_decode,
    grid,
    hypercube,
    is_isomorphic,
    path,
    petersen,
    star,
    tadpole,
    triangle_strip,
    wheel,
)
from graphpower import ra
from graphpower.ra import (
    _distinct_rows,
    activation_matrix,
    census,
    heisenberg_ra,
    is_ra,
    known_family_divisors,
    pqr_criterion,
    structural_ra_hints,
)
from graphpower.zlinalg import (IntMat, divisor_tuple_str, lattice_index, rank_mod_p, snf_divisors,
                               span_order_mod)

from oracles import (
    activation_rows_by_sets,
    det_exact,
    disjoint_union,
    gfp_rank,
    nonsingular_row_subset,
    prime_factors,
    ra_matrix_by_sets,
    rational_rank,
    relabel,
)


def eligible(graph):
    from graphpower.graphs import is_connected, is_neighborhood_distinguishable
    return is_connected(graph) and is_neighborhood_distinguishable(graph)


def test_activation_matrix_fixtures():
    assert activation_matrix(cycle(4)).row_list() == [
        [1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]]
    assert activation_matrix(complete(1)).row_list() == [[1]]
    assert activation_matrix(path(3)).row_list() == [
        [1, 1, 0], [1, 1, 1], [0, 1, 1]]


def test_matrices_match_the_set_based_oracle():
    pool = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    pool += [hypercube(d) for d in range(3, 7)]
    pool += [folded_cube(5), grid(8, 8), petersen(), complete_bipartite(7, 8)]
    for g in pool:
        assert activation_matrix(g) == IntMat(activation_rows_by_sets(g), cols=g.n)
        oracle = ra_matrix_by_sets(g)
        # the distinct nonzero rows every reader takes span the same lattice,
        # over Z and mod 2 and 6
        distinct = _distinct_rows(g, True)
        assert sorted(distinct._rows) == sorted(set(oracle._rows) - {(0,) * g.n})
        assert distinct == IntMat(distinct.row_list(), cols=g.n)
        assert lattice_index(distinct) == lattice_index(oracle)
        assert [span_order_mod(distinct, r) for r in (2, 6)] == \
            [span_order_mod(oracle, r) for r in (2, 6)]


def test_ra_matrix_fixtures():
    C = ra_matrix_by_sets(cycle(4))
    assert C.rows == 10 and C.cols == 4
    rows = set(C._rows)
    assert (1, 1, 0, 0) in rows         # adjacent pair
    assert (0, 1, 0, 1) in rows         # opposite pair through both commons
    # diagonal pairs reproduce the activation rows
    diag = [C.row_list()[_pair_index(4, v, v)] for v in range(4)]
    assert diag == activation_matrix(cycle(4)).row_list()


def _pair_index(n, u, v):
    idx = 0
    for a in range(n):
        for b in range(a, n):
            if (a, b) == (u, v):
                return idx
            idx += 1
    raise AssertionError


def test_is_ra_fixtures():
    q3 = is_ra(hypercube(3))
    assert not q3.ra and "2" in q3.witness
    assert is_ra(cycle(4)).ra
    assert is_ra(petersen()).ra
    assert is_ra(complete(1)).ra


def test_is_ra_preconditions():
    with pytest.raises(PreconditionViolated):
        is_ra(disjoint_union(path(2), path(2)))
    with pytest.raises(PreconditionViolated):
        is_ra(complete(4))


def test_is_ra_matches_rank_oracle():
    # the rows of C span Z^n exactly when C has rational rank n and full rank
    # mod every prime dividing the determinant of n independent rows of C
    # (their lattice lies inside C's, with index |det|)
    fixtures = [hypercube(3), hypercube(4), hypercube(5), folded_cube(5), petersen()]
    for n in range(1, 7):
        fixtures.extend(g for g in enumerate_connected_graphs(n) if eligible(g))
    for g in fixtures:
        n = g.n
        C = ra_matrix_by_sets(g)
        rows = C.row_list()
        spans = rational_rank(rows) == n and all(
            gfp_rank(rows, p) == n for p in prime_factors(det_exact(nonsingular_row_subset(rows))))
        verdict = is_ra(g)
        assert verdict.ra == spans, g
        assert verdict.method == "full_lattice"
        assert verdict.ra == all(d == 1 for d in snf_divisors(C)), g
        if verdict.witness.startswith("prime "):
            assert not verdict.ra and gfp_rank(rows, int(verdict.witness[6:])) < n
        elif not verdict.ra:
            assert verdict.witness == "zero divisor (rank deficient)"
            assert rational_rank(rows) < n


@pytest.mark.slow
def test_q8_is_ra():
    assert is_ra(hypercube(8)).ra


def test_heisenberg_ra_fixtures():
    assert not heisenberg_ra(hypercube(3), 2)
    assert not heisenberg_ra(hypercube(5), 2)
    assert not heisenberg_ra(folded_cube(5), 2)
    assert heisenberg_ra(hypercube(4), 2)
    assert heisenberg_ra(cycle(5), 3)
    # the paper's obstruction: Q_d and FQ_d of odd d lose rank mod 2 by the
    # row-sum criterion, and every other cell has full rank
    for graph, d in [(hypercube(d), d) for d in range(2, 10)] + \
            [(folded_cube(d), d) for d in range(4, 11)]:
        for p in (2, 3, 5, 7):
            obstructed = p == 2 and d % 2 == 1
            assert heisenberg_ra(graph, p) != obstructed, (graph.n, d, p)
            if obstructed:
                assert pqr_criterion(graph, 2)
    with pytest.raises(NotPrime):
        heisenberg_ra(cycle(4), 6)


def test_heisenberg_ra_stops_past_the_ra_test_budget(monkeypatch):
    assert heisenberg_ra(cycle(5), 3)
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 74)  # C5 has 15 distinct rows, 75 entries
    with pytest.raises(LimitExceeded, match="75 entries"):
        heisenberg_ra(cycle(5), 3)


def test_rank_mod_p_independent_oracle():
    assert rank_mod_p(ra_matrix_by_sets(hypercube(3)), 2) == 7
    assert gfp_rank(ra_matrix_by_sets(hypercube(3)).row_list(), 2) == 7
    assert rank_mod_p(ra_matrix_by_sets(cycle(5)), 3) == 5
    assert gfp_rank(ra_matrix_by_sets(cycle(5)).row_list(), 3) == 5


def test_pqr_criterion_fixtures():
    assert pqr_criterion(hypercube(3), 2)
    assert pqr_criterion(folded_cube(5), 2)
    assert not pqr_criterion(cycle(5), 2)
    assert not pqr_criterion(grid(2, 3), 2)


def test_pqr_implies_not_heisenberg_ra():
    fixtures = [hypercube(3), hypercube(4), hypercube(5), folded_cube(4),
                folded_cube(5), cycle(4), cycle(5), petersen(), complete(3)]
    for g in fixtures:
        for p in (2, 3):
            if pqr_criterion(g, p):
                assert not heisenberg_ra(g, p)


def test_structural_hints_fixtures():
    c5 = structural_ra_hints(cycle(5))
    assert any(h.rule == "girth5" and h.conclusion == "strongly_ra" for h in c5)
    g23 = structural_ra_hints(grid(2, 3))
    assert any(h.rule == "girth4_no_square_completion" for h in g23)
    assert structural_ra_hints(complete(5)) == []
    k23 = structural_ra_hints(complete_bipartite(2, 3))
    assert any(h.rule == "complete_bipartite" for h in k23)
    assert any(h.rule == "complete_bipartite_coprime" for h in k23)
    k24 = structural_ra_hints(complete_bipartite(2, 4))
    assert not any(h.rule == "complete_bipartite_coprime" for h in k24)
    trees = structural_ra_hints(star(3))
    assert any(h.rule == "girth5" for h in trees)


def test_structural_hints_sound_on_small_census():
    for n in range(3, 7):
        for g in enumerate_connected_graphs(n):
            if not eligible(g):
                continue
            hints = structural_ra_hints(g)
            if hints:
                assert is_ra(g).ra


def test_known_family_divisors_fixtures():
    assert known_family_divisors("path", 5) == (1, 1, 1, 1, 0)
    assert known_family_divisors("cycle", 5) == (1, 1, 1, 1, 3)
    assert known_family_divisors("complete_bipartite", 2, 3) == (1, 1, 1, 1, 5)
    assert known_family_divisors("star", 4) == (1, 1, 1, 1, 3)
    with pytest.raises(UnsupportedFamily):
        known_family_divisors("wheel", 5)


def test_known_family_divisors_match_snf():
    for n in range(1, 13):
        assert known_family_divisors("path", n) == snf_divisors(activation_matrix(path(n)))
    for n in range(3, 13):
        assert known_family_divisors("cycle", n) == snf_divisors(activation_matrix(cycle(n)))
    for m in range(1, 6):
        for n in range(1, 6):
            want = known_family_divisors("complete_bipartite", m, n)
            assert want == snf_divisors(activation_matrix(complete_bipartite(m, n)))
    for n in range(1, 9):
        assert known_family_divisors("star", n) == snf_divisors(activation_matrix(star(n)))


def test_census_to_five():
    report = census(5)
    assert report.full_lattice_counts() == (1, 0, 1, 1, 6)
    assert report.distinguishable_counts() == (1, 0, 1, 3, 11)
    assert all(r.ra for r in report.rows)
    table = Counter((r.n, divisor_tuple_str(r.divisors)) for r in report.nontrivial_rows(5))
    assert table == Counter([
        (4, "(1^3, 3)"), (4, "(1^3, 2)"),
        (5, "(1^4, 0)"), (5, "(1^4, 3)"), (5, "(1^4, 3)"),
        (5, "(1^4, 5)"), (5, "(1^4, 2)"),
    ])
    # identify the actual graphs in the nontrivial table
    found = {}
    for r in report.nontrivial_rows(5):
        found.setdefault(divisor_tuple_str(r.divisors), []).append(graph6_decode(r.graph6))
    assert any(is_isomorphic(g, cycle(4)) for g in found["(1^3, 3)"])
    assert any(is_isomorphic(g, star(3)) for g in found["(1^3, 2)"])
    assert any(is_isomorphic(g, path(5)) for g in found["(1^4, 0)"])
    assert any(is_isomorphic(g, complete_bipartite(2, 3)) for g in found["(1^4, 5)"])
    assert any(is_isomorphic(g, tadpole(4, 1)) for g in found["(1^4, 2)"])
    fives = found["(1^4, 3)"]
    assert any(is_isomorphic(g, cycle(5)) for g in fives)
    assert any(is_isomorphic(g, star(4)) for g in fives)


def test_census_verdicts_match_is_ra_to_seven():
    # census answers RA from unit activation divisors without the lattice test
    rows = census(7).rows
    graphs = [g for n in range(1, 8) for g in enumerate_connected_graphs(n) if eligible(g)]
    assert len(rows) == len(graphs) == 584
    assert sum(all(d == 1 for d in r.divisors) for r in rows) == 201
    for row, g in zip(rows, graphs):
        assert (row.graph6, row.ra, row.method, row.witness) == is_ra(g)


def test_census_verdict_routes_match_is_ra(monkeypatch):
    # d_n > 0 takes ranks mod the primes of d_n, d_n = 0 is_ra over Z; every
    # census graph to 8 vertices with d_n > 1 is RA, so FQ5 is the one input
    # here that reaches the modular route's not-RA witness
    z_calls = []
    monkeypatch.setattr(ra, "is_ra", lambda g: z_calls.append(g) or is_ra(g))
    modular = {"FQ5": folded_cube(5), "petersen": petersen(),
               "K3,6": complete_bipartite(3, 6)}  # d_n = 17, past the packed primes
    singular = {"Q3": hypercube(3), "Q5": hypercube(5), "FQ7": folded_cube(7)}
    singular.update((g6, graph6_decode(g6)) for g6 in (r"HIQ\Tb~", "HK@YtUk", "H?LSf^~"))
    divisors = {}
    for name, g in {**modular, **singular}.items():
        divisors[name] = divs = snf_divisors(activation_matrix(g))
        z_calls.clear()
        verdict = ra._census_verdict(g, divs)
        assert tuple(verdict) == tuple(is_ra(g)), name
        assert z_calls == ([g] if name in singular else []), name
    assert divisor_tuple_str(divisors["FQ5"]) == "(1^6, 2^4, 4^5, 12)"
    assert is_ra(modular["FQ5"])[1:] == (False, "full_lattice", "prime 2")
    assert [divisors[name][-1] for name in modular] == [12, 8, 17]
    assert all(divisors[name][-1] == 0 for name in singular)
    assert [is_ra(g).ra for g in singular.values()] == [False] * 6


def test_census_limits():
    with pytest.raises(LimitExceeded, match="261080"):
        census(9)
    with pytest.raises(InvalidParameter):
        census(0)


@pytest.mark.slow
def test_census_eight_finds_the_cube():
    with pytest.warns(UserWarning):
        report = census(8)
    top = report.summaries[7]
    assert top.connected_classes == 11117
    # the cube lives here, so not everything at n = 8 is RA
    assert top.ra_count < top.distinguishable
    from graphpower.graphs import canonical_form, graph6_encode
    cube = hypercube(3)
    cube_g6 = graph6_encode(relabel(cube, canonical_form(cube)[1]))
    cube_rows = [r for r in report.rows if r.n == 8 and r.graph6 == cube_g6]
    assert len(cube_rows) == 1 and not cube_rows[0].ra
    # smaller sizes unchanged
    assert report.full_lattice_counts()[:7] == (1, 0, 1, 1, 6, 20, 172)
    # the verdicts from the activation divisors are is_ra's
    graphs = [g for g in enumerate_connected_graphs(8) if eligible(g)]
    rows = [r for r in report.rows if r.n == 8]
    assert len(rows) == len(graphs) == 7442
    for row, g in zip(rows, graphs):
        assert (row.graph6, row.ra, row.method, row.witness) == is_ra(g)


def test_divisor_primes_contained_in_activation_primes():
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            if not eligible(g):
                continue
            divs_a = snf_divisors(activation_matrix(g))
            largest = divs_a[-1]
            if largest <= 1:
                continue
            divs_c = snf_divisors(ra_matrix_by_sets(g))
            for d in divs_c:
                if d > 1:
                    for p in (2, 3, 5, 7, 11, 13):
                        if d % p == 0:
                            assert largest % p == 0


def test_heisenberg_scan_matches_global_verdict():
    fixtures = [hypercube(3), hypercube(4), cycle(4), cycle(6), petersen(),
                wheel(6), triangle_strip(6), folded_cube(4), folded_cube(5)]
    for g in fixtures:
        verdict = is_ra(g).ra
        divs_a = snf_divisors(activation_matrix(g))
        primes = set()
        for d in divs_a:
            if d > 1:
                n = d
                q = 2
                while q * q <= n:
                    if n % q == 0:
                        primes.add(q)
                        while n % q == 0:
                            n //= q
                    q += 1
                if n > 1:
                    primes.add(n)
        primes |= {2, 3}
        heis_all = all(heisenberg_ra(g, p) for p in sorted(primes))
        if divs_a[-1] != 0:
            assert heis_all == verdict


def test_ra_families_from_theory():
    # girth >= 5, even cubes, wheels, triangle strips all come out RA
    for g in [cycle(4), hypercube(2), hypercube(4), grid(2, 3), grid(3, 3),
              complete_bipartite(2, 3), complete_bipartite(3, 3),
              wheel(6), wheel(7), triangle_strip(5), triangle_strip(7)]:
        assert is_ra(g).ra, g
    # odd cubes and odd folded cubes are not
    for g in [hypercube(3), hypercube(5), folded_cube(5)]:
        assert not is_ra(g).ra
