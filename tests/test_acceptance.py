"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print (pytest captures stdout otherwise). Each criterion is exact; there are
no tolerances to tune, only equalities and strict bounds, plus wall-clock
budgets far above the observed runtimes.
"""

import random
import sys
import time

import pytest

from graphpower.graphs import (
    Graph,
    canonical_certificate,
    complete_bipartite,
    cycle,
    enumerate_connected_graphs,
    folded_cube,
    graph6_encode,
    grid,
    hypercube,
    is_neighborhood_distinguishable,
    path,
    petersen,
    star,
    tadpole,
)
from graphpower.groups import alternating, dihedral, heisenberg, symmetric
from graphpower.power import (
    StateVector,
    comm_b,
    comm_d,
    graph_power,
    matrix_power,
    ra_index,
)
from graphpower.ra import (
    activation_matrix,
    census,
    heisenberg_ra,
    is_ra,
    known_family_divisors,
    pqr_criterion,
    structural_ra_hints,
)
from graphpower.solver import INTEGERS, Solution, Unsolvable, reachability_profile, solve
from graphpower.zlinalg import IntMat, divisor_tuple_str, snf_divisors

from oracles import (
    activation_rows_by_sets,
    augmented_classes_by_edge_lists,
    comm_order_by_closure,
    connected_classes_bruteforce,
    connected_counts_by_euler_transform,
    derived_power_order_by_basic_commutators,
    hnf,
    reachability_profile_by_hnf,
)

pytestmark = pytest.mark.acceptance


def _report(num, desc, budget, fn):
    t0 = time.time()
    try:
        fn()
    except Exception:
        print(f"[criterion {num:2d}] FAIL  {desc}", file=sys.stderr)
        raise
    dt = time.time() - t0
    print(f"[criterion {num:2d}] PASS  {desc}  ({dt:.1f}s / budget {budget})",
          file=sys.stderr)
    assert dt <= _BUDGETS[num], f"criterion {num} blew its {budget} budget: {dt:.1f}s"


_BUDGETS = {1: 1, 2: 5, 3: 5, 4: 600, 5: 60, 6: 5, 7: 300, 8: 10, 9: 30,
            10: 900, 11: 60, 12: 5, 13: 120}


def test_criterion_01_table1():
    def body():
        fixtures = [
            (cycle(4), "(1^3, 3)"),
            (star(3), "(1^3, 2)"),
            (path(5), "(1^4, 0)"),
            (cycle(5), "(1^4, 3)"),
            (star(4), "(1^4, 3)"),
            (complete_bipartite(2, 3), "(1^4, 5)"),
            (tadpole(4, 1), "(1^4, 2)"),
        ]
        for g, want in fixtures:
            assert divisor_tuple_str(snf_divisors(activation_matrix(g))) == want
    _report(1, "divisor table for the seven small non-full graphs", "1s", body)


def test_criterion_02_closed_form_families():
    def body():
        for n in range(1, 13):
            assert snf_divisors(activation_matrix(path(n))) == known_family_divisors("path", n)
        for n in range(3, 13):
            assert snf_divisors(activation_matrix(cycle(n))) == known_family_divisors("cycle", n)
        for m in range(1, 6):
            for n in range(1, 6):
                assert snf_divisors(activation_matrix(complete_bipartite(m, n))) == \
                    known_family_divisors("complete_bipartite", m, n)
        for n in range(1, 9):
            assert snf_divisors(activation_matrix(star(n))) == known_family_divisors("star", n)
    _report(2, "closed-form divisor families (paths, cycles, K_{m,n}, stars)", "5s", body)


def test_criterion_03_cube_divisors():
    def body():
        assert snf_divisors(activation_matrix(hypercube(3))) == (1, 1, 1, 1, 2, 0, 0, 0)
    _report(3, "3-cube activation divisors (1^4, 2, 0^3)", "5s", body)


def test_criterion_04_census():
    def body():
        counts = [sum(1 for _ in enumerate_connected_graphs(n)) for n in range(1, 8)]
        assert counts == [1, 1, 2, 6, 21, 112, 853]
        # two independent oracles for the class counts
        for n in range(1, 7):
            assert connected_classes_bruteforce(n) == counts[n - 1]
        assert connected_counts_by_euler_transform(7) == counts
        report = census(7)
        assert report.full_lattice_counts() == (1, 0, 1, 1, 6, 20, 172)
        assert all(row.ra for row in report.rows)
        # through n = 6, row for row as recomputed from the edge-list
        # enumeration, whose classes come in the order found
        expected = []
        for n in range(1, 7):
            classes = [g for g, _ in augmented_classes_by_edge_lists(n)]
            for g in sorted(classes, key=canonical_certificate):
                if is_neighborhood_distinguishable(g):
                    verdict = is_ra(g)
                    divs = snf_divisors(IntMat(activation_rows_by_sets(g), cols=n))
                    expected.append((n, graph6_encode(g), divs, verdict.ra, verdict.witness))
        assert [(r.n, r.graph6, r.divisors, r.ra, r.witness)
                for r in report.rows if r.n <= 6] == expected
    _report(4, "census: class counts, full-lattice counts, all RA to n=7", "10min", body)


def test_criterion_05_ra_index_fixtures():
    def body():
        q3 = hypercube(3)
        assert ra_index(dihedral(8), q3) == 2
        assert ra_index(dihedral(10), q3) == 1
        assert ra_index(dihedral(8), cycle(4)) == 1
    _report(5, "RA index 2/1/1 for D8 and D10 on the cube, D8 on C4", "60s", body)


def test_criterion_06_commutator_chain_orders():
    def body():
        c4 = cycle(4)
        assert comm_d(dihedral(8), c4).order() == 8
        assert comm_b(dihedral(8), c4).order() == 16
    _report(6, "basic-commutator orders 8 and 16 for D8 on C4", "5s", body)


def test_criterion_07_s4_a4_on_c5():
    def body():
        c5 = cycle(5)
        assert graph_power(symmetric(4), c5).order() == 24 ** 5 == 7962624
        a4_order = graph_power(alternating(4), c5).order()
        assert a4_order < 12 ** 5
    _report(7, "S4 fills C5 (24^5), A4 does not (strict)", "5min", body)


def test_criterion_08_heisenberg_criterion():
    def body():
        assert not heisenberg_ra(hypercube(3), 2)
        assert not heisenberg_ra(hypercube(5), 2)
        assert not heisenberg_ra(folded_cube(5), 2)
        assert heisenberg_ra(hypercube(4), 2)
        fixtures = [hypercube(3), hypercube(4), hypercube(5),
                    folded_cube(4), folded_cube(5), cycle(4), cycle(5),
                    grid(2, 3), petersen()]
        for g in fixtures:
            for p in (2, 3, 5):
                if pqr_criterion(g, p):
                    assert not heisenberg_ra(g, p)
    _report(8, "Heisenberg rank criterion on cubes and folded cubes", "10s", body)


def test_criterion_09_matrix_counterexamples():
    def body():
        d8 = dihedral(8)
        r = d8.generators[0]
        e = d8.identity()
        p = matrix_power(d8, [[2]])
        states = {tuple(c.image for c in s.components) for s in p.elements_as_states()}
        assert states == {((r * r).image,), (e.image,)}
        assert p.derived().order() == 1
        from graphpower.groups import derived_subgroup
        der = derived_subgroup(d8)
        comm_count = sum(1 for s in p.elements_as_states()
                         if all(der.contains(c) for c in s.components))
        assert comm_count == 2  # Comm nontrivial although the derived power is trivial

        p2 = matrix_power(d8, [[1, 1], [1, -1]])
        derived_states = {tuple(c.image for c in s.components)
                          for s in p2.derived().elements_as_states()}
        assert derived_states == {((r * r).image, (r * r).image), (e.image, e.image)}
        spike = StateVector(d8, (r * r, e))
        assert p2.contains(spike)
        assert all(der.contains(c) for c in spike.components)
        assert tuple(c.image for c in spike.components) not in derived_states
    _report(9, "click-square and mixed-sign matrix counterexamples", "30s", body)


def test_criterion_10_derived_equals_comm():
    def body():
        groups = [dihedral(8), symmetric(3), symmetric(4), heisenberg(3)]
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                for group in groups:
                    derived = graph_power(group, g, max_order=None).derived()
                    comm = comm_order_by_closure(group, g)
                    assert derived.order() == comm, (group.name, g)
                    oracle = derived_power_order_by_basic_commutators(group, g)
                    assert derived.order() == oracle, (group.name, g)
    _report(10, "derived power equals Comm and the basic-commutator closure "
            "for D8, S3, S4, H3 on all graphs to n=5",
            "15min", body)


def test_criterion_11_solver_end_to_end():
    def body():
        assert isinstance(solve(grid(5, 5), (2,), [1] * 25), Solution)
        assert isinstance(solve(cycle(4), INTEGERS, [1, 0, 0, 0]), Unsolvable)
        assert isinstance(solve(cycle(4), INTEGERS, [1, 1, 1, 0]), Solution)
        rng = random.Random(20250808)
        graphs = [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
        checked = 0
        while checked < 500:
            g = rng.choice(graphs)
            r = rng.choice([2, 3, 4, 5])
            target = [rng.randrange(r) for _ in range(g.n)]
            solve(g, (r,), target)  # the clicks . A check inside raises on any mismatch
            checked += 1
        for _ in range(20):
            target = [rng.randint(-4, 4) for _ in range(4)]
            solve(cycle(4), INTEGERS, target)
    _report(11, "solver round trips 500 random instances plus the fixtures", "60s", body)


def test_criterion_12_hnf_fixture():
    def body():
        _, H, _ = hnf(activation_matrix(cycle(4)).row_list())
        assert H == [[1, 0, 0, 2], [0, 1, 0, 2], [0, 0, 1, 2], [0, 0, 0, 3]]
        prof = reachability_profile(cycle(4))
        assert (prof.free_count, prof.pivots(), prof.fixed_count) == (3, (3,), 0)
        assert prof == reachability_profile_by_hnf(cycle(4))
    _report(12, "echelon basis of C4 and its reachability profile", "5s", body)


def test_criterion_13_structural_soundness():
    def body():
        for n in range(3, 7):
            for g in enumerate_connected_graphs(n):
                from graphpower.graphs import is_neighborhood_distinguishable
                if not is_neighborhood_distinguishable(g):
                    continue
                if structural_ra_hints(g):
                    assert is_ra(g).ra
        girth5 = [cycle(n) for n in range(5, 13)] + [petersen()]
        rng = random.Random(13)
        for _ in range(8):
            n = rng.randint(3, 10)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            girth5.append(Graph(n, edges))  # random tree
        for g in girth5:
            hints = structural_ra_hints(g)
            assert any(h.rule == "girth5" for h in hints)
            assert is_ra(g).ra
    _report(13, "structural hints are sound; girth>=5 fixtures all RA", "2min", body)


def test_appendix_q3_adjacency_is_the_binary_cube():
    # keeps the published 8-vertex adjacency list wired to the constructor
    lists = [[2, 4, 5], [1, 3, 6], [2, 4, 7], [1, 3, 8],
             [1, 6, 8], [2, 5, 7], [3, 6, 8], [4, 5, 7]]
    edges = [(i, j - 1) for i, nbrs in enumerate(lists) for j in nbrs]
    from graphpower.graphs import is_isomorphic
    assert is_isomorphic(Graph(8, edges), hypercube(3))
