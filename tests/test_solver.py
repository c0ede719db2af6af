import random

import pytest
from hypothesis import given, settings, strategies as st

from graphpower import solver
from graphpower.errors import ConsistencyError, DimensionMismatch, InvalidParameter, LimitExceeded
from graphpower.graphs import (
    complete,
    cycle,
    enumerate_connected_graphs,
    grid,
    parse_graph_spec,
    path,
    star,
)
from graphpower.ra import activation_matrix
from graphpower.solver import (
    INTEGERS,
    Solution,
    Unsolvable,
    reachability_profile,
    solvable_iff_lights_out,
    solve,
)
from graphpower.zlinalg import lattice_index, mat_vec

from oracles import (
    gfp_solvable,
    lattice_member_exact,
    modular_obstruction_bruteforce,
    reachability_profile_by_hnf,
)


def test_grid_all_ones_mod2():
    g = grid(5, 5)
    res = solve(g, (2,), [1] * 25)
    assert isinstance(res, Solution)
    assert gfp_solvable(activation_matrix(g).row_list(), [1] * 25, 2)


def test_c4_over_z_sum_obstruction():
    c4 = cycle(4)
    res = solve(c4, INTEGERS, [1, 0, 0, 0])
    assert isinstance(res, Unsolvable)
    assert res.vertex == 3 and res.modulus == INTEGERS
    ok = solve(c4, INTEGERS, [1, 1, 1, 0])
    assert isinstance(ok, Solution)
    assert mat_vec(ok.clicks[0], activation_matrix(c4)) == (1, 1, 1, 0)


def test_zero_target_zero_clicks():
    res = solve(cycle(4), (3,), [0, 0, 0, 0])
    assert isinstance(res, Solution)
    assert res.clicks == ((0, 0, 0, 0),)


def test_reachability_profiles():
    prof = reachability_profile(cycle(4))
    assert (prof.free_count, prof.pivots(), prof.fixed_count) == (3, (3,), 0)
    assert prof.constrained == ((3, 3),)
    prof5 = reachability_profile(path(5))
    assert (prof5.free_count, prof5.pivots(), prof5.fixed_count) == (4, (), 1)
    prof1 = reachability_profile(complete(1))
    assert (prof1.free_count, prof1.pivots(), prof1.fixed_count) == (1, (), 0)
    assert prof.free_count + len(prof.constrained) + prof.fixed_count == 4


def test_reachability_profile_matches_the_hermite_form():
    # the profile reads the pivots and the column permutation straight from
    # the echelon kernel; the Hermite form's reduction above each pivot and
    # its witness U do not change them
    fixtures = [parse_graph_spec(s) for s in ("Q5", "Q6", "FQ7", "grid8x8", "grid10x10", "C61",
                                              "petersen", "K7,8", "C12", "P11")]
    graphs = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)] + fixtures
    assert len(graphs) == 1006
    for g in graphs:
        assert reachability_profile(g) == reachability_profile_by_hnf(g), g.edges


def test_solve_matches_lattice_membership_over_z():
    rng = random.Random(11)
    for g in [cycle(4), path(5), star(3), cycle(6)]:
        A = activation_matrix(g).row_list()
        for _ in range(25):
            target = tuple(rng.randint(-4, 4) for _ in range(g.n))
            res = solve(g, INTEGERS, list(target))
            assert isinstance(res, Solution) == lattice_member_exact(A, target)


@pytest.mark.parametrize("r", [2, 3, 4, 6, 10])
def test_modular_solve_matches_bruteforce(r):
    rng = random.Random(r)
    graphs = [g for n in range(1, 5) for g in enumerate_connected_graphs(n)]
    for g in graphs + [cycle(5), path(5)]:
        A = activation_matrix(g).row_list()
        for _ in range(24):
            target = [rng.randrange(r) for _ in range(g.n)]
            res = solve(g, (r,), target)
            bad = modular_obstruction_bruteforce(A, target, r)
            if bad is None:
                assert isinstance(res, Solution)
            else:
                assert isinstance(res, Unsolvable) and res.vertex == bad


def test_factor_independence():
    g = star(3)
    rng = random.Random(2)
    for _ in range(20):
        t2 = [rng.randrange(2) for _ in range(g.n)]
        t3 = [rng.randrange(3) for _ in range(g.n)]
        combined = solve(g, (2, 3), [(a, b) for a, b in zip(t2, t3)])
        alone2 = solve(g, (2,), t2)
        alone3 = solve(g, (3,), t3)
        if isinstance(combined, Solution):
            assert isinstance(alone2, Solution) and isinstance(alone3, Solution)
            assert combined.clicks == (alone2.clicks[0], alone3.clicks[0])
        else:
            assert isinstance(alone2, Unsolvable) or isinstance(alone3, Unsolvable)


def test_full_lattice_graphs_always_solvable():
    rng = random.Random(4)
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            if lattice_index(activation_matrix(g)) != 1:
                continue
            for r in (2, 3, 4, 5):
                target = [rng.randrange(r) for _ in range(g.n)]
                assert isinstance(solve(g, (r,), target), Solution)
            target = [rng.randint(-3, 3) for _ in range(g.n)]
            assert isinstance(solve(g, INTEGERS, target), Solution)


def test_c4_moduli_coprime_to_three_always_solvable():
    c4 = cycle(4)
    # exhaustive at k = 2, sampled at 4 and 5
    for target in range(16):
        bits = [(target >> i) & 1 for i in range(4)]
        assert isinstance(solve(c4, (2,), bits), Solution)
    rng = random.Random(9)
    for k in (4, 5):
        for _ in range(40):
            target = [rng.randrange(k) for _ in range(4)]
            assert isinstance(solve(c4, (k,), target), Solution)
    # modulus 3 keeps the coordinate-sum obstruction
    assert isinstance(solve(c4, (3,), [1, 0, 0, 0]), Unsolvable)


def test_solver_matches_gf2_oracle():
    rng = random.Random(8)
    for g in [star(3), cycle(6), grid(2, 3), path(4)]:
        A = activation_matrix(g).row_list()
        for _ in range(16):
            target = [rng.randrange(2) for _ in range(g.n)]
            res = solve(g, (2,), target)
            assert isinstance(res, Solution) == gfp_solvable(A, target, 2)


def test_solver_input_validation():
    with pytest.raises(DimensionMismatch):
        solve(cycle(4), (2,), [1, 0])
    with pytest.raises(InvalidParameter):
        solve(cycle(4), (), [0, 0, 0, 0])
    with pytest.raises(InvalidParameter):
        solve(cycle(4), (1,), [0, 0, 0, 0])
    with pytest.raises(DimensionMismatch):
        solve(cycle(4), (2, 3), [1, 0, 0, 0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 5]), st.lists(st.integers(0, 4), min_size=4, max_size=4))
def test_solutions_verify_by_construction(r, target):
    # solve() checks clicks . A against the target and raises on mismatch;
    # reaching a Solution therefore certifies the clicks
    res = solve(cycle(4), (r,), [t % r for t in target])
    if isinstance(res, Solution):
        clicks = res.clicks[0]
        A = activation_matrix(cycle(4)).row_list()
        reached = [sum(c * A[v][w] for v, c in enumerate(clicks)) % r
                   for w in range(4)]
        assert reached == [t % r for t in target]


def test_solve_checks_its_clicks(monkeypatch):
    monkeypatch.setattr(solver, "row_solve",
                        lambda M, target, r=0, budget=None: ((0,) * M.rows, None))
    for moduli, target in ((INTEGERS, [1, 1, 1, 0]), ((3,), [1, 0, 0, 0])):
        with pytest.raises(ConsistencyError):
            solve(cycle(4), moduli, target)


def test_solve_over_z_stops_at_the_ra_test_budget(monkeypatch):
    # over Z the elimination has the budget of the RA test; mod r none
    monkeypatch.setattr(solver, "RA_TEST_BUDGET", 100)
    with pytest.raises(LimitExceeded, match="budget of 100$"):
        solve(grid(3, 3), INTEGERS, [1] * 9)
    assert solve(grid(3, 3), (3,), [1] * 9)


def test_lights_out_wrapper():
    assert solvable_iff_lights_out(path(3), [1, 0, 1])
    assert solvable_iff_lights_out(path(3), [1, 1, 1])
    assert solvable_iff_lights_out(cycle(4), [0, 0, 0, 0])
    # star with 3 leaves has a parity obstruction from the divisor 2
    A = activation_matrix(star(3)).row_list()
    for mask in range(16):
        bits = [(mask >> i) & 1 for i in range(4)]
        assert solvable_iff_lights_out(star(3), bits) == gfp_solvable(A, bits, 2)


def test_unsolvable_witness_names_pivot_vertex():
    res = solve(star(3), (2,), [1, 0, 0, 0])
    if isinstance(res, Unsolvable):
        assert 0 <= res.vertex < 4
        assert res.modulus == 2
    # targets differing only at the witness coordinate flip solvability
    res2 = solve(cycle(4), INTEGERS, [0, 0, 0, 1])
    assert isinstance(res2, Unsolvable)
    assert isinstance(solve(cycle(4), INTEGERS, [0, 0, 0, 3]), Solution)
