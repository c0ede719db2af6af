import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from graphpower import power, ra, solver, zlinalg
from graphpower.errors import DimensionMismatch, LimitExceeded, NotPrime
from graphpower.graphs import Graph, enumerate_connected_graphs, grid, hypercube, petersen
from graphpower.groups import symmetric
from graphpower.ra import activation_matrix
from graphpower.zlinalg import (
    IntMat,
    _echelon,
    divisor_tuple_str,
    lattice_index,
    mat_vec,
    rank_mod_p,
    snf_divisors,
    span_order_mod,
    row_solve,
)

from oracles import (
    basis_rank_charge,
    det_exact,
    echelon_full_rows,
    hnf,
    lattice_member_bruteforce,
    minors_divisors,
    modular_obstruction_bruteforce,
    reachable_mod,
    relabel,
    smith_chain_pairwise,
)

A_C4 = IntMat([[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]])
A_P3 = IntMat([[1, 1, 0], [1, 1, 1], [0, 1, 1]])


small_matrix = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=m, max_size=m)))


def test_snf_c4_fixture():
    assert snf_divisors(A_C4) == (1, 1, 1, 3) == minors_divisors(A_C4.row_list())
    # the product of the divisors is |det|
    assert abs(det_exact(A_C4.row_list())) == 3


def test_snf_identity():
    assert snf_divisors(IntMat.identity(3)) == (1, 1, 1)


def test_snf_zero_and_empty():
    z = IntMat([[0, 0, 0], [0, 0, 0]])
    assert snf_divisors(z) == (0, 0) == minors_divisors(z.row_list())
    empty = IntMat([], cols=4)
    assert snf_divisors(empty) == ()


def test_snf_divisor_chain_ordering():
    assert snf_divisors(IntMat([[2, 0], [0, 3]])) == (1, 6)


def test_snf_divisors_with_duplicate_and_zero_rows():
    # snf_divisors drops duplicates and zero rows; the chain must still match
    # the gcd-of-minors chain of the full matrix
    mat = IntMat([[0, 0, 0], [2, 4, 6], [2, 4, 6], [0, 0, 0], [1, 1, 1]])
    assert snf_divisors(mat) == minors_divisors(mat.row_list())
    tall = IntMat([[3, 3], [3, 3], [3, 3]])
    assert snf_divisors(tall) == minors_divisors(tall.row_list()) == (3, 0)


def test_snf_divisors_invariant_under_relabeling():
    # the divisor chain is a graph invariant; under this relabeling of
    # grid16x16 smallest-entry SNF pivoting runs for minutes, so the test
    # also bounds the elimination's coefficient growth
    perm = list(range(256))
    random.Random(1002).shuffle(perm)
    mat = activation_matrix(relabel(grid(16, 16), perm))
    assert divisor_tuple_str(snf_divisors(mat)) == \
        "(1^248, 2^3, 134, 536^2, 5576008, 2280587272)"


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_snf_matches_minors_oracle(rows):
    divs = snf_divisors(IntMat(rows))
    assert divs == minors_divisors(rows)
    # divisibility chain, with zeros trailing
    for a, b in zip(divs, divs[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


# The Hermite normal form lives in the oracles, as the reference that
# reachability_profile is checked against; these tests check that reference.

def _times(U, M):
    """U M for row lists."""
    return [[sum(u * x for u, x in zip(row, col)) for col in zip(*M)] for row in U]


def _pivots(H):
    """(row, col, value) for each nonzero row of H: its first nonzero entry."""
    return [(i, *next((j, v) for j, v in enumerate(row) if v))
            for i, row in enumerate(H) if any(row)]


def test_hnf_c4_matches_fixture():
    U, H, _ = hnf(A_C4.row_list())
    assert H == [[1, 0, 0, 2], [0, 1, 0, 2], [0, 0, 1, 2], [0, 0, 0, 3]]
    assert _times(U, A_C4.row_list()) == H


def test_hnf_p3_is_identity():
    assert hnf(A_P3.row_list())[1] == IntMat.identity(3).row_list()


def test_hnf_zero_matrix():
    z = [[0] * 3] * 3
    U, H, _ = hnf(z)
    assert H == z
    assert U == IntMat.identity(3).row_list()


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_hnf_shape_and_lattice(rows):
    U, H, _ = hnf(rows)
    assert _times(U, rows) == H
    assert abs(det_exact(U)) == 1
    pivots = _pivots(H)
    cols = [c for _, c, _ in pivots]
    assert cols == sorted(cols) and len(set(cols)) == len(cols)
    for i, c, v in pivots:
        assert v > 0
        assert all(H[k][c] == 0 for k in range(i + 1, len(rows)))
        assert all(0 <= H[k][c] < v for k in range(i))
    # zero rows come last
    nonzero = [any(row) for row in H]
    assert nonzero == sorted(nonzero, reverse=True)
    # same row lattice: H's rows lie in it (U is integral) and the index is 1
    # (equal gcd-of-minors chains)
    assert minors_divisors(H) == minors_divisors(rows)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_hnf_nice_block_shape(rows):
    U, H, perm = hnf(rows, nice=True)
    assert sorted(perm) == list(range(len(rows[0])))
    permuted = [[row[j] for j in perm] for row in rows]
    assert _times(U, permuted) == H
    values = [v for _, _, v in _pivots(H)]
    ones = [v for v in values if v == 1]
    rest = [v for v in values if v > 1]
    assert values == ones + sorted(rest)


@settings(max_examples=60, deadline=None)
@given(small_matrix, st.sampled_from([2, 3, 5, 7]))
def test_rank_mod_p_matches_divisors(rows, p):
    mat = IntMat(rows)
    divs = snf_divisors(mat)
    expected = sum(1 for d in divs if d % p != 0)
    assert rank_mod_p(mat, p) == expected


def test_rank_mod_p_rejects_composite():
    with pytest.raises(NotPrime):
        rank_mod_p(IntMat.identity(2), 4)


@settings(max_examples=40, deadline=None)
@given(small_matrix)
def test_spans_full_lattice_cross_check(rows):
    mat = IntMat(rows)
    divs = snf_divisors(mat)
    n = mat.cols
    full = len(divs) >= n and all(d == 1 for d in divs[:n])
    assert (lattice_index(mat) == 1) == full
    if full:
        for p in (2, 3, 5):
            assert rank_mod_p(mat, p) == n


def test_row_sum_certificate_fixtures():
    # every row sum of the C4 activation matrix is 3, so the all-ones vector
    # is a kernel vector mod 3: the rank drops mod 3 and a divisor is 3
    assert all(sum(row) == 3 for row in A_C4.row_list())
    assert rank_mod_p(A_C4, 3) == 3 and snf_divisors(A_C4)[-1] == 3
    assert rank_mod_p(IntMat.identity(3), 2) == 3


def test_row_sum_forces_divisor_on_engineered_matrices():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        m = rng.randint(2, 5)
        n = rng.randint(2, m)
        rows = []
        for _ in range(m):
            row = [rng.randint(-4, 4) for _ in range(n)]
            row[-1] -= sum(row) % p
            rows.append(row)
        mat = IntMat(rows)
        assert all(sum(row) % p == 0 for row in rows)
        assert rank_mod_p(mat, p) < n
        assert any(d % p == 0 for d in snf_divisors(mat))


def test_row_solve_fixtures():
    c, bad = row_solve(A_P3, (0, 1, 0))
    assert bad is None and mat_vec(c, A_P3) == (0, 1, 0)
    # coordinate sum of C4 lattice vectors is 0 mod 3, so e1 is out
    assert row_solve(A_C4, (1, 0, 0, 0))[0] is None
    assert not lattice_member_bruteforce(A_C4.row_list(), (1, 0, 0, 0), 6)
    ident = IntMat.identity(3)
    assert row_solve(ident, (4, -2, 9)) == ((4, -2, 9), None)


@settings(max_examples=40, deadline=None)
@given(small_matrix, st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_row_solve_agrees_with_bruteforce(rows, target):
    mat = IntMat(rows)
    if len(target) != mat.cols:
        target = (target * 4)[:mat.cols]
    c, _ = row_solve(mat, tuple(target))
    if c is not None:
        assert mat_vec(c, mat) == tuple(target)
    else:
        assert not lattice_member_bruteforce(rows, tuple(target), 3)


def test_row_solve_mod_r_matches_bruteforce():
    # composite moduli exercise the rows (r/g) * pivot row that keep the
    # echelon form complete modulo r; 10 and 20 give gcd cofactors that are
    # not units modulo r
    rng = random.Random(1)
    for _ in range(400):
        r = rng.choice([2, 3, 4, 6, 8, 9, 10, 12, 20])
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[rng.randint(-r, 2 * r) for _ in range(n)] for _ in range(m)]
        target = [rng.randrange(r) for _ in range(n)]
        if rng.random() < 0.5:  # a reachable target
            coeffs = [rng.randrange(r) for _ in range(m)]
            target = [x % r for x in mat_vec(coeffs, IntMat(rows))]
        c, bad = row_solve(IntMat(rows), target, r)
        assert bad == modular_obstruction_bruteforce(rows, target, r)
        if c is not None:
            assert [x % r for x in mat_vec(c, IntMat(rows))] == target


def test_span_order_mod_matches_enumeration():
    rng = random.Random(2)
    for _ in range(300):
        r = rng.choice([1, 2, 3, 4, 6, 8, 9, 10, 12, 20])
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[rng.randint(-r, 2 * r) for _ in range(n)] for _ in range(m)]
        assert span_order_mod(IntMat(rows), r) == len(reachable_mod(tuple(map(tuple, rows)), r))
    # the pivot 4 of (4, 1) mod 10 is no unit; its row still spans 10 vectors
    assert span_order_mod(IntMat([[4, 1]]), 10) == 10
    assert span_order_mod(IntMat([[2, 0], [0, 2]]), 4) == 4
    with pytest.raises(DimensionMismatch):
        span_order_mod(IntMat([[1]]), 0)


def test_lattice_index_work_budget():
    # one row operation rewrites the three entries of (1, 1, 1)
    m = IntMat([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert lattice_index(m) == 1
    assert lattice_index(m, budget=100) == 1
    with pytest.raises(LimitExceeded, match="budget of 2$"):
        lattice_index(m, budget=2)
    # the Smith form's elimination rewrites nine entries
    assert snf_divisors(m, budget=9) == snf_divisors(m) == (1, 1, 1)
    with pytest.raises(LimitExceeded, match="budget of 8$"):
        snf_divisors(m, budget=8)
    # row_solve carries four witness columns: three operations of 7 entries
    assert row_solve(m, [1, 2, 3], budget=21) == row_solve(m, [1, 2, 3]) == ((3, -2, -1, 0), None)
    with pytest.raises(LimitExceeded, match="budget of 20$"):
        row_solve(m, [1, 2, 3], budget=20)


def test_row_solve_mod_r_scales_pivot_rows_by_units():
    # xgcd(4, 10) gives the cofactor -2; scaling the row (4, 1) by it would
    # leave only the multiples of (2, 8), which miss (4, 1) itself
    assert row_solve(IntMat([[4, 1]]), [4, 1], 10) == ((1,), None)
    assert row_solve(IntMat([[8, 1]]), [8, 1], 20) == ((1,), None)


def test_intmat_cols_must_match_the_rows():
    assert IntMat([[1, 2]], cols=2).cols == 2 and IntMat([], cols=5).cols == 5
    with pytest.raises(DimensionMismatch):
        IntMat([[1, 2]], cols=5)
    with pytest.raises(DimensionMismatch):
        IntMat([[1, 2], [3]])


def test_divisor_tuple_str():
    assert divisor_tuple_str((1, 1, 1, 3)) == "(1^3, 3)"
    assert divisor_tuple_str((1, 1, 1, 1, 2, 0, 0, 0)) == "(1^4, 2, 0^3)"
    assert divisor_tuple_str((1,)) == "(1)"



def _as_lists(echelon):
    rows, pivots = echelon
    return [list(row) for row in rows], pivots


def _unchanged(given, readers):
    """Run each reader on `given` and assert that neither the sequence nor
    its rows changed, whatever the reader returned or raised."""
    before, ids = [list(row) for row in given], list(map(id, given))
    out = []
    for reader in readers:
        try:
            out.append(reader(given))
        except LimitExceeded as exc:
            out.append(str(exc))
        assert [list(row) for row in given] == before and list(map(id, given)) == ids
    return out


def test_the_kernel_and_its_readers_leave_the_given_rows_as_they_are():
    # the echelon kernel takes rows as any sequences and works on a list of
    # its own: a tuple of tuples and a list of lists give the same results,
    # and neither is written into, not by the Howell rows mod 12, the column
    # swaps of perm mode or an elimination that stops on its budget
    rng = random.Random(22)
    howell = 0
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        mod = {r: [[x % r for x in row] for row in rows] for r in (5, 12)}

        def with_perm(given):
            perm = list(range(n))
            return _as_lists(_echelon(given, n, perm=perm)), perm
        readers = [
            lambda g: _as_lists(_echelon(g, n)),
            lambda g: _as_lists(_echelon(g, n, budget=10 ** 6)),
            lambda g: _as_lists(_echelon(g, n, budget=n)),
            with_perm,
            lambda g: snf_divisors(IntMat(g)),
            lambda g: lattice_index(IntMat(g)),
        ]
        mod_readers = {r: [lambda g, r=r: _as_lists(_echelon(g, n, r)),
                           lambda g, r=r: span_order_mod(IntMat(g), r, budget=n)] for r in mod}
        for given, use in [(rows, readers)] + [(mod[r], mod_readers[r]) for r in mod]:
            listed = _unchanged([list(row) for row in given], use)
            assert _unchanged(tuple(map(tuple, given)), use) == listed
        howell += len(_echelon(mod[12], n, 12)[0]) > m
        mat, divs = IntMat(rows), minors_divisors(rows)
        target = [rng.randint(-6, 6) for _ in range(n)]
        assert _unchanged(mat._rows, [
            lambda _: snf_divisors(mat),
            lambda _: rank_mod_p(mat, 5),
            lambda _: span_order_mod(mat, 12),
            lambda _: lattice_index(mat),
            lambda _: row_solve(mat, target),
            lambda _: row_solve(mat, target, 12),
        ]) == [divs, len(_echelon(mod[5], n, 5)[1]), span_order_mod(IntMat(mod[12]), 12),
               prod(divs) if len(divs) == n and all(divs) else 0,
               row_solve(IntMat(rows), target), row_solve(IntMat(rows), target, 12)]
    assert howell >= 20
    # graph rows wide and sparse enough for support-span writes and copies
    # on first write: the rows the kernel wrote are lists of its own, the
    # rest are the given objects, and the given rows stay as they were
    matrix_readers = {0: [snf_divisors, lattice_index], 12: [lambda m: span_order_mod(m, 12)]}
    for graph in (grid(4, 4), hypercube(4)):
        n = graph.n
        for given in (mat._rows for mat in _graph_matrices(graph)):
            for r, uses in matrix_readers.items():
                out = _unchanged(given, [
                    lambda g: _echelon(g, n, r),
                    lambda g: _echelon(g, n, r, budget=10 * n),
                    lambda g: _echelon(g, n, r, perm=list(range(n))),
                ] + [lambda g, use=use: use(IntMat(g)) for use in uses])
                rows = out[0][0]
                assert _as_lists(out[0]) == _as_lists(echelon_full_rows(given, n, r)), (graph, r)
                assert out[1] == str(zlinalg._over_budget(10 * n))
                ids = set(map(id, given))
                assert 0 < sum(id(row) in ids for row in rows) < len(rows), (graph, r)
                assert all(type(row) is list for row in rows if id(row) not in ids)


def test_abelian_spans_and_reachability_profiles_leave_the_activation_rows_as_they_are(monkeypatch):
    for graph in (grid(3, 4), petersen()):
        act = activation_matrix(graph)
        listed = act.row_list()
        spans = _unchanged(act._rows, [lambda _: power.abelian_power_order((2, 3, 6, 12), act)])
        assert _unchanged(listed, [lambda g: power.abelian_power_order((2, 3, 6, 12), g)]) == spans
        perm = list(range(graph.n))
        _, cols = _echelon(listed, graph.n, perm=perm)
        monkeypatch.setattr(solver, "activation_matrix", lambda _: act)
        profile = _unchanged(act._rows, [lambda _: solver.reachability_profile(graph)])[0]
        assert profile.column_permutation == tuple(perm)
        assert profile.free_count + len(profile.constrained) == len(cols)


# -- the packed prime-field kernel against the list kernel ---------------------

PACKED_PRIMES = (2, 3, 5, 7, 11, 13)


def _rewrites(eliminate) -> int:
    """The smallest budget under which `eliminate(budget)` raises no
    LimitExceeded: the entries its row operations rewrite."""
    def passes(budget):
        try:
            eliminate(budget)
        except LimitExceeded:
            return False
        return True
    lo, hi = 0, 1
    while not passes(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid + 1, hi)
    return lo


def _list_row_solve(monkeypatch, mat, target, r, budget=None):
    """row_solve by the list kernel, the packed path switched off."""
    with monkeypatch.context() as m:
        m.setattr(zlinalg, "_PACKED_PRIMES", ())
        return row_solve(mat, target, r, budget)


def _random_matrices(rng, count):
    """Integer matrices with negative entries, entries off 0/1, duplicate
    and zero rows, and often more rows than columns."""
    for _ in range(count):
        m, n = rng.randint(1, 9), rng.randint(1, 6)
        rows = [[rng.randint(-20, 20) if rng.random() < 0.6 else rng.randint(0, 1)
                 for _ in range(n)] for _ in range(m)]
        rows += rng.sample(rows, rng.randint(0, m)) + [[0] * n] * rng.randint(0, 2)
        rng.shuffle(rows)
        yield IntMat(rows)


def _assert_packed_matches_list_kernel(monkeypatch, mat, p, rng):
    # the distinct rows mod p, which the packed echelon must reduce as _echelon does
    rows, n = zlinalg._distinct_mod(mat, p), mat.cols
    want_rows, want_pivots = _echelon(rows, n, p)
    got_rows, got_pivots = zlinalg._prime_echelon(zlinalg._pack(rows, p), n, n, p)
    assert got_pivots == want_pivots, (mat, p)
    assert [zlinalg._unpack(x, n, p) for x in got_rows] == [tuple(row) for row in want_rows]
    order = p ** len(want_pivots)
    assert rank_mod_p(mat, p) == len(want_pivots) and span_order_mod(mat, p) == order
    # a span's basis reads all of M's rows mod p, first entry most significant,
    # and charges the full width per reduction
    rank, spent = basis_rank_charge(mat._rows, n, p)
    assert rank == len(want_pivots)
    assert span_order_mod(mat, p, budget=spent) == order
    if spent:
        with pytest.raises(LimitExceeded, match=f"budget of {spent - 1}$"):
            span_order_mod(mat, p, budget=spent - 1)
    # a reachable target and a random one, with the identity witness columns;
    # the elimination, and so its rewrites, do not depend on the target
    reached = mat_vec([rng.randrange(p) for _ in range(mat.rows)], mat)
    spent = _rewrites(lambda b: _list_row_solve(monkeypatch, mat, [0] * n, p, b))
    for target in ([x % p for x in reached], [rng.randint(-3, 3) for _ in range(n)]):
        want = _list_row_solve(monkeypatch, mat, target, p)
        assert row_solve(mat, target, p) == want, (mat, target, p)
        assert row_solve(mat, target, p, budget=spent) == want
        if spent:
            with pytest.raises(LimitExceeded, match=f"budget of {spent - 1}$"):
                row_solve(mat, target, p, budget=spent - 1)


def test_packed_kernel_repeats_the_list_kernel_on_graph_rows(monkeypatch):
    # activation rows and both intersection row sets of every connected
    # graph to 6 vertices: the same pivots, echelon rows, solve budget stops
    # and solutions or obstructed columns as _echelon mod p, and span budget
    # stops where an independent basis puts them
    rng = random.Random(25)
    for size in range(1, 7):
        for graph in enumerate_connected_graphs(size):
            for mat in (activation_matrix(graph), ra._distinct_rows(graph, False),
                        ra._distinct_rows(graph, True)):
                for p in PACKED_PRIMES:
                    _assert_packed_matches_list_kernel(monkeypatch, mat, p, rng)


def test_packed_kernel_repeats_the_list_kernel_on_random_integer_rows(monkeypatch):
    rng = random.Random(2025)
    for mat in _random_matrices(rng, 150):
        for p in PACKED_PRIMES:
            _assert_packed_matches_list_kernel(monkeypatch, mat, p, rng)


def _assert_basis_rank_matches_the_kernels(mat, p):
    want = len(_echelon(zlinalg._distinct_mod(mat, p), mat.cols, p)[1])
    assert rank_mod_p(mat, p) == want and span_order_mod(mat, p) == p ** want, (mat, p)
    # the basis reads masks as given mod 2, and packed rows too
    assert zlinalg._basis_rank(zlinalg._packed(mat, p), mat.cols, p) == want


def test_basis_rank_matches_both_kernels_on_graph_rows():
    for size in range(1, 7):
        for graph in enumerate_connected_graphs(size):
            for mat in (activation_matrix(graph), ra._distinct_rows(graph, False),
                        ra._distinct_rows(graph, True)):
                for p in PACKED_PRIMES:
                    _assert_basis_rank_matches_the_kernels(mat, p)


def test_basis_rank_matches_both_kernels_on_random_rows():
    # masks and entries, widths past 64, entries at and above p, negative
    # entries, duplicate and zero rows, and more rows than columns
    rng = random.Random(28)
    for _ in range(120):
        m, n = rng.randint(0, 12), rng.choice([1, 2, 5, 9, 63, 64, 65, 100])
        masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m)]
        masks += rng.sample(masks, rng.randint(0, m)) + [0] * rng.randint(0, 2)
        entries = [[rng.choice([0, 1, rng.randint(-40, 40)]) for _ in range(n)] for _ in range(m)]
        for mat in (IntMat.from_masks(masks, n), IntMat(entries, n)):
            for p in PACKED_PRIMES:
                _assert_basis_rank_matches_the_kernels(mat, p)
    # the basis stops reading rows at full rank
    for p in PACKED_PRIMES:
        rows = iter(zlinalg._packed(IntMat([[1, 2, 0], [0, 1, 3], [0, 0, 1], [1, 1, 1]]), p))
        assert zlinalg._basis_rank(rows, 3, p) == 3 and len(list(rows)) == 1


def test_prime_moduli_to_13_never_reach_the_list_kernel(monkeypatch):
    # the packed path must not fall back silently: row_solve, rank_mod_p and
    # span_order_mod call _echelon at no p <= 13, and still do over Z, at
    # primes past 13 and with Howell rows: row_solve at composite moduli,
    # span_order_mod at prime powers p^k, k >= 2 (mod 4 alone for 12 = 4 * 3)
    calls = []
    echelon = zlinalg._echelon

    def spy(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("r", 0))
        return echelon(*args, **kwargs)
    monkeypatch.setattr(zlinalg, "_echelon", spy)
    mat, target = activation_matrix(grid(3, 4)), [1] * 12
    for p in PACKED_PRIMES:
        row_solve(mat, target, p)
        rank_mod_p(mat, p)
        span_order_mod(mat, p)
    assert calls == []
    for r in (0, 4, 12, 17):
        row_solve(mat, target, r)
    for r in (4, 12, 17):
        span_order_mod(mat, r)
    rank_mod_p(mat, 17)
    assert calls == [0, 4, 12, 17, 4, 4, 17, 17]


# -- support-span row operations against full-width ones ---------------------------

def _echelon_outcome(kernel, rows, n, r, perm, budget=None):
    """Echelon rows as lists, pivots and column permutation (None without
    perm mode) of `kernel`, or the message of the LimitExceeded it raised."""
    order = list(range(n)) if perm else None
    try:
        return _as_lists(kernel(rows, n, r, order, budget)), order
    except LimitExceeded as exc:
        return str(exc)


def _assert_kernels_agree(mat):
    # the rows as tuples, reduced mod r, so that writes copy them first
    n = mat.cols
    for r in (0, 4, 12, 17):
        rows = [tuple(x % r for x in row) for row in mat._rows] if r else mat._rows
        for perm in (False, True):
            want = _echelon_outcome(echelon_full_rows, rows, n, r, perm)
            assert _echelon_outcome(_echelon, rows, n, r, perm) == want, (mat, r, perm)
            spent = _rewrites(lambda b: echelon_full_rows(rows, n, r, [*range(n)] if perm else None, b))
            for budget in {spent, max(spent - 1, 0)}:
                assert (_echelon_outcome(_echelon, rows, n, r, perm, budget)
                        == _echelon_outcome(echelon_full_rows, rows, n, r, perm, budget))


def test_support_span_kernel_repeats_the_full_width_kernel_on_graph_rows():
    # activation rows and both intersection row sets of every connected
    # graph to 6 vertices, over Z and mod 4, 12 and 17, with and without
    # perm mode: the same echelon rows, pivots, permutation and budget stops
    for size in range(1, 7):
        for graph in enumerate_connected_graphs(size):
            for mat in _graph_matrices(graph):
                _assert_kernels_agree(mat)


def test_support_span_kernel_repeats_the_full_width_kernel_on_random_integer_rows():
    rng = random.Random(27)
    for mat in _random_matrices(rng, 150):
        _assert_kernels_agree(mat)


def test_smith_chain_skips_the_units_and_repeats_the_pairwise_chain():
    rng = random.Random(27)
    for _ in range(400):
        d = [rng.choice((1, 1, 1, 2, 3, 4, 6, 8, 9, 12, 25, 36, rng.randint(1, 10 ** 6)))
             for _ in range(rng.randint(0, 16))]
        want, got = list(d), list(d)
        smith_chain_pairwise(want)
        zlinalg._smith_chain(got)
        assert got == want, d
        assert all(b % a == 0 for a, b in zip(got, got[1:]))


def test_the_largest_smith_pass_of_grid16x16_charges_what_full_width_rows_charged():
    # each row operation charges the full row width, however few entries it
    # writes, so RA_TEST_BUDGET stops where the full-width kernel stopped:
    # grid16x16's largest Smith pass rewrote 1151232 entries with it
    mat = activation_matrix(grid(16, 16))
    assert snf_divisors(mat, budget=1151232) == snf_divisors(mat)
    with pytest.raises(LimitExceeded, match="budget of 1151231$"):
        snf_divisors(mat, budget=1151231)


# -- matrices of masks -------------------------------------------------------------

def _tuple_builds(monkeypatch) -> list:
    """Record each matrix of masks as its entry tuples are built, on the
    first read of `_rows`."""
    built = []
    build = IntMat.__getattr__

    def spy(self, name):
        if name == "_rows":
            built.append(self)
        return build(self, name)
    monkeypatch.setattr(IntMat, "__getattr__", spy)
    return built


def test_span_mod_a_composite_is_the_product_of_the_spans_mod_its_prime_powers():
    # by the CRT, span_order_mod reads the spans mod 2, 3, 4 and 5 (the
    # packed basis at 2, 3 and 5); the Howell form mod r itself, the route
    # it replaced, is the oracle
    for n in range(1, 7):
        for graph in enumerate_connected_graphs(n):
            for mat in _graph_matrices(graph):
                for r in (6, 10, 12, 15, 30):
                    rows, pivots = _echelon([[x % r for x in row] for row in mat._rows], n, r)
                    assert span_order_mod(mat, r) == \
                        prod(r // rows[i][c] for i, c in enumerate(pivots)), (graph.edges, r)


def _graph_matrices(graph):
    """Activation rows and both intersection row sets, each built from masks."""
    return [activation_matrix(graph), ra._distinct_rows(graph, False),
            ra._distinct_rows(graph, True)]


def test_mask_rows_reach_the_packed_kernel_with_no_tuples(monkeypatch):
    # at p <= 13 rank, span and row_solve read a matrix of masks from its
    # masks, and mat_vec adds along their set bits: no entry tuple is built
    built = _tuple_builds(monkeypatch)
    for graph in (grid(3, 4), petersen(), hypercube(4)):
        for mat in _graph_matrices(graph):
            target = mat_vec(range(mat.rows), mat)
            for p in PACKED_PRIMES:
                rank_mod_p(mat, p)
                span_order_mod(mat, p, budget=10 ** 6)
                assert row_solve(mat, [x % p for x in target], p)[1] is None
    assert built == []


def test_list_readers_build_the_tuples_of_a_mask_matrix_once(monkeypatch):
    # over Z, mod 12 and mod 17 the list kernel reads entry tuples: the
    # first reader builds them and every later one reads the same tuples
    built = _tuple_builds(monkeypatch)
    graph = grid(3, 4)
    target = [1] * graph.n
    readers = {0: [lattice_index, snf_divisors, lambda m: row_solve(m, target)],
               12: [lambda m: span_order_mod(m, 12), lambda m: row_solve(m, target, 12)],
               17: [lambda m: rank_mod_p(m, 17), lambda m: span_order_mod(m, 17),
                    lambda m: row_solve(m, target, 17)]}
    for r, uses in readers.items():
        for mat in _graph_matrices(graph):
            built.clear()
            for use in uses:
                use(mat)
            assert sum(m is mat for m in built) == 1, r
    # a matrix of entries holds its tuples from the start
    mat = IntMat(activation_matrix(graph).row_list())
    built.clear()
    lattice_index(mat)
    span_order_mod(mat, 12)
    assert built == []


def test_a_matrix_of_entries_is_reduced_mod_r_and_asked_whether_it_is_zero_one():
    # only a matrix of masks skips the reduction mod r; whether a matrix is
    # 0/1 (so matrix_power clicks with generators only) is IntMat's answer
    # for masks and entries alike
    mat = IntMat([[1, 0], [2, 1]])
    assert not mat._zero_one and rank_mod_p(mat, 2) == 2 and span_order_mod(mat, 12) == 144
    assert rank_mod_p(IntMat([[3, 0], [0, 6]]), 3) == 0 == rank_mod_p(IntMat([[2, 4]]), 2)
    assert rank_mod_p(IntMat([[17, 34]]), 17) == 0 and span_order_mod(IntMat([[13, -1]]), 12) == 12
    assert row_solve(IntMat([[3, 1]]), [0, 1], 3) == ((1,), None)
    assert IntMat([[1, 0], [1, 1]])._zero_one and activation_matrix(petersen())._zero_one
    assert power.matrix_power(symmetric(7), [[1]]).order() == 5040
    with pytest.raises(LimitExceeded):
        power.matrix_power(symmetric(7), [[2]])


def _outcomes(mat, targets):
    """Rank, span, lattice index, Smith divisors, row solutions and mat_vec
    of `mat`, each under a budget: an answer or the LimitExceeded message."""
    def outcome(f):
        try:
            return f()
        except LimitExceeded as exc:
            return str(exc)
    budget = 1 << 18
    out = [outcome(lambda: rank_mod_p(mat, p)) for p in PACKED_PRIMES + (17,)]
    out += [outcome(lambda: span_order_mod(mat, r, budget)) for r in (2, 3, 4, 12, 13, 17)]
    out += [outcome(lambda: lattice_index(mat, budget)), outcome(lambda: snf_divisors(mat, budget))]
    for coefficients, target in targets:
        out.append(mat_vec(coefficients, mat))
        out += [outcome(lambda: row_solve(mat, [x % r for x in target] if r else target, r,
                                          budget)) for r in (0, 2, 3, 12, 13, 17)]
    return out


def _assert_masks_match_entries(build, rng):
    # `build` makes a fresh matrix of masks; its entries, copied into a
    # matrix of entries, take the list path through _pack and _echelon
    mat = build()
    reached = mat_vec([rng.randint(-2, 2) for _ in range(mat.rows)], mat)
    targets = [([rng.randint(-3, 3) for _ in range(mat.rows)], target)
               for target in (reached, [rng.randint(-3, 3) for _ in range(mat.cols)])]
    assert _outcomes(mat, targets) == _outcomes(IntMat(build().row_list(), cols=mat.cols), targets)


def test_matrices_of_masks_answer_as_their_entries_on_every_small_graph():
    rng = random.Random(26)
    for size in range(1, 7):
        for graph in enumerate_connected_graphs(size):
            for k in range(3):
                _assert_masks_match_entries(lambda: _graph_matrices(graph)[k], rng)


def test_matrices_of_masks_answer_as_their_entries_on_random_graphs():
    rng = random.Random(2026)
    for _ in range(6):
        n, q = rng.randint(20, 60), rng.uniform(0.05, 0.3)
        graph = Graph(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < q])
        for k in range(3):
            _assert_masks_match_entries(lambda: _graph_matrices(graph)[k], rng)
