import json
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from graphpower.errors import (
    IndexOutOfRange,
    InvalidParameter,
    LimitExceeded,
    MalformedGraph6,
    SelfLoopRejected,
    SpecParseError,
)
from graphpower import ra
from graphpower.graphs import (
    FAMILIES,
    MAX_EDGES,
    MAX_VERTICES,
    Classification,
    Graph,
    _canonical_search,
    _level,
    canonical_certificate,
    canonical_form,
    classify,
    closed_neighborhood,
    complete,
    complete_bipartite,
    components,
    cycle,
    enumerate_connected_graphs,
    folded_cube,
    from_json,
    girth,
    graph6_decode,
    has_square_completion,
    graph6_encode,
    grid,
    hypercube,
    is_isomorphic,
    make_family,
    parse_graph_spec,
    path,
    petersen,
    reduce_indistinguishable,
    star,
    tadpole,
    to_dot,
    to_json,
    triangle_strip,
    wheel,
)

from graphpower.perm import PermGroup

from oracles import (
    augmented_classes_by_edge_lists,
    canonical_certificate_bruteforce,
    canonical_form_by_piece_lists,
    complete_bipartition_by_colouring,
    components_by_search,
    connected_classes_bruteforce,
    connected_counts_by_euler_transform,
    disjoint_union,
    girth_per_edge,
    graph6_decode_by_pairs,
    graph6_encode_by_pairs,
    level_by_piece_lists,
    pqr_criterion_by_distances,
    reduce_indistinguishable_by_sets,
    relabel,
    square_completion_by_paths,
)


def random_graph(draw):
    n = draw(st.integers(1, 6))
    nbits = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << nbits) - 1))
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            if mask >> bit & 1:
                edges.append((i, j))
            bit += 1
    return Graph(n, edges)


graphs = st.composite(random_graph)()


def test_build_graph_fixtures():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert p3 == path(3)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4 == cycle(4)
    k1 = Graph(1, [])
    assert k1.n == 1 and not k1.edges


def test_build_graph_errors():
    with pytest.raises(IndexOutOfRange):
        Graph(3, [(0, 3)])
    with pytest.raises(SelfLoopRejected):
        Graph(3, [(1, 1)])
    # duplicates collapse silently
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert len(g.edges) == 1


def test_family_fixtures():
    st3 = star(3)
    assert st3.n == 4 and st3.degree(0) == 3
    assert make_family("star", 3) == st3
    assert folded_cube(2) == complete(2)
    assert is_isomorphic(folded_cube(3), complete(4))
    assert tadpole(4, 1).n == 5
    assert grid(2, 3).n == 6
    assert petersen().n == 10 and all(petersen().degree(v) == 3 for v in range(10))
    w = wheel(6)
    assert w.degree(5) == 5 and all(w.degree(v) == 3 for v in range(5))
    ts = triangle_strip(5)
    assert classify(ts).girth == 3
    with pytest.raises(InvalidParameter):
        cycle(2)
    with pytest.raises(InvalidParameter):
        make_family("wheel", 3)
    with pytest.raises(InvalidParameter):
        make_family("nonsense", 1)


def test_hypercube_matches_two_squares_plus_matching():
    adjacency_lists = [[2, 4, 5], [1, 3, 6], [2, 4, 7], [1, 3, 8],
                       [1, 6, 8], [2, 5, 7], [3, 6, 8], [4, 5, 7]]
    edges = [(i, j - 1) for i, nbrs in enumerate(adjacency_lists) for j in nbrs]
    assert is_isomorphic(hypercube(3), Graph(8, edges))
    q3 = hypercube(3)
    assert closed_neighborhood(q3, 0) == {0, 1, 2, 4}


def test_closed_neighborhood_fixtures():
    c4 = cycle(4)
    assert closed_neighborhood(c4, 0) == {0, 1, 3}
    k4 = complete(4)
    for v in range(4):
        assert closed_neighborhood(k4, v) == {0, 1, 2, 3}
    assert closed_neighborhood(complete(1), 0) == {0}
    with pytest.raises(IndexOutOfRange):
        closed_neighborhood(c4, 7)


@settings(max_examples=50, deadline=None)
@given(graphs)
def test_vertex_in_own_neighborhood(g):
    for v in range(g.n):
        assert v in closed_neighborhood(g, v)


def test_classify_fixtures():
    q3 = classify(hypercube(3))
    assert q3.girth == 4 and q3.square_completion
    g23 = classify(grid(2, 3))
    assert g23.girth == 4 and not g23.square_completion
    p5 = classify(path(5))
    assert p5.connected and math.isinf(p5.girth)
    assert classify(complete_bipartite(3, 4)).square_completion
    assert classify(complete(4)).girth == 3
    assert not classify(complete(4)).nbhd_distinguishable
    assert classify(cycle(5)).nbhd_distinguishable
    two_parts = classify(disjoint_union(path(2), path(3)))
    assert not two_parts.connected and len(two_parts.components) == 2


@settings(max_examples=50, deadline=None)
@given(graphs)
def test_girth5_blocks_square_completion(g):
    cls = classify(g)
    has_3path = any(g.degree(v) >= 2 for v in range(g.n))
    if cls.girth >= 5 and has_3path:
        assert not cls.square_completion


def test_girth_matches_per_edge_oracle():
    fixtures = [hypercube(3), hypercube(4), folded_cube(5), petersen(), cycle(3), cycle(12),
                grid(3, 5), complete_bipartite(3, 4), wheel(6), triangle_strip(6),
                tadpole(5, 2), star(4), path(6), disjoint_union(cycle(7), cycle(5))]
    for n in range(1, 8):
        fixtures.extend(enumerate_connected_graphs(n))
    for g in fixtures:
        assert girth(g) == girth_per_edge(g), g
    start = time.perf_counter()
    assert girth(complete(362)) == 3
    assert time.perf_counter() - start < 0.5
    for forest in [path(4096), star(4095)]:
        start = time.perf_counter()
        assert girth(forest) == math.inf
        assert time.perf_counter() - start < 0.5
    # one search finds a long cycle, which then peels away
    for g, length in [(cycle(4096), 4096), (tadpole(2000, 5), 2000)]:
        start = time.perf_counter()
        assert girth(g) == length
        assert time.perf_counter() - start < 1


def test_square_completion_matches_path_oracle():
    fixtures = [hypercube(3), hypercube(4), folded_cube(5), petersen(), cycle(4), cycle(6),
                grid(3, 5), complete_bipartite(3, 4), complete_bipartite(2, 3), wheel(6),
                complete(5), star(4), path(6), disjoint_union(cycle(4), complete(4))]
    for n in range(1, 8):
        fixtures.extend(enumerate_connected_graphs(n))
    verdicts = set()
    for g in fixtures:
        verdict = has_square_completion(g)
        assert verdict == square_completion_by_paths(g), g
        verdicts.add(verdict)
    assert verdicts == {True, False}
    start = time.perf_counter()
    assert classify(complete(362)).square_completion
    assert time.perf_counter() - start < 0.5


def test_reduce_indistinguishable():
    assert reduce_indistinguishable(complete(4)).n == 1
    assert reduce_indistinguishable(cycle(5)) == cycle(5)
    assert reduce_indistinguishable(cycle(4)) == cycle(4)  # K_{2,2}


@settings(max_examples=50, deadline=None)
@given(graphs)
def test_reduce_indistinguishable_idempotent(g):
    reduced = reduce_indistinguishable(g)
    assert reduce_indistinguishable(reduced) == reduced
    from graphpower.graphs import is_neighborhood_distinguishable
    assert is_neighborhood_distinguishable(reduced)


def test_reduce_order_invariance():
    # delete in scrambled orders by relabeling first; certificates must agree
    g = complete(5)
    base = canonical_certificate(reduce_indistinguishable(g))
    rng = random.Random(3)
    for _ in range(6):
        perm = list(range(g.n))
        rng.shuffle(perm)
        alt = reduce_indistinguishable(relabel(g, perm))
        assert canonical_certificate(alt) == base


def test_mask_readers_match_the_edge_list_oracles(monkeypatch):
    rng = random.Random(29)
    pool = []
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            pool += [g, relabel(g, perm)]
    pool += [hypercube(3), hypercube(4), hypercube(5), folded_cube(5), petersen(), star(5),
             complete_bipartite(3, 4), complete_bipartite(4, 4), grid(4, 5), cycle(6), wheel(6)]
    shuffled = rng.sample(pool, len(pool))
    unions = []
    for a, b in zip(shuffled[::2], shuffled[1::2]):
        union = disjoint_union(a, b)
        perm = list(range(union.n))
        rng.shuffle(perm)
        unions.append(relabel(union, perm))
    assert any(len(components(g)) == 2 for g in unions)
    for g in pool + unions:
        assert components(g) == components_by_search(g), g

    with monkeypatch.context() as patch:
        patch.setattr(ra, "_complete_bipartition", complete_bipartition_by_colouring)
        hints = [ra.structural_ra_hints(g) for g in pool]
    pqr_verdicts, bipartitions = set(), set()
    for g, want_hints in zip(pool, hints):
        listed = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        listed += listed[:2]  # duplicates count once
        rng.shuffle(listed)
        h = Graph(g.n, listed)
        assert h == g and hash(h) == hash(g)
        assert h.edges == {(min(e), max(e)) for e in listed}
        if listed:
            assert Graph(g.n, sorted(g.edges)[1:]) != g
        for v in range(g.n):
            nbrs = {u for e in listed if v in e for u in e if u != v}
            assert h.neighbors(v) == nbrs and h.degree(v) == len(nbrs)
            assert [h.has_edge(v, w) for w in range(g.n)] == [w in nbrs for w in range(g.n)]

        assert reduce_indistinguishable(g) == reduce_indistinguishable_by_sets(g), g
        comps = components_by_search(g)
        degrees = sorted((len(g.neighbors(v)) for v in range(g.n)), reverse=True)
        assert classify(g) == Classification(
            connected=len(comps) == 1, components=comps, girth=girth_per_edge(g),
            nbhd_distinguishable=reduce_indistinguishable_by_sets(g).n == g.n,
            square_completion=square_completion_by_paths(g), degree_sequence=tuple(degrees))
        for p in (2, 3, 5, 7):
            verdict = ra.pqr_criterion(g, p)
            assert verdict == pqr_criterion_by_distances(g, p), (g, p)
            pqr_verdicts.add(verdict)
        parts = ra._complete_bipartition(g)
        assert parts == complete_bipartition_by_colouring(g), g
        bipartitions.add(parts is not None)
        assert ra.structural_ra_hints(g) == want_hints, g
    assert pqr_verdicts == bipartitions == {True, False}


def test_enumerate_counts_match_frozen_and_oracles():
    frozen = (1, 1, 2, 6, 21, 112)
    for n, want in enumerate(frozen, start=1):
        got = sum(1 for _ in enumerate_connected_graphs(n))
        assert got == want
    for n in range(1, 6):
        assert connected_classes_bruteforce(n) == frozen[n - 1]
    assert connected_counts_by_euler_transform(7) == [1, 1, 2, 6, 21, 112, 853]


@pytest.mark.slow
def test_enumerate_eight_vertices():
    assert sum(1 for _ in enumerate_connected_graphs(8)) == 11117


def test_enumerate_yields_connected_nonisomorphic_canonical():
    seen = set()
    for g in enumerate_connected_graphs(5):
        assert classify(g).connected
        cert = canonical_certificate(g)
        assert cert not in seen
        seen.add(cert)
        # representatives are already canonically labeled
        assert canonical_form(g)[1] == list(range(g.n))
    with pytest.raises(LimitExceeded):
        next(enumerate_connected_graphs(9))
    with pytest.raises(InvalidParameter):
        next(enumerate_connected_graphs(0))


def _assert_level_matches_the_edge_list_oracle(n):
    """_level(n) holds the oracle's classes, sorted by certificate, with the
    same labels; the generators may differ but must be automorphisms that
    generate a group of the oracle's order."""
    def fields(g):
        return g.n, g.edges, g._masks, graph6_encode(g)

    theirs = sorted(augmented_classes_by_edge_lists(n), key=lambda c: canonical_certificate(c[0]))
    assert [fields(g) for g in enumerate_connected_graphs(n)] == [fields(g) for g, _ in theirs]
    for (cert, _, gens), (g, their_gens) in zip(_level(n), theirs):
        assert cert == canonical_certificate(g)
        assert all(relabel(g, a) == g for a in gens)
        assert PermGroup(n, gens).order() == PermGroup(n, their_gens).order()


def test_enumeration_matches_the_edge_list_oracle():
    for n in range(1, 8):
        _assert_level_matches_the_edge_list_oracle(n)


@pytest.mark.slow
def test_enumeration_matches_the_edge_list_oracle_at_eight_vertices():
    _assert_level_matches_the_edge_list_oracle(8)


def test_levels_equal_the_piece_list_augmentation():
    # in-place refinement, degrees from the parent, orbit image tables and
    # canonical masks by position bits change no class, label or generator
    for n in range(1, 8):
        assert _level(n) == level_by_piece_lists(n), n


@pytest.mark.slow
def test_levels_equal_the_piece_list_augmentation_at_eight_vertices():
    assert _level(8) == level_by_piece_lists(8)


def test_enumeration_searches_about_once_per_class(monkeypatch):
    """Canonical augmentation rejects most duplicate children before their
    canonical search: levels 2..7 hold 995 classes, and search-then-dedupe
    runs 4159 searches for them."""
    import graphpower.graphs as graphs

    calls = []

    def counting(n, masks):
        calls.append(n)
        return _canonical_search(n, masks)

    monkeypatch.setattr(graphs, "_canonical_search", counting)
    _level.cache_clear()
    assert sum(len(_level(n)) for n in range(2, 8)) == 995
    assert len(calls) < 1.5 * 995


def _identity_codes(g):
    return tuple(sum(g.has_edge(i, j) << (j - 1 - i) for i in range(j)) for j in range(g.n))


def _canonical_form_pool():
    """Every connected graph to 6 vertices, three relabelings and one edge
    flip of each, and 300 G(n, 1/2) graphs on 2 to 9 vertices with one
    relabeling each."""
    rng = random.Random(11)
    pool = []
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            pool.append(g)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                pool.append(relabel(g, perm))
            if n > 1:
                i, j = sorted(rng.sample(range(n), 2))
                pool.append(Graph(n, g.edges ^ {(i, j)}))
    # G(n, 1/2): the oracle visits all n! orders of an empty or complete graph
    for _ in range(300):
        n = rng.randint(2, 9)
        g = Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])
        perm = list(range(n))
        rng.shuffle(perm)
        pool.extend([g, relabel(g, perm)])
    return pool


def test_canonical_form_matches_bruteforce_oracle():
    ours, theirs = {}, {}
    for g in _canonical_form_pool():
        cert, placement = canonical_form(g)
        oracle = canonical_certificate_bruteforce(g)
        # equal certificates exactly when the oracle's are equal
        assert ours.setdefault(cert, oracle) == oracle
        assert theirs.setdefault(oracle, cert) == cert
        assert cert == (g.n, _identity_codes(relabel(g, placement)))


def test_canonical_form_equals_the_piece_list_search():
    for g in _canonical_form_pool() + [complete(16)]:
        assert canonical_form(g) == canonical_form_by_piece_lists(g), g


def _cayley_z4z4(steps):
    def index(a, b):
        return 4 * (a % 4) + b % 4
    return Graph(16, [(index(a, b), index(a + x, b + y))
                      for a in range(4) for b in range(4) for x, y in steps])


def test_automorphism_generators():
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            for a in _canonical_search(g.n, g._masks)[2]:
                assert {tuple(sorted((a[u], a[v]))) for u, v in g.edges} == g.edges
    for g, order in ((complete(6), 720), (cycle(8), 16), (petersen(), 120), (hypercube(3), 48)):
        gens = _canonical_search(g.n, g._masks)[2]
        for a in gens:
            assert {tuple(sorted((a[u], a[v]))) for u, v in g.edges} == g.edges
        assert PermGroup(g.n, gens).order() == order
    # one path per level instead of the 16! orders a plain search visits
    assert canonical_certificate(complete(16)) == (16, tuple((1 << j) - 1 for j in range(16)))


def test_canonical_form_on_symmetric_graphs():
    # the 4x4 rook's graph and the Shrikhande graph share the parameters
    # (16, 6, 2, 2) of a strongly regular graph but are not isomorphic
    rook = _cayley_z4z4([(d, 0) for d in (1, 2, 3)] + [(0, d) for d in (1, 2, 3)])
    shrikhande = _cayley_z4z4([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])
    paley13 = Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)
                         if (j - i) % 13 in (1, 3, 4, 9, 10, 12)])
    fixtures = ((petersen(), 120), (hypercube(4), 384), (complete_bipartite(4, 4), 1152),
                (cycle(12), 24), (grid(4, 4), 8), (rook, 1152), (shrikhande, 192),
                (paley13, 78), (folded_cube(5), 1920))
    rng = random.Random(5)
    certs = set()
    for g, order in fixtures:
        cert = canonical_certificate(g)
        certs.add(cert)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            got, placement, gens = _canonical_search(h.n, h._masks)
            assert got == cert
            assert got == (h.n, _identity_codes(relabel(h, placement)))
            assert PermGroup(h.n, gens, max_order=None).order() == order
    assert len(certs) == len(fixtures)


def test_size_caps():
    with pytest.raises(LimitExceeded):
        Graph(MAX_VERTICES + 1, [])
    with pytest.raises(LimitExceeded):
        Graph(400, ((i, j) for j in range(400) for i in range(j)))
    assert hypercube(12).n == MAX_VERTICES
    assert len(complete(362).edges) <= MAX_EDGES
    for build in (lambda: hypercube(13), lambda: folded_cube(14), lambda: complete(363),
                  lambda: grid(65, 64), lambda: path(MAX_VERTICES + 1),
                  lambda: complete_bipartite(2, 40000), lambda: star(MAX_VERTICES)):
        with pytest.raises(LimitExceeded):
            build()


@settings(max_examples=40, deadline=None)
@given(graphs, st.randoms(use_true_random=False))
def test_certificate_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_certificate(relabel(g, perm)) == canonical_certificate(g)


def test_graph6_fixtures():
    assert graph6_encode(complete(1)) == "@"
    assert graph6_encode(complete(2)) == "A_"
    c4 = cycle(4)
    assert graph6_decode(graph6_encode(c4)) == c4
    assert graph6_decode(">>graph6<<A_") == complete(2)


def test_graph6_roundtrip_over_enumeration():
    for g in enumerate_connected_graphs(5):
        s = graph6_encode(g)
        assert s[0] == "D"
        back = graph6_decode(s)
        assert back == g
        assert graph6_encode(back) == s


def test_graph6_large_n_form():
    g = path(63)
    s = graph6_encode(g)
    assert s.startswith("~")
    assert graph6_decode(s) == g


def test_graph6_malformed():
    with pytest.raises(MalformedGraph6):
        graph6_decode("")
    with pytest.raises(MalformedGraph6):
        graph6_decode("C")  # truncated data
    with pytest.raises(MalformedGraph6):
        graph6_decode("C~~~")  # too much data
    with pytest.raises(MalformedGraph6):
        graph6_decode("B\x19")  # byte below offset
    with pytest.raises(MalformedGraph6):
        graph6_decode("A" + chr(63 + 16))  # nonzero padding for n=2
    with pytest.raises(MalformedGraph6, match="outside graph6 range"):
        graph6_decode("A\x7f")  # byte above chr(126)
    with pytest.raises(MalformedGraph6, match="outside graph6 range"):
        graph6_decode("A\u00e9")  # not ASCII
    with pytest.raises(MalformedGraph6, match="expected 326 data bytes, got 0"):
        graph6_decode("~??~")  # a 4-byte size field (n = 63) with no data
    with pytest.raises(MalformedGraph6, match="truncated size field"):
        graph6_decode("~~???")  # an 8-byte size field cut short


def _random_graph(rng, n):
    p = rng.random()
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_graph6_matches_the_pair_oracle():
    # byte-identical to the encoder that packs one vertex pair at a time, on
    # every connected graph to 7 vertices and on random graphs across the
    # switch to the 4-character size field at 63 vertices
    rng = random.Random(20261020)
    pool = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    pool += [_random_graph(rng, rng.randint(1, 130)) for _ in range(200)]
    assert any(g.n >= 63 for g in pool)
    for g in pool:
        s = graph6_encode(g)
        assert s == graph6_encode_by_pairs(g), g
        assert graph6_decode(s) == graph6_decode_by_pairs(s) == g


@pytest.mark.slow
def test_graph6_matches_the_pair_oracle_on_every_family_at_its_cap():
    # 4096 vertices (8386560 vertex pairs) or 65536 edges; a valid graph6
    # string names one graph, so the round trip checks the decoder
    caps = {"path": (4096,), "cycle": (4096,), "complete": (362,),
            "complete_bipartite": (16, 4080), "star": (4095,), "hypercube": (12,),
            "folded_cube": (13,), "wheel": (4096,), "grid": (64, 64), "tadpole": (4093, 3),
            "petersen": (), "triangle_strip": (4096,)}
    assert caps.keys() == FAMILIES.keys()
    for family, params in caps.items():
        g = make_family(family, *params)
        s = graph6_encode(g)
        assert s == graph6_encode_by_pairs(g), family
        assert graph6_decode(s) == g, family


def test_graph6_decode_fuzz_matches_the_pair_oracle():
    # short strings near the graph6 alphabet: the same graph or
    # MalformedGraph6 as the pair decoder, and nothing else. The fixed cases
    # take the 4- and 8-character size fields for one vertex
    def outcome(decode, text):
        try:
            return decode(text)
        except MalformedGraph6 as exc:
            return str(exc)

    rng = random.Random(6)
    near = [chr(c) for c in range(58, 131)] + [" ", "\n", "\u00e9", "\udcff", ">>graph6<<"]
    texts = ["~??@", "~~?????@", "~~?????@?", ">>graph6<<@", " A_\n"]
    for _ in range(24000):
        k = rng.randint(0, 10)
        if rng.random() < 0.5:
            texts.append("".join(chr(rng.randint(63, 126)) for _ in range(k)))
        else:
            texts.append("".join(rng.choice(near) for _ in range(k)))
    decoded = 0
    for text in texts:
        want = outcome(graph6_decode_by_pairs, text)
        assert outcome(graph6_decode, text) == want, text
        decoded += isinstance(want, Graph)
    assert decoded > 100


def test_dot_and_json():
    c4 = cycle(4)
    dot = to_dot(c4)
    assert "0 -- 1" in dot and dot.startswith("graph G {")
    obj = to_json(c4)
    assert from_json(json.loads(json.dumps(obj))) == c4


def test_parse_graph_spec(tmp_path):
    assert parse_graph_spec("P5") == path(5)
    assert parse_graph_spec("C4") == cycle(4)
    assert parse_graph_spec("K5") == complete(5)
    assert parse_graph_spec("K2,3") == complete_bipartite(2, 3)
    assert parse_graph_spec("St3") == star(3)
    assert parse_graph_spec("Q3") == hypercube(3)
    assert parse_graph_spec("FQ5") == folded_cube(5)
    assert parse_graph_spec("W6") == wheel(6)
    assert parse_graph_spec("T4,1") == tadpole(4, 1)
    assert parse_graph_spec("TS6") == triangle_strip(6)
    assert parse_graph_spec("grid5x5") == grid(5, 5)
    assert parse_graph_spec("petersen") == petersen()
    assert parse_graph_spec("g6:" + graph6_encode(cycle(4))) == cycle(4)
    target = tmp_path / "g.json"
    target.write_text(json.dumps(to_json(cycle(5))))
    assert parse_graph_spec("@" + str(target)) == cycle(5)
    with pytest.raises(SpecParseError) as exc:
        parse_graph_spec("X9")
    assert "X9" in str(exc.value)
    with pytest.raises(SpecParseError):
        parse_graph_spec("C2")  # below family minimum
