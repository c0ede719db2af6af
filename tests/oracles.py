"""Independent oracles for cross-checking the package's main routes.

Nothing here imports the implementation modules under test beyond basic
types: each oracle recomputes its answer from first principles (minors,
plain elimination, exhaustive search) so the two sides genuinely disagree
when one is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, gcd, prod


# -- determinants and gcd-of-minors divisors -----------------------------------

def det_exact(rows) -> int:
    """Fraction-based Gaussian elimination; exact for integer input."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    assert det.denominator == 1
    return int(det)


def minors_divisors(rows) -> tuple:
    """Elementary divisors via d_i = gcd of i x i minors, a_i = d_i/d_{i-1}.

    Exponential in the matrix size; keep inputs at most ~5x5.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    k = min(m, n)
    out = []
    d_prev = 1
    for size in range(1, k + 1):
        g = 0
        for rsel in combinations(range(m), size):
            for csel in combinations(range(n), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, det_exact(sub))
        if g == 0:
            out.extend([0] * (k - size + 1))
            break
        out.append(g // d_prev)
        d_prev = g
    return tuple(out)


# -- Hermite normal form and the reachability profile --------------------------

def hnf(rows, nice: bool = False) -> tuple:
    """(U, H, perm) with U unimodular and U M == H, M the rows with their
    columns permuted by perm (the identity unless nice).

    H is the row Hermite normal form: positive pivots moving strictly right,
    entries above each pivot reduced into [0, pivot), zero rows last. Column
    c is cleared by Euclid's algorithm on its entries: the row with the
    smallest one moves up, and the others are reduced modulo it. With nice,
    each step first brings forward the remaining column whose entries below
    the pivots have the smallest nonzero gcd (the first such), so the pivots
    read 1, ..., 1 and then ascend."""
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    perm = list(range(n))
    top = 0
    for c in range(n):
        if top == m:
            break
        if nice:
            gcds = []
            for k in range(c, n):
                g = 0
                for i in range(top, m):
                    g = gcd(g, a[i][k])
                if g:
                    gcds.append((g, k))
            if not gcds:
                break
            k = min(gcds)[1]
            for row in a:
                row[c], row[k] = row[k], row[c]
            perm[c], perm[k] = perm[k], perm[c]
        while True:
            live = [i for i in range(top, m) if a[i][c]]
            if not live:
                break
            i = min(live, key=lambda i: abs(a[i][c]))
            a[top], a[i] = a[i], a[top]
            if len(live) == 1:
                break
            for i in range(top + 1, m):
                q = a[i][c] // a[top][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
        if a[top][c] == 0:
            continue
        if a[top][c] < 0:
            a[top] = [-x for x in a[top]]
        for k in range(top):
            q = a[k][c] // a[top][c]
            a[k] = [x - q * y for x, y in zip(a[k], a[top])]
        top += 1
    return [row[n:] for row in a], [row[:n] for row in a], tuple(perm)


def reachability_profile_by_hnf(g) -> tuple:
    """(free count, (vertex, pivot) pairs with pivot > 1, fixed count,
    column permutation) from the nice Hermite form of the activation rows."""
    _, H, perm = hnf(activation_rows_by_sets(g), nice=True)
    pivots = [next((c, x) for c, x in enumerate(row) if x) for row in H if any(row)]
    free = sum(1 for _, x in pivots if x == 1)
    constrained = tuple((perm[c], x) for c, x in pivots if x > 1)
    return free, constrained, g.n - free - len(constrained), perm


# -- GF(p) elimination ----------------------------------------------------------

def gfp_rank(rows, p: int) -> int:
    a = [[x % p for x in row] for row in rows]
    if not a:
        return 0
    n = len(a[0])
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def gfp_solvable(A_rows, target, p: int) -> bool:
    """Is there c with c . A == target (mod p)? Solved on the transpose."""
    m = len(A_rows)
    n = len(A_rows[0])
    aug = [[A_rows[i][j] % p for i in range(m)] + [target[j] % p] for j in range(n)]
    rank_a = gfp_rank([row[:-1] for row in aug], p)
    rank_aug = gfp_rank(aug, p)
    return rank_a == rank_aug


# -- exhaustive lattice membership ----------------------------------------------

def lattice_member_bruteforce(rows, target, bound: int) -> bool:
    """Search coefficient vectors with entries in [-bound, bound]."""
    m = len(rows)
    n = len(rows[0])
    for coeffs in product(range(-bound, bound + 1), repeat=m):
        vec = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                for j, x in enumerate(row):
                    vec[j] += c * x
        if vec == list(target):
            return True
    return False


def rational_rank(rows) -> int:
    """Rank over Q by Fraction-based elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def nonsingular_row_subset(rows) -> list:
    """A maximal linearly independent subset of rows, greedily in order:
    each row is reduced over Q against the rows kept so far (each of which
    vanishes on the earlier pivots) and kept when something is left."""
    basis = {}  # pivot column -> reduced row
    kept = []
    for row in rows:
        v = [Fraction(x) for x in row]
        for c, b in basis.items():
            if v[c]:
                f = v[c] / b[c]
                v = [x - f * y for x, y in zip(v, b)]
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is not None:
            basis[pivot] = v
            kept.append(list(row))
    return kept


def prime_factors(n: int) -> list:
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


@lru_cache(maxsize=64)
def reachable_mod(rows: tuple, r: int) -> frozenset:
    """Every c . rows mod r over c in (Z/r)^m."""
    n = len(rows[0])
    return frozenset(
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % r for j in range(n))
        for coeffs in product(range(r), repeat=len(rows)))


def modular_obstruction_bruteforce(rows, target, r: int):
    """Enumerate every c in (Z/r)^m. None when some c . rows == target
    (mod r); otherwise the first column j such that no reachable state
    agrees with the target on columns 0..j."""
    n = len(rows[0])
    reached = reachable_mod(tuple(map(tuple, rows)), r)
    goal = tuple(t % r for t in target)
    if goal in reached:
        return None
    return next(j for j in range(n)
                if not any(s[:j + 1] == goal[:j + 1] for s in reached))


def lattice_member_exact(rows, target) -> bool:
    """Is target in the row lattice L of rows? With d the last nonzero
    gcd-of-minors divisor of L, target is in L exactly when it lies in the
    rational span of L and in L + d Z^n (decided exhaustively mod d)."""
    nonzero = [d for d in minors_divisors(rows) if d]
    if rational_rank(list(rows) + [list(target)]) != len(nonzero):
        return False
    return modular_obstruction_bruteforce(rows, target, nonzero[-1] if nonzero else 1) is None


# -- girth ----------------------------------------------------------------------

def girth_per_edge(g) -> float:
    """Length of a shortest cycle (inf for forests): for each edge uv, the
    shortest cycle through it is 1 + the distance from u to v without it."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    best = float("inf")
    for u, v in g.edges:
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if b not in dist and (a, b) != (u, v):
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


# -- labeled-graph census oracles -------------------------------------------------

def _connected_mask(n: int, mask: int) -> bool:
    adj = [0] * n
    bit = 0
    for j in range(1, n):
        for i in range(j):
            if mask >> bit & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit += 1
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        rest = adj[v] & ~seen
        while rest:
            w = (rest & -rest).bit_length() - 1
            seen |= 1 << w
            frontier.append(w)
            rest &= rest - 1
    return seen == (1 << n) - 1


def connected_classes_bruteforce(n: int) -> int:
    """Count connected isomorphism classes by sweeping every labeled graph
    and flooding each isomorphism orbit. Practical through n = 6."""
    if n == 1:
        return 1
    nbits = n * (n - 1) // 2
    pair_index = {}
    bit = 0
    for j in range(1, n):
        for i in range(j):
            pair_index[(i, j)] = bit
            bit += 1
    perms = []
    from itertools import permutations
    for perm in permutations(range(n)):
        mapping = []
        for j in range(1, n):
            for i in range(j):
                a, b = perm[i], perm[j]
                mapping.append(pair_index[(min(a, b), max(a, b))])
        perms.append(mapping)
    seen = bytearray(1 << nbits)
    count = 0
    for mask in range(1 << nbits):
        if seen[mask]:
            continue
        orbit = set()
        for mapping in perms:
            img = 0
            for k in range(nbits):
                if mask >> k & 1:
                    img |= 1 << mapping[k]
            orbit.add(img)
        for img in orbit:
            seen[img] = 1
        if _connected_mask(n, mask):
            count += 1
    return count


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    cap = n if largest is None else min(n, largest)
    for first in range(cap, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def unlabeled_graph_counts(max_n: int) -> list:
    """Number of unlabeled simple graphs on n vertices via the cycle index of
    the pair action (Burnside)."""
    out = []
    for n in range(1, max_n + 1):
        total = 0
        for part in _partitions(n):
            # permutations with this cycle type
            size = factorial(n)
            counts = {}
            for c in part:
                counts[c] = counts.get(c, 0) + 1
            for length, mult in counts.items():
                size //= (length ** mult) * factorial(mult)
            # orbits of the induced action on vertex pairs
            orbits = sum(c // 2 for c in part)
            for i in range(len(part)):
                for j in range(i + 1, len(part)):
                    orbits += gcd(part[i], part[j])
            total += size * (1 << orbits)
        out.append(total // factorial(n))
    return out


def connected_counts_by_euler_transform(max_n: int) -> list:
    """Connected unlabeled graph counts from the all-graph counts, through
    the inverse Euler transform."""
    a = unlabeled_graph_counts(max_n)          # a[n-1] = all graphs on n
    c = [0] * (max_n + 1)                      # c[n] = connected graphs on n
    b = [0] * (max_n + 1)                      # b[n] = sum_{d | n} d c[d]
    for n in range(1, max_n + 1):
        s = n * a[n - 1]
        for k in range(1, n):
            s -= b[k] * a[n - k - 1]
        b[n] = s
        total = b[n]
        for d in range(1, n):
            if n % d == 0:
                total -= d * c[d]
        c[n] = total // n
    return c[1:]


# -- plain closure for subgroup orders --------------------------------------------

def closure_elements(degree: int, generators, limit: int = 1 << 21) -> set:
    """Every element of the generated group, as image tuples, by
    breadth-first closure independent of the stabilizer chain.

    Generators join one at a time, and one already reached adds nothing. The
    elements found so far are closed under the earlier generators, so after
    a new one the search starts from their products with it and goes on from
    the elements it had not reached."""
    identity = tuple(range(degree))
    seen = {identity}
    gens = []
    for g in generators:
        g = tuple(g.image) if hasattr(g, "image") else tuple(g)
        if g in seen:
            continue
        gens.append(g)
        frontier = list(seen)
        step = [g]
        while frontier:
            nxt = []
            for x in frontier:
                for h in step:
                    y = tuple(map(h.__getitem__, x))
                    if y not in seen:
                        if len(seen) >= limit:
                            raise RuntimeError("closure oracle limit hit")
                        seen.add(y)
                        nxt.append(y)
            frontier, step = nxt, gens
    return seen


def closure_order(degree: int, generators, limit: int = 1 << 21) -> int:
    return len(closure_elements(degree, generators, limit))


# -- canonical labeling by branch and bound ------------------------------------

def canonical_certificate_bruteforce(g) -> tuple:
    """(n, codes): the smallest column-code sequence over all vertex orders.

    The code at position j packs the adjacency bits of the vertex placed
    there to positions 0..j-1, earliest position most significant. A plain
    branch-and-bound over vertex orders, sorted by code, that abandons a
    prefix once its codes exceed the best; on K_n it visits all n! orders.
    """
    n = g.n
    masks = [0] * n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best = None
    perm, codes = [], []

    def extend(depth: int, tight: bool) -> None:
        nonlocal best
        if depth == n:
            if best is None or codes < best:
                best = codes.copy()
            return
        options = []
        for v in range(n):
            if v in perm:
                continue
            code = 0
            for u in perm:
                code = (code << 1) | (masks[v] >> u & 1)
            options.append((code, v))
        options.sort()
        for code, v in options:
            child_tight = True
            if best is not None:
                if tight and code > best[depth]:
                    break
                child_tight = tight and code == best[depth]
            perm.append(v)
            codes.append(code)
            extend(depth + 1, child_tight)
            perm.pop()
            codes.pop()

    extend(0, True)
    return n, tuple(best)


# -- intersection matrices and enumeration from edge lists and sets -------------

def activation_rows_by_sets(g) -> list:
    """Row v: the indicator of {v} together with the neighbours of v, read
    from the edge list through sets."""
    ball = _closed_neighborhood_sets(g)
    return [tuple(1 if w in ball[v] else 0 for w in range(g.n)) for v in range(g.n)]


def ra_rows_by_sets(g) -> list:
    """One row per pair u <= v in lexicographic order: the indicator of
    B(u) cap B(v), zero rows included."""
    ball = _closed_neighborhood_sets(g)
    return [tuple(1 if w in ball[u] & ball[v] else 0 for w in range(g.n))
            for u in range(g.n) for v in range(u, g.n)]


def ra_matrix_by_sets(g):
    """ra_rows_by_sets as an n(n+1)/2 x n IntMat."""
    from graphpower.zlinalg import IntMat

    return IntMat(ra_rows_by_sets(g), cols=g.n)


def _closed_neighborhood_sets(g) -> list:
    ball = [{v} for v in range(g.n)]
    for u, v in g.edges:
        ball[u].add(v)
        ball[v].add(u)
    return ball


def augmented_classes_by_edge_lists(n: int):
    """(representative, automorphism generators) per class of connected
    graphs on n vertices by vertex augmentation, each child a `Graph` built
    from its parent's edge list plus the new vertex's edges, relabeled
    through its edge list, and a set of certificates keeping the first
    child of each class. Shares the canonical search and the orbit
    representatives of neighbour sets with the package, so its classes and
    labels must match the package's exactly, and its generators must
    generate the same automorphism groups."""
    from graphpower.graphs import Graph, _canonical_search, _subset_orbit_representatives

    if n == 1:
        yield Graph(1, []), []
        return
    seen = set()
    for parent, parent_gens in augmented_classes_by_edge_lists(n - 1):
        base_edges = list(parent.edges)
        for mask in _subset_orbit_representatives(n - 1, parent_gens):
            child = Graph(n, base_edges + [(u, n - 1) for u in range(n - 1) if mask >> u & 1])
            cert, placement, gens = _canonical_search(child.n, child._masks)
            if cert not in seen:
                seen.add(cert)
                position = [0] * n
                for i, v in enumerate(placement):
                    position[v] = i
                yield (Graph(n, [(position[u], position[v]) for u, v in child.edges]),
                       [tuple(position[a[v]] for v in placement) for a in gens])


# -- derived subgroup of a graph power --------------------------------------------

def derived_power_order_by_basic_commutators(group, graph) -> int:
    """|[G^graph, G^graph]| as the normal closure, under conjugation by the
    clicks, of the basic commutators [g^u, h^v]: the commutator [g, h] placed
    on every vertex of B(u) cap B(v), u <= v.

    Closed neighborhoods, clicks and commutator values are rebuilt here from
    the adjacency and the elements of G; only the permutation-group engine
    (normal closure with Schreier-Sims orders) is shared with the package.
    """
    from graphpower.perm import normal_closure

    d, n = group.degree, graph.n
    ball = [{v} | set(graph.neighbors(v)) for v in range(n)]

    def spread(g, support):
        return tuple(v * d + (g.image[x] if v in support else x)
                     for v in range(n) for x in range(d))

    clicks = [spread(g, ball[v]) for v in range(n) for g in group.generators]
    elems = group.elements()
    comms = {x * y * x.inverse() * y.inverse() for x in elems for y in elems}
    basics = {spread(c, ball[u] & ball[v])
              for u in range(n) for v in range(u, n) for c in comms}
    return normal_closure(n * d, clicks, sorted(basics)).order()


def basic_commutator_order(group, graph, include_equal: bool) -> int:
    """|Comm_b| (include_equal) or |Comm_d|: the order of the subgroup of
    G^n generated by every basic commutator [g^u, h^v], g, h in G, over the
    vertex pairs u < v (u <= v with include_equal), each one built as the
    commutator of the two clicks in G^n. Only the click vectors and the
    permutation product are shared with the package."""
    from graphpower.power import power_click

    n = graph.n
    rows = [[1 if w == v or w in graph.neighbors(v) else 0 for w in range(n)]
            for v in range(n)]
    elems = group.elements()
    clicks = [[power_click(group, g, row).as_perm() for g in elems] for row in rows]
    basics = {x.commutator(y).image
              for u in range(n) for v in range(u if include_equal else u + 1, n)
              for x in clicks[u] for y in clicks[v]}
    return closure_order(n * group.degree, basics)


# -- abelianization by the route the p-power count replaced -------------------------

def abelianization_by_cosets(group) -> tuple:
    """Invariant factors of G/[G,G] (each >= 2, ascending, each dividing the
    next) from a breadth-first search over the cosets of [G,G]: each new
    coset is tested against every coset found so far, one exponent vector is
    recorded per coset, and every Cayley edge that closes a cycle adds a
    relation vector; the Smith divisors of the relation lattice are the
    factors. Shares the derived subgroup and the SNF with the package."""
    from graphpower.groups import derived_subgroup
    from graphpower.zlinalg import IntMat, snf_divisors

    derived = derived_subgroup(group)
    k = len(group.generators)
    if k == 0:
        return ()
    reps, vectors, relations = [group.identity()], [(0,) * k], []
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            rep, vec = reps[idx], vectors[idx]
            for gi, gen in enumerate(group.generators):
                new = rep * gen
                new_vec = tuple(v + (j == gi) for j, v in enumerate(vec))
                found = next((j for j, other in enumerate(reps)
                              if derived.contains(new * other.inverse())), None)
                if found is None:
                    reps.append(new)
                    vectors.append(new_vec)
                    nxt.append(len(reps) - 1)
                else:
                    rel = tuple(a - b for a, b in zip(new_vec, vectors[found]))
                    if any(rel):
                        relations.append(rel)
        frontier = nxt
    divisors = snf_divisors(IntMat(relations, cols=k)) if relations else (0,) * k
    divisors += (0,) * (k - len(divisors))
    assert 0 not in divisors, "relation lattice not of full rank"
    return tuple(d for d in divisors if d > 1)


# -- known-order Schreier-Sims against the plain build ------------------------------

def plain_build(group):
    """The same generators built with no known order and no cap, so every
    Schreier generator is sifted."""
    from graphpower.perm import PermGroup

    return PermGroup(group.degree, group.generators, max_order=None)


def membership_sample(plain, rng, count: int = 50, tries: int = 2000) -> tuple:
    """(members, non_members), judged by `plain`, a build with no known
    order: `count` products of 40 random generators, and up to `count`
    non-members among products of a random member and a random
    transposition of the domain (those that `plain` accepts join the
    members). The full symmetric group on the domain has no non-members."""
    from graphpower.perm import Perm

    gens, degree = plain.generators, plain.degree
    if plain.order() == factorial(degree):
        tries = 0
    members, non_members = random_words(gens, plain.identity(), rng, count), []
    for _ in range(tries):
        x = random_words(gens, plain.identity(), rng, 1)[0] * \
            Perm.from_cycles(degree, tuple(rng.sample(range(degree), 2)))
        (members if plain.contains(x) else non_members).append(x)
        if len(non_members) == count:
            break
    return members, non_members


# -- normal closures by the batch build the worklist replaced ----------------------

def normal_closure_by_batch(degree: int, ambient_gens, sub_gens):
    """The normal closure of sub_gens under the ambient generators (all
    Perms), built from all of sub_gens at once; then every element of the
    queue, the non-identity sub generators first, is conjugated by every
    ambient generator, and a conjugate the group lacks joins it and the
    queue."""
    from graphpower.perm import PermGroup

    group = PermGroup(degree, sub_gens, max_order=None)
    work = [g for g in sub_gens if not g.is_identity()]
    for x in work:
        for a in ambient_gens:
            conj = x.conjugate(a)
            if not group.contains(conj):
                group.add_generator(conj)
                work.append(conj)
    return group


def derived_subgroup_by_batch(group):
    """[H,H]: the distinct non-identity commutators of unordered generator
    pairs, collected in a dict, closed by normal_closure_by_batch."""
    gens = group.generators
    comms = {a.commutator(b): None for i, a in enumerate(gens) for b in gens[i + 1:]}
    comms.pop(group.identity(), None)
    return normal_closure_by_batch(group.degree, gens, list(comms))


def random_words(gens, identity, rng, count: int = 50, length: int = 40) -> list:
    """`count` products of `length` generators drawn with `rng`."""
    out = []
    for _ in range(count):
        x = identity
        for _ in range(length if gens else 0):
            x = x * rng.choice(gens)
        out.append(x)
    return out


# -- group powers by the routes the closed forms replaced --------------------------

def abelian_power_order_by_snf(factors, rows) -> int:
    """|(Z_{r_1} x ... x Z_{r_k})^M| from the Smith divisors d_i of M over Z:
    each cyclic factor Z_r contributes prod_i r / gcd(d_i, r), a zero
    divisor contributing 1. Shares only the SNF with the package."""
    from graphpower.zlinalg import IntMat, snf_divisors

    divs = snf_divisors(IntMat(rows, cols=len(rows[0]) if rows else 0))
    total = 1
    for r in factors:
        for d in divs:
            total *= r // gcd(d, r) if d else 1
    return total


def comm_order_by_closure(group, graph) -> int:
    """|Comm(G, graph)| = |G^graph| / |(G^Ab)^graph|, with G^graph built by
    Schreier-Sims without an order cap and the abelian factor from the SNF."""
    from graphpower.groups import abelianization
    from graphpower.power import graph_power

    n = graph.n
    rows = [[1 if w == v or w in graph.neighbors(v) else 0 for w in range(n)]
            for v in range(n)]
    total = graph_power(group, graph, max_order=None).order()
    ab = abelian_power_order_by_snf(abelianization(group).factors, rows)
    assert total % ab == 0
    return total // ab


def derived_power_order_by_closure(group, graph) -> int:
    """|[G^graph, G^graph]| the way the chain took it before it read the
    sandwich Comm_b <= [G^graph, G^graph] <= Comm: G^graph built by plain
    Schreier-Sims (no order cap, no known order), then the normal closure of
    the commutators of its generators."""
    from graphpower.power import graph_power

    return graph_power(group, graph, max_order=None).derived().order()


def comm_order_by_spread_closure(group, graph, include_equal: bool) -> int:
    """|Comm_b| (include_equal) or |Comm_d| the way the package took every
    one before the closed form: the generators of [G,G] spread over each
    intersection row B(u) cap B(v), u < v (u <= v with include_equal),
    generate it, and Schreier-Sims with no order cap gives its order. The
    rows come from neighbourhood sets; only the derived subgroup and the
    permutation-group engine are shared with the package."""
    from graphpower.groups import derived_subgroup
    from graphpower.perm import PermGroup

    d, n = group.degree, graph.n
    ball = _closed_neighborhood_sets(graph)
    supports = {frozenset(ball[u] & ball[v])
                for u in range(n) for v in range(u if include_equal else u + 1, n)}
    gens = [tuple(v * d + (c.image[x] if v in support else x) for v in range(n) for x in range(d))
            for support in sorted(supports, key=sorted) if support
            for c in derived_subgroup(group).generators]
    return PermGroup(n * d, gens, max_order=None).order()


def in_comm(group, graph, state) -> bool:
    """Membership in Comm(G, graph): in the reachable-state group with every
    coordinate a member of [G, G]."""
    from graphpower.groups import derived_subgroup
    from graphpower.power import graph_power

    der = derived_subgroup(group)
    return graph_power(group, graph).contains(state) and \
        all(der.contains(c) for c in state.components)


def heisenberg_regular(p: int):
    """Heisenberg group over F_p through its right regular representation on
    the p^3 triples (a, b, c), (a, b, c)(d, e, f) = (a + d, b + e, c + f + ae);
    generators (1, 0, 0) and (0, 1, 0)."""
    from graphpower.perm import Perm, PermGroup

    triples = list(product(range(p), repeat=3))
    index = {t: i for i, t in enumerate(triples)}

    def right_mult(g):
        d, e, f = g
        return Perm([index[(a + d) % p, (b + e) % p, (c + f + a * e) % p]
                     for a, b, c in triples])

    return PermGroup(p ** 3, [right_mult((1, 0, 0)), right_mult((0, 1, 0))], max_order=None,
                     name=f"H{p}")


# -- square completion ------------------------------------------------------------

def square_completion_by_paths(g) -> bool:
    """Every 3-vertex path u-v-w has a fourth vertex adjacent to u and w,
    checked path by path."""
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    for v in range(g.n):
        for u, w in combinations(sorted(nbrs[v]), 2):
            if not (nbrs[u] & nbrs[w]) - {v}:
                return False
    return True


# -- graph readers by searches over edge lists -------------------------------------

def _neighbour_sets(g) -> list:
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def components_by_search(g) -> tuple:
    """Connected components by depth-first search from each unseen vertex."""
    nbrs = _neighbour_sets(g)
    seen = [False] * g.n
    out = []
    for v in range(g.n):
        if seen[v]:
            continue
        comp = []
        stack = [v]
        seen[v] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def disjoint_union(a, b):
    """a beside b, b's vertices numbered after a's."""
    from graphpower.graphs import Graph

    return Graph(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges])


def relabel(g, perm):
    """The graph whose vertex i is g's vertex perm[i], from g's edge list."""
    from graphpower.graphs import Graph

    position = {v: i for i, v in enumerate(perm)}
    return Graph(g.n, [(position[u], position[v]) for u, v in g.edges])


def delete_vertex_by_edge_map(g, v: int):
    """The graph without v, the later vertices renumbered down through an
    index map over the edge list."""
    from graphpower.graphs import Graph

    index = {u: i for i, u in enumerate(u for u in range(g.n) if u != v)}
    return Graph(g.n - 1, [(index[a], index[b]) for a, b in g.edges if v not in (a, b)])


def reduce_indistinguishable_by_sets(g):
    """Delete the later vertex of the first pair with equal closed
    neighbourhoods, pairs in lexicographic order, until none remain."""
    while True:
        ball = _closed_neighborhood_sets(g)
        pair = next(((u, v) for u, v in combinations(range(g.n), 2) if ball[u] == ball[v]), None)
        if pair is None:
            return g
        g = delete_vertex_by_edge_map(g, pair[1])


def _distances(nbrs: list, source: int) -> list:
    dist = [-1] * len(nbrs)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def pqr_criterion_by_distances(g, p: int) -> bool:
    """Every degree is -1 mod p, adjacent pairs share -2 mod p common
    neighbours, and pairs at breadth-first distance 2 share 0 mod p."""
    nbrs = _neighbour_sets(g)
    if any((len(s) + 1) % p for s in nbrs):
        return False
    dists = [_distances(nbrs, v) for v in range(g.n)]
    for u, v in combinations(range(g.n), 2):
        common = len(nbrs[u] & nbrs[v])
        if dists[u][v] == 1 and (common + 2) % p or dists[u][v] == 2 and common % p:
            return False
    return True


def complete_bipartition_by_colouring(g):
    """(m, n) for K_{m,n} (K1 as K_{1,0}), else None: a 2-colouring by
    search from vertex 0, then every vertex of colour 0 adjacent to exactly
    the vertices of colour 1."""
    nbrs = _neighbour_sets(g)
    colour = [-1] * g.n
    colour[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for w in nbrs[u]:
            if colour[w] < 0:
                colour[w] = 1 - colour[u]
                stack.append(w)
            elif colour[w] == colour[u]:
                return None
    if -1 in colour:
        return None
    left = {v for v in range(g.n) if colour[v] == 0}
    right = set(range(g.n)) - left
    if any(nbrs[u] != right for u in left):
        return None
    return len(left), len(right)


# -- graph6, one vertex pair at a time -------------------------------------------

def graph6_encode_by_pairs(g) -> str:
    """graph6 of g: the size field (1, 4 or 8 characters), then the upper
    triangle in column order, one bit per vertex pair, six bits per
    character, offset 63."""
    n = g.n
    if n <= 62:
        vals = [n]
    elif n <= 258047:
        vals = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        vals = [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    bits = []
    for j in range(1, n):
        mj = g._masks[j]
        for i in range(j):
            bits.append(mj >> i & 1)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        word = 0
        for b in bits[k:k + 6]:
            word = word << 1 | b
        vals.append(word)
    return "".join(chr(v + 63) for v in vals)


def graph6_decode_by_pairs(text: str):
    """The graph of a graph6 string, one vertex pair at a time; raises
    MalformedGraph6 on the same inputs, checked in the same order, as
    graph6_decode."""
    from graphpower.errors import MalformedGraph6
    from graphpower.graphs import Graph

    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    vals = []
    for ch in s:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise MalformedGraph6(f"byte {ch!r} outside graph6 range")
        vals.append(v)
    if vals[0] <= 62:
        n, idx = vals[0], 1
    elif len(vals) >= 4 and vals[1] <= 62:
        n, idx = (vals[1] << 12) | (vals[2] << 6) | vals[3], 4
    elif len(vals) >= 8:
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        idx = 8
    else:
        raise MalformedGraph6("truncated size field")
    if n < 1:
        raise MalformedGraph6("graph6 with zero vertices unsupported")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(vals) - idx != need:
        raise MalformedGraph6(f"expected {need} data bytes, got {len(vals) - idx}")
    bits = []
    for v in vals[idx:]:
        bits.extend((v >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise MalformedGraph6("nonzero padding bits")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


# -- the list kernel with full-width row operations ------------------------------

def echelon_full_rows(rows, n, r=0, perm=None, budget=None):
    """`zlinalg._echelon` as it was before its row operations were cut to the
    pivot row's support span: each operation builds a new row over the full
    width. It shares the kernel's pivot and column choices on purpose, so
    that comparing the two tests the row operations and the budget charge
    alone."""
    from graphpower.zlinalg import _over_budget, _pivot_row, _smallest_gcd_column, _xgcd
    rows = [list(row) for row in rows] if perm is not None else list(rows)
    pivots = []
    spent = 0
    for c in range(n):
        top = len(pivots)
        if top == len(rows):
            break
        if perm is not None:
            k = _smallest_gcd_column(rows, top, c, n)
            if k is None:
                break
            if k != c:
                for row in rows:
                    row[c], row[k] = row[k], row[c]
                perm[c], perm[k] = perm[k], perm[c]
        # gcd-collect column c into rows[top]
        while True:
            i = _pivot_row(rows, top, c, r)
            if i is None:
                break
            rows[top], rows[i] = rows[i], rows[top]
            p = rows[top]
            if r:
                g, s, _ = _xgcd(p[c], r)
                # s is a unit mod r/g; shift it to a unit mod r so that
                # scaling the row keeps the lattice
                while gcd(s, r) != 1:
                    s += r // g
                if s != 1:
                    p = rows[top] = [s * x % r for x in p]
                if g > 1:
                    extra = [r // g * x % r for x in p]
                    if any(extra[c + 1:n]):
                        rows.append(extra)
            elif p[c] < 0:
                p = rows[top] = [-x for x in p]
            a = p[c]
            done = True
            for k in range(top + 1, len(rows)):
                row = rows[k]
                if row[c]:
                    q = row[c] // a
                    if q:
                        if budget is not None:
                            spent += len(p)
                            if spent > budget:
                                raise _over_budget(budget)
                        if r:
                            row = rows[k] = [(x - q * y) % r for x, y in zip(row, p)]
                        else:
                            row = rows[k] = [x - q * y for x, y in zip(row, p)]
                    if row[c]:
                        done = False
            if done:
                pivots.append(c)
                break
    return rows, pivots


def basis_rank_charge(rows, width: int, p: int) -> tuple:
    """(rank mod p, entries charged) of `rows`, entry lists of `width`
    entries read in the given order, by a basis keyed by the first nonzero
    column: each row is reduced by the basis row of that column until it
    vanishes or joins the basis, scaled to 1 there, and reading stops at
    full rank. Every reduction charges the full width, the budget rule of
    `zlinalg._basis_rank` on rows packed first entry most significant."""
    basis, reductions = {}, 0
    for row in rows:
        x = [v % p for v in row]
        while any(x):
            c = next(j for j, v in enumerate(x) if v)
            y = basis.get(c)
            if y is None:
                inverse = pow(x[c], -1, p)
                basis[c] = [v * inverse % p for v in x]
                break
            reductions += 1
            q = x[c]
            x = [(a - q * b) % p for a, b in zip(x, y)]
        if len(basis) == width:
            break
    return len(basis), reductions * width


def smith_chain_pairwise(d) -> None:
    """The divisor chain of the positive diagonal d, in place, comparing
    every pair of entries: each pair (a, b) becomes (gcd(a, b), lcm(a, b))."""
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g = gcd(a, b)
                d[i], d[j] = g, a // g * b


# -- the Smith form and the lattice index without the unit-pivot pre-pass --------

def _distinct_nonzero_rows(M) -> list:
    return [row for row in dict.fromkeys(M._rows) if any(row)]


def snf_divisors_by_passes(M, budget=None) -> tuple:
    """`zlinalg.snf_divisors` before its unit-pivot pre-pass: the echelon
    passes of `_smith_passes` on all distinct nonzero rows of M."""
    from graphpower.zlinalg import _smith_chain, _smith_passes
    d = _smith_passes(_distinct_nonzero_rows(M), M.cols, budget)
    _smith_chain(d)
    return tuple(d + [0] * (min(M.rows, M.cols) - len(d)))


def lattice_index_by_echelon(M, budget=None) -> int:
    """`zlinalg.lattice_index` before its unit-pivot pre-pass: the product of
    the echelon pivots of all distinct nonzero rows of M, or 0 when they
    fall short of rank cols."""
    from graphpower.zlinalg import _echelon
    rows, pivots = _echelon(_distinct_nonzero_rows(M), M.cols, budget=budget)
    return prod(rows[i][c] for i, c in enumerate(pivots)) if len(pivots) == M.cols else 0


# -- canonical augmentation with piece lists and per-bit orbit images -------------

def refine_by_piece_lists(masks: tuple, cells: list, stack: list, ncells: int) -> int:
    """The equitable refinement of graphs._refine, as it was written with a
    list of pieces per cell, sorted by neighbour count, for every splitter:
    the same pieces in the same order and the same splitters queued."""
    n = len(cells)
    queued = set(stack)
    while stack and ncells < n:
        start = stack.pop()
        queued.discard(start)
        w = cells[start]
        single = masks[w.bit_length() - 1] if not w & (w - 1) else None
        s = 0
        while s < n:
            x = cells[s]
            size = x.bit_count()
            if size == 1:
                s += 1
                continue
            if single is not None:
                pieces = [p for p in (x & ~single, x & single) if p]
            else:
                groups = {}
                y = x
                while y:
                    b = y & -y
                    k = (masks[b.bit_length() - 1] & w).bit_count()
                    groups[k] = groups.get(k, 0) | b
                    y ^= b
                pieces = [groups[k] for k in sorted(groups)]
            if len(pieces) > 1:
                sizes = [p.bit_count() for p in pieces]
                skip = 0 if s in queued else sizes.index(max(sizes))
                pos = s
                for i, p in enumerate(pieces):
                    cells[pos] = p
                    if i != skip and pos not in queued:
                        stack.append(pos)
                        queued.add(pos)
                    pos += sizes[i]
                ncells += len(pieces) - 1
            s += size
    return ncells


def canonical_search_by_piece_lists(n: int, masks: tuple) -> tuple:
    """graphs._canonical_search on refine_by_piece_lists: (certificate,
    placement, automorphism generators) by individualization-refinement with
    the same tree, leaf order and pruning."""
    from graphpower.graphs import _column_codes, _orbit

    gens: list = []
    first = best = None
    individualized: list = []

    def common_depth(other: list) -> int:
        d = 0
        for a, b in zip(individualized, other):
            if a != b:
                break
            d += 1
        return d

    def leaf(cells: list) -> int:
        nonlocal first, best
        order = [c.bit_length() - 1 for c in cells]
        codes = _column_codes(masks, order)
        if first is None:
            first = best = (codes, order, individualized.copy())
            return n
        jump = n
        for codes0, order0, path0 in ((first,) if best is first else (first, best)):
            if codes == codes0:
                aut = [0] * n
                for u, v in zip(order0, order):
                    aut[u] = v
                gens.append(tuple(aut))
                jump = min(jump, common_depth(path0))
        if codes < best[0]:
            best = (codes, order, individualized.copy())
        return jump

    def search(cells: list, ncells: int) -> int:
        if ncells == n:
            return leaf(cells)
        target, tsize, s = 0, n + 1, 0
        while s < n:
            size = cells[s].bit_count()
            if 1 < size < tsize:
                target, tsize = s, size
            s += size
        depth = len(individualized)
        x = cells[target]
        explored = 0
        y = x
        while y:
            b = y & -y
            y ^= b
            v = b.bit_length() - 1
            if explored:
                fixing = [a for a in gens if all(a[u] == u for u in individualized)]
                if _orbit(v, fixing) & explored:
                    continue
            explored |= b
            child = cells.copy()
            child[target] = b
            child[target + 1] = x ^ b
            individualized.append(v)
            jump = search(child, refine_by_piece_lists(masks, child, [target], ncells + 1))
            individualized.pop()
            if jump < depth:
                return jump
        return depth

    cells = [0] * n
    cells[0] = (1 << n) - 1
    search(cells, refine_by_piece_lists(masks, cells, [0], 1))
    return (n, best[0]), best[1], gens


def canonical_form_by_piece_lists(g) -> tuple:
    """graphs.canonical_form on canonical_search_by_piece_lists."""
    from graphpower.graphs import _column_codes

    cert, placement, _ = canonical_search_by_piece_lists(g.n, g._masks)
    if _column_codes(g._masks, range(g.n)) == cert[1]:
        placement = list(range(g.n))
    return cert, placement


def permute_masks(masks: tuple, position) -> tuple:
    """Neighbour masks after moving each vertex v to position[v]."""
    from graphpower.graphs import _vertices

    out = [0] * len(masks)
    for v, m in enumerate(masks):
        out[position[v]] = sum(1 << position[w] for w in _vertices(m))
    return tuple(out)


def deletion_ties_by_search(masks: tuple) -> int:
    """The deletion ties of graphs._deletion_ties with the degrees counted
    from the masks and every candidate's cut test a breadth-first search."""
    from graphpower.graphs import _closure, _vertices

    last = len(masks) - 1
    degree = [m.bit_count() for m in masks]
    d, key, ties = degree[last], None, 1 << last
    for v in range(last):
        if degree[v] == d:
            if key is None:
                key = sorted(degree[w] for w in _vertices(masks[last]))
            other = sorted(degree[w] for w in _vertices(masks[v]))
        if degree[v] > d or degree[v] == d and other > key:
            continue
        rest = (2 << last) - 1 ^ 1 << v
        if _closure(masks, rest & -rest, rest) == rest:
            if degree[v] < d or other < key:
                return 0
            ties |= 1 << v
    return ties


def subset_orbit_representatives_by_bits(m: int, gens: list):
    """The smallest bitmask of each orbit of the nonempty subsets of 0..m-1,
    each image built bit by bit from the images of the elements."""
    images = [[1 << a[u] for u in range(m)] for a in gens]
    if not images:
        yield from range(1, 1 << m)
        return
    seen = bytearray(1 << m)
    for mask in range(1, 1 << m):
        if seen[mask]:
            continue
        yield mask
        seen[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for img in images:
                y, z = 0, x
                while z:
                    b = z & -z
                    y |= img[b.bit_length() - 1]
                    z ^= b
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)


@lru_cache(maxsize=None)
def level_by_piece_lists(n: int) -> tuple:
    """graphs._level from the helpers above: (certificate, canonical masks,
    automorphism generators) per class of connected graphs on n vertices,
    sorted, by the same canonical augmentation."""
    from graphpower.graphs import _orbit

    if n == 1:
        return (((1, (0,)), (0,), ()),)
    found = []
    last = n - 1
    for _, parent, parent_gens in level_by_piece_lists(last):
        for mask in subset_orbit_representatives_by_bits(last, parent_gens):
            child = tuple(m | 1 << last if mask >> u & 1 else m
                          for u, m in enumerate(parent)) + (mask,)
            ties = deletion_ties_by_search(child)
            if not ties:
                continue
            cert, placement, gens = canonical_search_by_piece_lists(n, child)
            first = next(v for v in placement if ties >> v & 1)
            if not _orbit(first, gens) >> last & 1:
                continue
            position = [0] * n
            for i, v in enumerate(placement):
                position[v] = i
            found.append((cert, permute_masks(child, position),
                          tuple(tuple(position[a[v]] for v in placement) for a in gens)))
    return tuple(sorted(found))
