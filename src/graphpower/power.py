"""Reachable-state groups of group-valued Lights Out.

A click at vertex v with group element g right-multiplies the states of the
closed neighborhood of v by g. Starting from all-identity, the reachable
states form a subgroup of G^n generated by the clicks; more generally any
integer matrix M yields the subgroup generated by the rows' power vectors
g^x = (g^{x_1}, ..., g^{x_n}).

G^n is modelled as permutations on n disjoint copies of G's domain, block v
holding coordinate v, so the subgroup engine provides orders and membership.

Orders follow the paper's reduction: |G^graph| = |Comm| * |(G^Ab)^graph|,
with Comm = G^graph cap [G,G]^n, the abelian factor a row-span count mod
each invariant factor of G^Ab. The chain Comm_b <= [G^graph, G^graph] <=
Comm <= [G,G]^n collapses once |Comm_b| = |[G,G]|^n, which _comm_count
reads off the u <= v intersection rows mod |[G,G]| (always on an RA graph);
then no subgroup is built. Off that closed form, Comm = Comm_b when [G,G] is
central and a basis of G^Ab lifts to elements of the same orders (Q3
under D8 or H2; the proof is _power_orders's), and again nothing is built. No
elimination here runs over Z. Only off both (Q3 under A4 or the quaternion
group), or past ra.RA_TEST_BUDGET, is G^graph built, by Schreier-Sims under
the order cap, and only when |G|^|S|, S a greedy independent set, fits the
cap.

For 0/1 matrices, clicking with G's generators suffices: components multiply
coordinatewise there, so a click by an arbitrary g is the product of clicks
by the letters of a word for g. General integer rows lose that identity and
the subgroup is generated by clicks over every element of G, so those
constructions enumerate G (which must be small).
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple, Optional, Sequence

from .errors import CapacityExceeded, ConsistencyError, DimensionMismatch, LimitExceeded
from .graphs import Graph
from .groups import AbelianInvariants, abelianization, central_lift
from .perm import DEFAULT_MAX_ORDER, Perm, PermGroup, derived_subgroup
from . import ra
from .zlinalg import IntMat, _smallest_prime_factor, span_order_mod

_ALL_ELEMENT_CLICK_BOUND = 512


class _State(NamedTuple):
    group: PermGroup
    components: tuple


class StateVector(_State):
    """An element of G^n: one group element per vertex."""

    __slots__ = ()

    def __new__(cls, group: PermGroup, components: tuple):
        for c in components:
            if c.degree != group.degree:
                raise DimensionMismatch("component degree mismatch")
        return super().__new__(cls, group, components)

    @property
    def n(self) -> int:
        return len(self.components)

    def as_perm(self) -> Perm:
        d = self.group.degree
        image = []
        for v, comp in enumerate(self.components):
            off = v * d
            image.extend(off + x for x in comp.image)
        return Perm(image)

    def __mul__(self, other: "StateVector") -> "StateVector":
        if self.group is not other.group or self.n != other.n:
            raise DimensionMismatch("state vectors from different ambients")
        return StateVector(self.group, tuple(a * b for a, b in zip(self.components, other.components)))

    def is_identity(self) -> bool:
        return all(c.is_identity() for c in self.components)


def state_from_perm(group: PermGroup, n: int, perm: Perm) -> StateVector:
    """Split a block permutation on n copies of the domain back into
    coordinates."""
    d = group.degree
    if perm.degree != n * d:
        raise DimensionMismatch(f"degree {perm.degree} != {n * d}")
    comps = []
    for v in range(n):
        off = v * d
        block = [perm.image[off + i] - off for i in range(d)]
        if any(x < 0 or x >= d for x in block):
            raise DimensionMismatch("permutation does not preserve coordinate blocks")
        comps.append(Perm(block))
    return StateVector(group, tuple(comps))


def power_click(group: PermGroup, g: Perm, clicks: Sequence[int]) -> StateVector:
    """g^x = (g^{x_1}, ..., g^{x_n})."""
    return StateVector(group, tuple(g ** int(x) for x in clicks))


class PowerSubgroup:
    """A subgroup of G^n, held as a permutation group on n blocks of G's
    domain."""

    def __init__(self, group: PermGroup, n: int, perm_group: PermGroup):
        self.group = group
        self.n = n
        self.perm_group = perm_group

    @property
    def generators(self) -> tuple:
        return tuple(state_from_perm(self.group, self.n, p)
                     for p in self.perm_group.generators)

    def order(self) -> int:
        return self.perm_group.order()

    def contains(self, state) -> bool:
        if isinstance(state, StateVector):
            return self.perm_group.contains(state.as_perm())
        return self.perm_group.contains(state)

    def elements_as_states(self, limit: int = 1 << 20) -> list:
        return [state_from_perm(self.group, self.n, p)
                for p in self.perm_group.elements(limit=limit)]

    def derived(self) -> "PowerSubgroup":
        """Commutator subgroup, built once and kept on the permutation group."""
        return PowerSubgroup(self.group, self.n, derived_subgroup(self.perm_group))

    def __repr__(self):
        return f"PowerSubgroup({self.group.name}^{self.n}, order={self.order()})"


def _generated(group: PermGroup, n: int, states: Sequence[StateVector],
               max_order: Optional[int]) -> PowerSubgroup:
    """The subgroup of G^n generated by `states`."""
    return PowerSubgroup(group, n, PermGroup(n * group.degree, [s.as_perm() for s in states],
                                             max_order=max_order))


def matrix_power(group: PermGroup, matrix, *,
                 max_order: Optional[int] = DEFAULT_MAX_ORDER) -> PowerSubgroup:
    """Subgroup of G^n generated by g^row over the rows of an integer matrix.

    0/1 matrices click with G's generators only; general integer matrices
    click with every element of G (the coordinatewise product identity fails
    off 0/1 vectors, and generator clicks can generate a proper subgroup)."""
    mat = matrix if isinstance(matrix, IntMat) else IntMat(matrix)
    if not mat.rows:
        raise DimensionMismatch("matrix with no rows")
    clickers = group.generators if mat._zero_one else group.elements(limit=_ALL_ELEMENT_CLICK_BOUND)
    return _generated(group, mat.cols, [power_click(group, g, row)
                                        for row in mat._rows for g in clickers], max_order)


def graph_power(group: PermGroup, graph: Graph, *,
                max_order: Optional[int] = DEFAULT_MAX_ORDER) -> PowerSubgroup:
    """The reachable-state group G^graph (clicks along closed neighborhoods)."""
    return matrix_power(group, ra.activation_matrix(graph), max_order=max_order)


# -- abelian side ---------------------------------------------------------------

def abelian_power_order(invariants, matrix, budget: Optional[int] = None) -> int:
    """|(Z_{r_1} x ... x Z_{r_k})^M|: each cyclic factor Z_r contributes the
    size of the row span of M mod r, one elimination per distinct r, each
    under `budget` (LimitExceeded past it)."""
    factors = invariants.factors if isinstance(invariants, AbelianInvariants) else tuple(invariants)
    mat = matrix if isinstance(matrix, IntMat) else IntMat(matrix)
    return prod(span_order_mod(mat, int(r), budget) ** factors.count(r) for r in set(factors))


def _independent_set_bound(group: PermGroup, graph: Graph, max_order: Optional[int]) -> None:
    """Raise CapacityExceeded at the first vertex of a greedy independent set
    S where |G|^|S| passes max_order: clicking a vertex of S moves no other
    coordinate of S, so G^graph projects onto G^S and |G^graph| >= |G|^|S|.
    |G| is the group's known order when it has one, so no chain is built."""
    if max_order is None:
        return
    bound, taken, order = 1, 0, group.known_order or group.order()
    for v, m in enumerate(graph._masks):
        if not m & taken:
            taken |= 1 << v
            bound *= order
            if bound > max_order:
                raise CapacityExceeded(bound, max_order)


def _power_orders(group: PermGroup, graph: Graph, max_order: Optional[int] = DEFAULT_MAX_ORDER,
                  rows: Optional[IntMat] = None) -> tuple:
    """(G^graph or None, |Comm_b| or None, |(G^Ab)^graph|, |Comm(G, graph)|,
    |[G,G]|^n); |G^graph| is the product of the third and fourth.

    Comm is the kernel of the projection of G^graph onto the abelianized
    power, and its order divides |[G,G]|^n with the RA index as quotient.
    |Comm_b| is _comm_count under ra.RA_TEST_BUDGET, on `rows` when the
    caller has built the u <= v rows with _rows. When it is |[G,G]|^n, so
    is |Comm| >= |Comm_b|, and nothing is built: the closed form answers
    above max_order too.

    Otherwise Comm = Comm_b when [G,G] is central and a basis of G^Ab =
    Z/m_1 x ... x Z/m_k lifts to elements e_j of G of order exactly m_j
    (groups.central_lift). Proof: Comm_b lies in [G,G]^n, central in G^n, so
    the commutator [g^B(u), h^B(v)] of two clicks, a basic commutator, is
    central and clicks commute modulo Comm_b. A click by c in [G,G] is c
    spread over B(v) = B(v) cap B(v), so it lies in Comm_b. Every g in G is
    a product of powers of the e_j and an element of [G,G], and a click by g
    is the coordinatewise product of the clicks by those factors. So any x
    in G^graph is prod_j e_j^(y_j) b, with each y_j in the row lattice of
    A+I and b in Comm_b. If x is in [G,G]^n, then at each vertex w, prod_j
    e_j^(y_j(w)) lies in [G,G], so its image sum_j y_j(w) e_j in G^Ab is 0,
    and m_j divides y_j(w) for each j, as the images of the e_j form a
    basis. Then e_j^(y_j(w)) = 1, as e_j has order m_j, and x = b. So Comm
    = Comm_b. On that route nothing is built either, but, as on the build
    route, once _independent_set_bound has passed, |G^graph| = |(G^Ab)^graph|
    |Comm_b| meets max_order, so both routes stop the same requests. Any
    other case (a count past the budget, [G,G] not central, no lift) builds
    G^graph under max_order once _independent_set_bound has passed. The
    abelian part, on the 0/1 activation matrix, comes last."""
    full = derived_subgroup(group).order() ** graph.n
    try:
        cb = _comm_count(group, _rows(group, graph, True) if rows is None else rows,
                         ra.RA_TEST_BUDGET)
    except LimitExceeded:
        cb = None
    invariants = abelianization(group)
    power = None
    if cb != full:
        _independent_set_bound(group, graph, max_order)
        if cb is None or central_lift(group, invariants) is None:
            power = graph_power(group, graph, max_order=max_order)
    ab = abelian_power_order(invariants, ra.activation_matrix(graph))
    if power is None:
        if cb != full and max_order is not None and ab * cb > max_order:
            raise CapacityExceeded(ab * cb, max_order)
        return None, cb, ab, cb, full
    total = power.order()
    if total % ab:
        raise ConsistencyError(
            f"|G^Gamma| = {total} not divisible by abelian part {ab}")
    comm = total // ab
    if full % comm:
        raise ConsistencyError(f"RA index {full}/{comm} is not an integer")
    return power, cb, ab, comm, full


# -- commutator subgroups ---------------------------------------------------------

def _rows(group: PermGroup, graph: Graph, include_equal: bool) -> IntMat:
    """ra._distinct_rows (u <= v with include_equal, else u < v), or no rows
    when [G,G] is trivial: its counts and closures read none, so no budget
    stops them."""
    if derived_subgroup(group).order() == 1:
        return IntMat([], graph.n)
    return ra._distinct_rows(graph, include_equal)


def _comm_subgroup(group: PermGroup, rows: IntMat, max_order: Optional[int]) -> PowerSubgroup:
    """Subgroup of G^n generated by the basic commutators [g^u, h^v] over
    the vertex pairs whose distinct intersection rows are `rows` (_rows).

    [g^u, h^v] is [g,h] spread over B(u) cap B(v), and for a fixed 0/1 row I
    the spread d -> d^I is a homomorphism from [G,G] to G^n. The spreads of
    all commutators over I therefore form the subgroup generated by the
    spreads of the generators of [G,G], so those suffice, once per distinct
    intersection row."""
    der = derived_subgroup(group).generators
    return _generated(group, rows.cols, [power_click(group, d, row)
                                         for row in rows._rows for d in der], max_order)


def comm_d(group: PermGroup, graph: Graph, *,
           max_order: Optional[int] = DEFAULT_MAX_ORDER) -> PowerSubgroup:
    """Subgroup generated by the basic commutators [g^u, h^v] with u != v.
    Past ra.RA_TEST_BUDGET distinct-row entries it raises LimitExceeded."""
    return _comm_subgroup(group, _rows(group, graph, False), max_order)


def comm_b(group: PermGroup, graph: Graph, *,
           max_order: Optional[int] = DEFAULT_MAX_ORDER) -> PowerSubgroup:
    """Subgroup generated by all basic commutators [g^u, h^v], u = v allowed.
    Past ra.RA_TEST_BUDGET distinct-row entries it raises LimitExceeded."""
    return _comm_subgroup(group, _rows(group, graph, True), max_order)


def _comm_count(group: PermGroup, rows: IntMat, budget: Optional[int] = None) -> Optional[int]:
    """|Comm_b| (`rows` the distinct rows B(u) cap B(v), u <= v) or |Comm_d|
    (u < v) of G^n from those rows (_rows), or None.

    When [G,G] = Z/r_1 x ... x Z/r_k is abelian (its generators commute),
    the spreads d^I of its elements over the rows I generate the image of
    [G,G] (x) L in [G,G]^n, L the row lattice: the order is the product of
    the row spans of L mod r_i. Otherwise it is k^n, k = |[G,G]|, when the
    span mod k is full, else None. Proof: for a commutator c = [g,h] and a
    row I = B(u) cap B(v), c^I = [g^B(u), h^B(v)] is a basic commutator and
    x -> c^x (coordinatewise powers) a homomorphism Z^n -> G^n, so c^x lies
    in Comm_b (Comm_d when u < v) for x in L. If the span mod k is full,
    write e_w = x + k y with x in L; ord(c) divides k, so c^(e_w) = c^x, and
    these generate [G,G]^n. The span mod k is full exactly when L has an
    index N != 0 prime to k, and then each span mod r_i is full too (the r_i
    have the primes of k): the count is |[G,G]|^n exactly then, and Comm_b =
    [G^graph, G^graph] = Comm = [G,G]^n. As N is prime to k exactly when it
    is prime to rad(k), the product of k's primes, a nonabelian [G,G] asks
    only whether the span mod rad(k) is full: one basis per prime, which
    stops at full rank. `budget` caps the entries each span may charge, the
    full row width per reduction of the basis mod a prime r <= 13 and per
    row operation mod other r; past it the span raises LimitExceeded."""
    derived = derived_subgroup(group)
    der = derived.generators
    if all(a * b == b * a for i, a in enumerate(der) for b in der[i + 1:]):
        return abelian_power_order(abelianization(derived).factors, rows, budget)
    k = rest = derived.order()
    rad = 1
    while rest > 1:
        p = _smallest_prime_factor(rest)
        rad *= p
        while rest % p == 0:
            rest //= p
    full = abelian_power_order((rad,), rows, budget) == rad ** rows.cols
    return k ** rows.cols if full else None


def _comm_order(group: PermGroup, graph: Graph, include_equal: bool) -> int:
    """_comm_count, else the order of the closure, built with no cap (it lies
    in G^graph, which chain_report bounds first), both on the same rows;
    LimitExceeded past ra.RA_TEST_BUDGET distinct-row entries."""
    rows = _rows(group, graph, include_equal)
    count = _comm_count(group, rows)
    return _comm_subgroup(group, rows, None).order() if count is None else count


def comm_b_order(group: PermGroup, graph: Graph) -> int:
    """|Comm_b(G, graph)|; LimitExceeded past ra.RA_TEST_BUDGET distinct
    intersection-row entries."""
    return _comm_order(group, graph, True)


def comm_d_order(group: PermGroup, graph: Graph) -> int:
    """|Comm_d(G, graph)|; LimitExceeded past ra.RA_TEST_BUDGET distinct
    intersection-row entries."""
    return _comm_order(group, graph, False)


# -- RA verdicts for a fixed group ------------------------------------------------

def is_g_ra(group: PermGroup, graph: Graph, *,
            max_order: Optional[int] = DEFAULT_MAX_ORDER) -> bool:
    """Whether [G,G]^n is contained in G^graph, decided by order counting:
    Comm(G, graph) sits inside [G,G]^n, so containment is equality of
    orders."""
    return ra_index(group, graph, max_order=max_order) == 1


def ra_index(group: PermGroup, graph: Graph, *,
             max_order: Optional[int] = DEFAULT_MAX_ORDER) -> int:
    """Index of Comm(G, graph) in [G,G]^n; equals 1 exactly when the graph is
    G-RA."""
    _, _, _, comm, full = _power_orders(group, graph, max_order)
    return full // comm


class ChainReport(NamedTuple):
    """Orders along Comm_d <= Comm_b <= [G^G, G^G] <= Comm <= [G,G]^n."""

    group: str
    graph_vertices: int
    comm_d: int
    comm_b: int
    derived_power: int
    comm: int
    full_commutator_power: int

    def orders(self) -> tuple:
        return (self.comm_d, self.comm_b, self.derived_power,
                self.comm, self.full_commutator_power)

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "vertices": self.graph_vertices,
            "orders": {
                "comm_d": self.comm_d,
                "comm_b": self.comm_b,
                "derived_power": self.derived_power,
                "comm": self.comm,
                "full_commutator_power": self.full_commutator_power,
            },
        }


def chain_report(group: PermGroup, graph: Graph, *,
                 max_order: Optional[int] = DEFAULT_MAX_ORDER) -> ChainReport:
    """The five orders of the commutator chain; each divides the next.

    First |G^graph| >= |G|^|S| (_independent_set_bound) meets max_order;
    then the u <= v rows are built once, and past ra.RA_TEST_BUDGET entries
    LimitExceeded ends the chain. The count and the closure read the same
    rows, which no elimination writes into. Comm_b <= [G^graph, G^graph] <=
    Comm is read as a sandwich. On the closed form, |Comm_b| = |[G,G]|^n
    (_comm_count), and where _power_orders proves Comm = Comm_b ([G,G]
    central and G^Ab lifting: Q3 under D8), nothing is built, the derived
    power is |Comm|, and |G^graph| = |Comm| |(G^Ab)^graph| still meets
    max_order, so the cap stops the same requests as a build would.
    Otherwise G^graph is built under max_order, Comm_b is the count
    _power_orders took on those rows (or their closure), and the derived
    power is |Comm| when |Comm_b| = |Comm|, else the normal closure in
    G^graph (Q3 under A4: 2^14 and 2^16). Comm_d is counted on the u < v
    rows (or is their closure)."""
    _independent_set_bound(group, graph, max_order)
    rows = _rows(group, graph, True)
    gp, cb, ab, comm, full = _power_orders(group, graph, max_order, rows)
    if gp is None:
        if max_order is not None and ab * comm > max_order:
            raise CapacityExceeded(ab * comm, max_order)
        derived_power = comm
    else:
        if cb is None:
            cb = _comm_subgroup(group, rows, None).order()
        derived_power = comm if cb == comm else gp.derived().order()
    orders = (_comm_order(group, graph, False), cb, derived_power, comm, full)
    for a, b in zip(orders, orders[1:]):
        if b % a:
            raise ConsistencyError(f"chain orders {orders} violate divisibility")
    return ChainReport(group.name, graph.n, *orders)
