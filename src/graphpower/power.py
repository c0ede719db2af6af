"""Reachable-state groups of group-valued Lights Out.

A click at vertex v with group element g right-multiplies the states of the
closed neighborhood of v by g. Starting from all-identity, the reachable
states form a subgroup of G^n generated by the clicks; more generally any
integer matrix M yields the subgroup generated by the rows' power vectors
g^x = (g^{x_1}, ..., g^{x_n}).

G^n is modelled as permutations on n disjoint copies of G's domain, block v
holding coordinate v, so the subgroup engine provides orders and membership.

Orders follow the paper's reduction: |G^graph| = |Comm| * |(G^Ab)^graph|,
with Comm = G^graph cap [G,G]^n. The abelian factor is a row-span count mod
each invariant factor of G^Ab. When the intersection rows B(u) cap B(v),
u <= v, span all of (Z/k)^n, k = |[G,G]| (always when k = 1; on an RA graph
for every k), the commutators spread over the rows already generate [G,G]^n
(see _spreads_fill), so Comm_b = [G^graph, G^graph] = Comm = [G,G]^n and no
subgroup is built; the u < v rows decide Comm_d = [G,G]^n the same way. No
elimination here runs over Z: every test is a span mod k. Only when the
span mod k falls short (Q3 under D8 or A4), or past ra.RA_TEST_BUDGET, is
G^graph built, by Schreier-Sims under the order cap, and only when
|G|^|S| <= |G^graph|, S a greedy independent set, fits the cap.

For 0/1 matrices, clicking with G's generators suffices: components multiply
coordinatewise there, so a click by an arbitrary g is the product of clicks
by the letters of a word for g. General integer rows lose that identity and
the subgroup is generated by clicks over every element of G, so those
constructions enumerate G (which must be small).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import CapacityExceeded, ConsistencyError, DimensionMismatch, LimitExceeded
from .graphs import Graph
from .groups import AbelianInvariants, abelianization
from .perm import DEFAULT_MAX_ORDER, Perm, PermGroup, derived_subgroup
from . import ra
from .zlinalg import IntMat, _span_order, span_order_mod

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
    rows = matrix._rows if isinstance(matrix, IntMat) else tuple(tuple(r) for r in matrix)
    if not rows:
        raise DimensionMismatch("matrix with no rows")
    n = len(rows[0])
    zero_one = all(x in (0, 1) for row in rows for x in row)
    clickers = group.generators if zero_one else group.elements(limit=_ALL_ELEMENT_CLICK_BOUND)
    return _generated(group, n, [power_click(group, g, row)
                                 for row in rows for g in clickers], max_order)


def graph_power(group: PermGroup, graph: Graph, *,
                max_order: Optional[int] = DEFAULT_MAX_ORDER) -> PowerSubgroup:
    """The reachable-state group G^graph (clicks along closed neighborhoods)."""
    return matrix_power(group, ra.activation_matrix(graph), max_order=max_order)


# -- abelian side ---------------------------------------------------------------

def abelian_power_order(invariants, matrix) -> int:
    """|(Z_{r_1} x ... x Z_{r_k})^M|: each cyclic factor Z_r contributes the
    size of the row span of M mod r. No group enumeration happens."""
    factors = invariants.factors if isinstance(invariants, AbelianInvariants) else tuple(invariants)
    mat = matrix if isinstance(matrix, IntMat) else IntMat(matrix)
    total = 1
    for r in factors:
        total *= span_order_mod(mat, int(r))
    return total


def _spreads_fill(graph: Graph, include_equal: bool, k: int) -> bool:
    """Whether the commutators of G spread over the distinct intersection
    rows of the graph (u < v, or u <= v with include_equal) generate all of
    [G,G]^n, |[G,G]| = k: true when k = 1, or when the rows span all of
    (Z/k)^n. Past ra.RA_TEST_BUDGET, for the rows or for the elimination mod
    k, the answer is False.

    Proof. Take a commutator c = [g,h] and a row I = B(u) cap B(v) of the
    row lattice L. Then c^I = [g^B(u), h^B(v)] is a basic commutator, so it
    lies in Comm_b (in Comm_d when u < v). Since x -> c^x (coordinatewise
    powers) is a homomorphism Z^n -> G^n, c^x lies there too for every x in
    L. When the span mod k is full, write e_w = x + k y with x in L; ord(c)
    divides k, so c^(e_w) = c^x lies there for every vertex w, and these
    elements generate [G,G]^n. The span mod k is full exactly when
    L + k Z^n = Z^n, that is when L has an index N != 0 with gcd(N, k) = 1."""
    if k == 1:
        return True
    try:
        return _span_order(ra._distinct_rows(graph, include_equal), graph.n, k,
                           budget=ra.RA_TEST_BUDGET) == k ** graph.n
    except LimitExceeded:
        return False


def _power_orders(group: PermGroup, graph: Graph, max_order: Optional[int]) -> tuple:
    """(G^graph or None, |(G^Ab)^graph|, |Comm(G, graph)|, |[G,G]|^n);
    |G^graph| is the product of the second and third.

    Comm is the kernel of the natural projection of G^graph onto the
    abelianized power, so |G^graph| = |Comm| * |(G^Ab)^graph|; Comm sits
    inside [G,G]^n, so its order divides |[G,G]|^n and the quotient is the
    RA index. When the commutator spreads over the u <= v rows fill [G,G]^n
    (_spreads_fill), so does Comm, which contains them, and nothing is
    built. Otherwise G^graph is built under max_order, once a greedy
    independent set S has not ruled it out: clicking a vertex of S moves no
    other coordinate of S, so G^graph projects onto G^S and
    |G^graph| >= |G|^|S|. The abelian part comes last, so a request over
    the cap stops before it."""
    k = derived_subgroup(group).order()
    full = k ** graph.n
    power = None
    if not _spreads_fill(graph, True, k):
        if max_order is not None:
            bound, taken, order = 1, 0, group.order()
            for v, m in enumerate(graph._masks):
                if not m & taken:
                    taken |= 1 << v
                    bound *= order
                    if bound > max_order:
                        raise CapacityExceeded(bound, max_order)
        power = graph_power(group, graph, max_order=max_order)
    ab = abelian_power_order(abelianization(group), ra.activation_matrix(graph))
    if power is None:
        return None, ab, full, full
    total = power.order()
    if total % ab:
        raise ConsistencyError(
            f"|G^Gamma| = {total} not divisible by abelian part {ab}")
    comm = total // ab
    if full % comm:
        raise ConsistencyError(f"RA index {full}/{comm} is not an integer")
    return power, ab, comm, full


def _orders(group: PermGroup, graph: Graph, *,
            max_order: Optional[int] = DEFAULT_MAX_ORDER) -> tuple:
    """(|(G^Ab)^graph|, |Comm(G, graph)|, |[G,G]|^n), building G^graph only
    off the closed form (see _power_orders), so the closed form answers
    above max_order too."""
    return _power_orders(group, graph, max_order)[1:]


# -- commutator subgroups ---------------------------------------------------------

def _comm_subgroup(group: PermGroup, graph: Graph, include_equal: bool,
                   max_order: Optional[int]) -> PowerSubgroup:
    """Subgroup generated by the basic commutators [g^u, h^v] over the vertex
    pairs u < v (u <= v with include_equal).

    [g^u, h^v] is [g,h] spread over B(u) cap B(v), and for a fixed 0/1 row I
    the spread d -> d^I is a homomorphism from [G,G] to G^n. The spreads of
    all commutators over I therefore form the subgroup generated by the
    spreads of the generators of [G,G], so those suffice, once per distinct
    intersection row. Past ra.RA_TEST_BUDGET distinct-row entries it raises
    LimitExceeded."""
    der = derived_subgroup(group).generators
    return _generated(group, graph.n, [power_click(group, d, row)
                                       for row in ra._distinct_rows(graph, include_equal)
                                       for d in der],
                      max_order)


def comm_d(group: PermGroup, graph: Graph, *,
           max_order: Optional[int] = DEFAULT_MAX_ORDER) -> PowerSubgroup:
    """Subgroup generated by the basic commutators [g^u, h^v] with u != v."""
    return _comm_subgroup(group, graph, False, max_order)


def comm_b(group: PermGroup, graph: Graph, *,
           max_order: Optional[int] = DEFAULT_MAX_ORDER) -> PowerSubgroup:
    """Subgroup generated by all basic commutators [g^u, h^v], u = v allowed."""
    return _comm_subgroup(group, graph, True, max_order)


def _comm_order(group: PermGroup, graph: Graph, include_equal: bool) -> int:
    """|Comm_b| (include_equal: the u <= v rows) or |Comm_d| (u < v rows).

    When [G,G] is abelian (its generators commute pairwise), say
    [G,G] = Z/r_1 x ... x Z/r_k, the spreads d^I of its elements over the
    intersection rows I generate the image of [G,G] (x) L in [G,G]^n, L the
    row lattice; so the order is the product over i of the row span of L
    mod r_i. Otherwise it is |[G,G]|^n when the spreads fill [G,G]^n
    (_spreads_fill), and else the order of the closure, built without an
    order cap: it lies in G^graph, whose order chain_report bounds by the
    caller's cap first. Either way, past ra.RA_TEST_BUDGET distinct-row
    entries it raises LimitExceeded. The spans mod r_i have no fallback, so
    they take no elimination budget."""
    derived = derived_subgroup(group)
    der = derived.generators
    if all(a * b == b * a for i, a in enumerate(der) for b in der[i + 1:]):
        factors = abelianization(derived).factors
        total = 1
        for r in set(factors):
            span = _span_order(ra._distinct_rows(graph, include_equal), graph.n, r)
            total *= span ** factors.count(r)
        return total
    k = derived.order()
    if _spreads_fill(graph, include_equal, k):
        return k ** graph.n
    return _comm_subgroup(group, graph, include_equal, None).order()


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
    _, comm, full = _orders(group, graph, max_order=max_order)
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

    When the commutator spreads over the u <= v rows fill [G,G]^n
    (_spreads_fill), Comm_b = [G^graph, G^graph] = Comm = [G,G]^n and
    nothing is built; the closed form |G^graph| = |[G,G]|^n |(G^Ab)^graph|
    still meets max_order, so the cap stops the same requests whether or not
    the chain builds the group. Otherwise G^graph is built under max_order,
    and the chain Comm_b <= [G^graph, G^graph] <= Comm is read as a
    sandwich: when |Comm_b| = |Comm|, the derived power has that order and
    is not built (Q3 under D8); otherwise it is the normal closure in the
    built G^graph (Q3 under A4: |Comm_b| = 2^14, |Comm| = 2^16). Comm_d
    takes the same test on the u < v rows."""
    gp, ab, comm, full = _power_orders(group, graph, max_order)
    if gp is None:
        if max_order is not None and ab * full > max_order:
            raise CapacityExceeded(ab * full, max_order)
        cb = derived_power = full
    else:
        cb = _comm_order(group, graph, True)
        derived_power = comm if cb == comm else gp.derived().order()
    orders = (_comm_order(group, graph, False), cb, derived_power, comm, full)
    for a, b in zip(orders, orders[1:]):
        if b % a:
            raise ConsistencyError(f"chain orders {orders} violate divisibility")
    return ChainReport(group.name, graph.n, *orders)
