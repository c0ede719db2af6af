"""Graph powers of finite groups.

Put a group element at every vertex of a finite simple graph; a click at a
vertex multiplies the states of its closed neighborhood by a chosen element.
The reachable states from all-identity form a subgroup of G^n. This package
computes that subgroup exactly (orders, membership, commutator chains),
decides when a graph reduces the problem to the abelian case for every
group, and solves abelian instances constructively.
"""

from .errors import (
    CapacityExceeded,
    ConsistencyError,
    GraphPowerError,
    InputError,
    InvalidParameter,
    LimitExceeded,
    MalformedGraph6,
    NotPrime,
    PreconditionViolated,
    SpecParseError,
)
from .graphs import (
    Graph,
    canonical_certificate,
    classify,
    closed_neighborhood,
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected_graphs,
    folded_cube,
    graph6_decode,
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
from .groups import (
    AbelianInvariants,
    abelianization,
    alternating,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    heisenberg,
    parse_group_spec,
    symmetric,
)
from .perm import Perm, PermGroup
from .power import (
    ChainReport,
    PowerSubgroup,
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
from .ra import (
    CensusReport,
    RAVerdict,
    activation_matrix,
    census,
    heisenberg_ra,
    is_ra,
    known_family_divisors,
    pqr_criterion,
    structural_ra_hints,
)
from .solver import (
    INTEGERS,
    ReachabilityProfile,
    Solution,
    Unsolvable,
    reachability_profile,
    solvable_iff_lights_out,
    solve,
)
from .zlinalg import (
    IntMat,
    divisor_tuple_str,
    rank_mod_p,
    snf_divisors,
)

__version__ = "0.1.0"
