"""Constructive solving over abelian state groups.

States over a sum of cyclic groups Z_{r_1} x ... x Z_{r_k} split into
independent single-factor problems. Each factor asks for click
multiplicities c with c . A == target (mod r), or over Z; zlinalg.row_solve
decides it by echelon form and back substitution, eliminating inside Z/r
itself. A failed back substitution names the first column j such that no
reachable state agrees with the target on vertices 0..j; that vertex is the
witness.

Every returned click vector is checked before it is returned: clicks . A
must equal the target (mod r for a cyclic factor); a mismatch is an internal
fault, not a solver answer.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from .errors import ConsistencyError, DimensionMismatch, InvalidParameter
from .graphs import Graph
from .ra import RA_TEST_BUDGET, activation_matrix
from .zlinalg import _echelon, mat_vec, row_solve

INTEGERS = "Z"


class Unsolvable(NamedTuple):
    """Witness for an unreachable target: the first pivot whose congruence
    fails, mapped back to a vertex."""

    factor: int            # index into the moduli list (0 for the Z case)
    modulus: Union[int, str]
    vertex: int
    detail: str

    def __bool__(self):
        return False


class Solution(NamedTuple):
    """Click multiplicities per factor; clicks[alpha][v] clicks vertex v."""

    moduli: tuple
    clicks: tuple   # one click vector per factor


class ReachabilityProfile(NamedTuple):
    """Shape of the reachable states, from the permuted echelon basis: the
    first free_count coordinates are freely settable, the constrained ones
    move by multiples of their pivot, the fixed ones are determined."""

    free_count: int
    constrained: tuple        # (vertex, pivot) pairs, pivots ascending
    fixed_count: int
    column_permutation: tuple

    def pivots(self) -> tuple:
        return tuple(p for _, p in self.constrained)


def reachability_profile(graph: Graph) -> ReachabilityProfile:
    perm = list(range(graph.n))
    rows, cols = _echelon(activation_matrix(graph)._rows, graph.n, perm=perm)
    values = [rows[i][c] for i, c in enumerate(cols)]
    free = values.count(1)
    constrained = tuple((perm[c], v) for c, v in zip(cols, values) if v > 1)
    fixed = graph.n - free - len(constrained)
    return ReachabilityProfile(free, constrained, fixed, tuple(perm))


def _normalize_targets(moduli, target, n: int) -> list:
    """Per-factor integer target vectors from an AbelianState."""
    k = len(moduli)
    per_factor = [[0] * n for _ in range(k)]
    if len(target) != n:
        raise DimensionMismatch(f"target length {len(target)} != {n}")
    for v, entry in enumerate(target):
        if isinstance(entry, (int,)):
            if k != 1:
                raise DimensionMismatch("scalar state entries need a single factor")
            per_factor[0][v] = entry
        else:
            if len(entry) != k:
                raise DimensionMismatch(
                    f"state entry at vertex {v} has {len(entry)} coordinates, expected {k}")
            for a, e in enumerate(entry):
                per_factor[a][v] = int(e)
    return per_factor


def solve(graph: Graph, moduli, target) -> Union[Solution, Unsolvable]:
    """Find clicks reaching `target` over the given cyclic factors.

    moduli: a sequence of integers >= 2, or the string "Z" for integer
    states. target: one entry per vertex; an integer for a single factor or
    a k-tuple of exponents for k factors (integers for the "Z" case).

    Factors solve independently. The result is a Solution with one click
    vector per factor, or an Unsolvable naming the first obstructed pivot.
    Over Z, the elimination may rewrite at most ra.RA_TEST_BUDGET entries
    (LimitExceeded past it), the budget of `is_ra` and `eldivs` on the same
    rows; mod r, no budget applies. Mod a prime r <= 13 row_solve works on
    packed rows, with the click vectors and obstructed vertices of its list
    elimination.
    """
    if moduli == INTEGERS or moduli == [INTEGERS] or moduli == (INTEGERS,):
        moduli = (INTEGERS,)
    else:
        moduli = tuple(int(r) for r in moduli)
        if not moduli:
            raise InvalidParameter("need at least one modulus")
        if any(r < 2 for r in moduli):
            raise InvalidParameter("moduli must be >= 2")
    A = activation_matrix(graph)
    targets = _normalize_targets(moduli, target, graph.n)
    out = []
    for alpha, modulus in enumerate(moduli):
        r = 0 if modulus == INTEGERS else modulus  # Z is r = 0, as in row_solve
        tvec = [t % r for t in targets[alpha]] if r else targets[alpha]
        clicks, bad = row_solve(A, tvec, r, budget=None if r else RA_TEST_BUDGET)
        if clicks is None:
            detail = (f"factor {alpha} (mod {r}): pivot at vertex {bad} obstructed" if r
                      else f"no integer combination reaches vertex {bad}")
            return Unsolvable(alpha, modulus, bad, detail)
        reached = mat_vec(clicks, A)
        for v, (x, t) in enumerate(zip(reached, tvec)):
            if (x % r if r else x) != t:
                raise ConsistencyError(f"clicks do not reproduce the target at vertex {v}")
        out.append(clicks)
    return Solution(moduli, tuple(out))


def solvable_iff_lights_out(graph: Graph, parity_state: Sequence[int],
                            invariants: Sequence[int] = (2,)) -> bool:
    """Solvability of the per-vertex commutator-class picture.

    For puzzles whose position group has abelianization Z_2 (one odd/even
    bit per vertex, as with a permutation puzzle at every vertex), a state is
    simultaneously solvable exactly when this Lights Out instance is, given
    that independent commutator moves exist at every vertex. The caller is
    responsible for that last hypothesis (checked with is_ra / is_g_ra); it
    is not detectable from here.
    """
    state = [tuple(int(p) % r for r in invariants) for p in parity_state]
    return bool(solve(graph, tuple(invariants), state))
