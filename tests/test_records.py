"""The result records are NamedTuples: read-only fields, equality and repr
by field name, and the few methods and defaults callers rely on."""

import pytest

from graphpower.errors import DimensionMismatch
from graphpower.graphs import Classification
from graphpower.groups import AbelianInvariants, parse_group_spec
from graphpower.perm import Perm
from graphpower.power import ChainReport, StateVector
from graphpower.ra import CensusReport, CensusRow, CensusSummary, Hint, RAVerdict
from graphpower.solver import ReachabilityProfile, Solution, Unsolvable

D8 = parse_group_spec("D8")

RECORDS = [
    Classification(True, ((0, 1),), 3, True, False, (1, 1)),
    AbelianInvariants((2, 2)),
    StateVector(D8, (D8.identity(),) * 2),
    ChainReport("D8", 4, 1, 2, 4, 8, 16),
    RAVerdict("Cx", True, "full_lattice", "lattice index 1"),
    Hint("girth5", "strongly_ra", "forest"),
    CensusRow(2, "A_", (1, 1), True, "full_lattice", "lattice index 1"),
    CensusSummary(2, 1, 0, 0, 0),
    CensusReport((), ()),
    Unsolvable(0, 2, 1, "pivot at vertex 1 obstructed"),
    Solution((2,), ((1, 0),)),
    ReachabilityProfile(1, ((1, 3),), 0, (0, 1)),
]


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_record_fields_are_read_only_and_named(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    copy = type(record)(*record)
    assert copy == record and hash(copy) == hash(record)
    assert repr(record).startswith(f"{type(record).__name__}({name}=")


def test_solver_outcomes_keep_their_truth_values():
    assert not Unsolvable(0, 2, 1, "")
    assert Solution((2,), ((1, 0),))


def test_state_vector_rejects_a_component_of_the_wrong_degree():
    with pytest.raises(DimensionMismatch):
        StateVector(D8, (D8.identity(), Perm(list(range(D8.degree + 1)))))
    state = StateVector(D8, tuple(D8.generators))
    assert (state * state).n == len(D8.generators)
