"""The package's records are NamedTuples: their pickling, validation,
hashing and tuple behaviour."""

import math
import pickle
from fractions import Fraction

import pytest

from verlinde.formula import n_so
from verlinde.numeric import IntegralityError
from verlinde.rootsys import GroupType
from verlinde.so_oracle import USet

PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("record", [
    GroupType("D", 6),
    USet("D", 3, 6, (Fraction(3), Fraction(1), Fraction(0))),
    USet("B", 2, 5, (Fraction(5, 2), Fraction(1, 2))),
    n_so(12, 3),
    n_so(4, 2),  # a tuple of levels
], ids=["GroupType", "USet-D", "USet-B", "VerlindeResult", "VerlindeResult-product"])
def test_pickle_round_trip(record, protocol):
    copy = pickle.loads(pickle.dumps(record, protocol))
    assert copy == record and type(copy) is type(record)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("fields", [
    ("1.50000000000000000000000000000", 0.5, 192, "farther from an integer than its bound, 1.0e-50"),
    ("Infinity", math.inf, 2**20, "past the decimal exponent range, so over MAX_BITS"),
], ids=["residual", "overflow"])
def test_a_refusal_survives_pickling(fields, protocol):
    """A refusal raised in a worker process reaches its caller through
    pickle: with its diagnostics and message, not as a broken pool."""
    err = IntegralityError(*fields)
    copy = pickle.loads(pickle.dumps(err, protocol))
    assert type(copy) is IntegralityError and str(copy) == str(err)
    assert (copy.raw_value, copy.residual, copy.precision_bits) == fields[:3]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("cls,fields,message", [
    (GroupType, ("D", 2), "type D requires rank >= 3, got 2"),
    (GroupType, ("E", 6), "unknown family 'E'"),
    (USet, ("D", 2, 6, (Fraction(1), Fraction(2))), "strictly decreasing"),
])
def test_unpickling_an_invalid_record_raises(cls, fields, message, protocol):
    """Unpickling builds through ``__new__``, which checks the fields: a
    record made around the check does not load."""
    forged = tuple.__new__(cls, fields)
    data = pickle.dumps(forged, protocol)
    with pytest.raises(ValueError, match=message):
        pickle.loads(data)


def test_replace_checks_the_fields():
    gt = GroupType("D", 6)
    assert gt._replace(rank=4) == GroupType("D", 4)
    with pytest.raises(ValueError, match="requires rank >= 3"):
        gt._replace(rank=2)
    u = USet("D", 3, 6, (Fraction(3), Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="must be < 4"):
        u._replace(k=4)


def test_group_type_hashes_as_its_fields():
    assert hash(GroupType("D", 6)) == hash(GroupType("D", 6)) == hash(("D", 6))
    assert GroupType("D", 6) is not GroupType("D", 6)
    assert {GroupType("D", 6): 1}[GroupType(family="D", rank=6)] == 1


def test_records_are_tuples():
    """Equality with a plain tuple, iteration, indexing and ordering are
    those of the fields as a tuple."""
    gt = GroupType("A", 2)
    assert gt == ("A", 2) and tuple(gt) == ("A", 2) and gt[1] == 2
    assert GroupType("A", 2) < GroupType("A", 3) < GroupType("B", 2)
    family, rank = GroupType("C", 4)
    assert (family, rank) == ("C", 4)
    res = n_so(12, 3)
    assert res[:2] == (res.value, res.residual)

