"""The record classes: frozen values on ``mobiusq._Record`` and the plain mutable classes.

A ``_Record`` subclass behaves as a frozen value: built from its fields by
position or keyword, equal to a record of its own type with equal fields
and hashed by them, immutable, and copied and pickled through its
constructor.  ``Support`` is a record that compares by identity, as do the
mutable classes.
"""
from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from mobiusq.circuits import Support, TransformQuery, gather
from mobiusq.gates import Circuit, Controlled, Hadamard, PauliX, StateVector
from mobiusq.grover import EstimateReport, GroverPlan, Readout
from mobiusq.minfind import ObjectiveTable, ProbeRecord, SearchTrace
from mobiusq.sim import Mode, Multiplexed, PhasePair, RegisterLayout, Ry
from mobiusq.subset import BitString, SubsetTable
from mobiusq.verify import SignalDecomposition, Verdict

# each record class with the field values of one instance, in field order
RECORDS = [
    (BitString, ((1, 0, 1),)),
    (RegisterLayout, (Mode.MARGINAL, 4, 2)),
    (Ry, (0, 0.5)),
    (PhasePair, (1, 0.25, -0.5)),
    (Multiplexed, (0, Ry, ((0.5,), (0.0,)))),
    (GroverPlan, (0.5, 1, 1.0)),
    (Readout, (GroverPlan(0.5, 1, 1.0), (0.25, 0.5, 0.125, 0.125))),
    (ProbeRecord, (BitString((1, 0)), 0.75, 1)),
    (SearchTrace, ((ProbeRecord(BitString((1, 0)), 0.75, 1),), BitString((0, 1)))),
    (Hadamard, (2,)),
    (PauliX, (2,)),
    (Controlled, ({3: 1, 4: 0}, (Hadamard(0), PauliX(1)))),
    (Verdict, (True, 1e-12, "ok")),
]
_ids = [cls.__name__ for cls, _ in RECORDS]


def _keywords(cls, values) -> dict:
    return dict(zip(cls.__slots__, values))


@pytest.mark.parametrize("cls, values", RECORDS, ids=_ids)
def test_a_record_is_equal_to_one_with_equal_fields_and_hashes_the_same(cls, values):
    a, b = cls(*values), cls(*copy.deepcopy(values))
    assert a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a.__eq__(values) is NotImplemented and a != values


def test_records_of_different_types_are_unequal_even_with_equal_fields():
    assert Hadamard(0) != PauliX(0) and PauliX(0) != Hadamard(0)
    assert len({Hadamard(0), PauliX(0)}) == 2
    assert Ry(0, 0.5) != PhasePair(0, 0.5, 0.5) and PhasePair(0, 0.5, 0.5) != Ry(0, 0.5)
    assert Ry(0, 0.5) != Ry(0, 0.25) and Ry(1, 0.5) != Ry(0, 0.5)


@pytest.mark.parametrize("cls, values", RECORDS, ids=_ids)
def test_a_record_refuses_assignment_and_deletion(cls, values):
    record = cls(*values)
    for name in (*cls.__slots__, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*values)


@pytest.mark.parametrize("cls, values", RECORDS, ids=_ids)
def test_a_record_is_built_by_position_or_keyword(cls, values):
    record = cls(*values)
    assert cls(**_keywords(cls, values)) == record
    assert cls(values[0], **dict(zip(cls.__slots__[1:], values[1:]))) == record
    assert repr(record).startswith(f"{cls.__name__}({cls.__slots__[0]}=")


@pytest.mark.parametrize("cls, values", RECORDS, ids=_ids)
def test_a_record_refuses_a_missing_unknown_or_repeated_field(cls, values):
    keywords = _keywords(cls, values)
    first = cls.__slots__[0]
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in keywords.items() if name != first})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, None, None)


@pytest.mark.parametrize("cls, values", RECORDS, ids=_ids)
def test_a_record_survives_copy_deepcopy_and_pickle(cls, values):
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and hash(twin) == hash(record)


# a record whose field is a sequence stores it as a tuple, so one built from a list hashes
@pytest.mark.parametrize(
    "cls, values, field",
    [
        (Controlled, ({0: 1}, [Hadamard(1), PauliX(2)]), "ops"),
        (SearchTrace, ([ProbeRecord(BitString((1, 0)), 0.75, 1)], BitString((0, 1))), "probes"),
    ],
    ids=["Controlled", "SearchTrace"],
)
def test_a_record_built_from_a_list_hashes_and_equals_the_one_built_from_a_tuple(cls, values, field):
    from_list = cls(*values)
    from_tuple = cls(*(tuple(v) if isinstance(v, list) else v for v in values))
    assert type(getattr(from_list, field)) is tuple
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple) and len({from_list, from_tuple}) == 1


def _same_fields(a, b, names) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in names)


def test_a_support_is_equal_only_to_itself_and_hashes_by_identity():
    support = gather(TransformQuery(Mode.MOBIUS, 2, np.full(4, 0.5), BitString((0, 1))))
    fields = Support.__slots__
    twin = Support(*(getattr(support, name) for name in fields))
    assert support == support and twin != support and not twin == support
    assert hash(support) == object.__hash__(support) and len({support, twin}) == 2
    assert Support(**{name: getattr(support, name) for name in fields}) != support
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(support, name, None)
        with pytest.raises(AttributeError):
            delattr(support, name)
    with pytest.raises(TypeError):
        Support(support.layout, support.alpha_minus)
    for copied in (copy.copy(support), copy.deepcopy(support), pickle.loads(pickle.dumps(support))):
        assert type(copied) is Support and copied != support and _same_fields(copied, support, fields)


_LAYOUT = RegisterLayout(Mode.MOBIUS, 1)
_STATE = np.zeros(1 << _LAYOUT.total_qubits)
_STATE[0] = 1.0

# each mutable class with the keyword arguments of one instance, in parameter order
MUTABLE = [
    (SubsetTable, {"n": 2, "values": np.array([0.1, 0.2, 0.3, 0.4])}),
    (TransformQuery, {"mode": Mode.MOBIUS, "n": 1, "psi_minus": np.array([0.6, 0.8]), "x": BitString((1,))}),
    (ObjectiveTable, {"n": 1, "values": np.array([1.0, 2.0])}),
    (EstimateReport, {"estimate": 0.5, "halfwidth": 0.125, "message": "m"}),
    (Circuit, {"layout": _LAYOUT, "ops": (Hadamard(0),)}),
    (StateVector, {"layout": _LAYOUT, "amplitudes": _STATE}),
    (SignalDecomposition, {"z1": 0.5 + 0.25j, "z0": 1.0 + 0j, "chi_norm": 0.25}),
]


@pytest.mark.parametrize("cls, keywords", MUTABLE, ids=[cls.__name__ for cls, _ in MUTABLE])
def test_a_mutable_class_is_built_by_position_or_keyword_and_compares_by_identity(cls, keywords):
    names, values = list(keywords), list(keywords.values())
    obj = cls(*values)
    assert _same_fields(cls(**keywords), obj, names) and cls(**keywords) != obj and obj == obj
    with pytest.raises(TypeError):
        cls(*values[:-1], no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in keywords.items() if name != names[0]})
    for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(copied) is cls and copied != obj and _same_fields(copied, obj, names)


def test_the_plain_classes_keep_their_defaults():
    query = TransformQuery(Mode.MOBIUS, 1, np.array([0.6, 0.8]), BitString((1,)))
    assert query.n0 == 1 and RegisterLayout(Mode.MOBIUS, 3).n0 == 3
    assert EstimateReport(None, None).message == ""
