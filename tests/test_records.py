"""The engine's seven value classes share one immutable base, ``params.Record``.

Each survives ``copy.copy``, ``copy.deepcopy`` and a ``pickle`` round trip,
which rebuild it through its constructor: a ``ValueRecord`` compares equal
to the original, and a record compared by identity has the same fields.
Assigning any attribute raises, on the original and on the copies, and
equality and hashing are as each class had them before the base.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from hweyl.params import ParamPoly, Record, ValueRecord
from hweyl.freealg import RewriteSystem
from hweyl.bialgebra import TYPE_I_PLUS, BialgebraClass, Cocommutator, RMatrix, classify
from hweyl.poisson import COORD_RING2, GroupCoords, PoissonStructure
from hweyl.quantization import HopfPresentation, quantize, verify_all

#: One or two records of each class, rational and symbolic, built on demand.
RECORDS = {
    "RewriteSystem": lambda: RewriteSystem.undeformed(3),
    "Cocommutator": lambda: Cocommutator(a1=2, a3="-4/3", b1=Fraction(1, 2), c1=7),
    "Cocommutator-symbolic": lambda: Cocommutator(
        a1=ParamPoly.symbol("a1", 3), b2=ParamPoly.symbol("b2", 3)),
    "RMatrix": lambda: RMatrix(1, "1/2", -3),
    "RMatrix-symbolic": lambda: RMatrix.symbolic(3),
    "BialgebraClass": lambda: classify(Cocommutator(a1=2, a2=6, a3="-4/3", b1=3, b2=3, b3=2)),
    "BialgebraClass-invalid": lambda: classify(Cocommutator(a1=2, c1=3)),
    "GroupCoords": lambda: GroupCoords.point(1, "2/3", -4),
    "GroupCoords-generic": lambda: GroupCoords.generic("'", COORD_RING2),
    "PoissonStructure": lambda: PoissonStructure(1, "1/2", 0, 3, -2, 5),
    "PoissonStructure-symbolic": lambda: PoissonStructure.symbolic(TYPE_I_PLUS),
    "HopfPresentation": lambda: quantize(TYPE_I_PLUS, order=3),
}

CLASSES = (RewriteSystem, Cocommutator, RMatrix, BialgebraClass, GroupCoords,
           PoissonStructure, HopfPresentation)
VALUE_CLASSES = (Cocommutator, RMatrix, GroupCoords)

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


def same(a, b):
    """Equal values: a record compared by identity field by field (a
    PoissonStructure, which keeps only numerators, by those), a container
    item by item, anything else by type and ``==``."""
    if isinstance(a, PoissonStructure):
        return type(a) is type(b) and a.numerators() == b.numerators()
    if isinstance(a, Record) and not isinstance(a, ValueRecord):
        return type(a) is type(b) and all(same(getattr(a, n), getattr(b, n))
                                          for n in a._FIELDS)
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(v, b[k]) for k, v in a.items()))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


def test_each_class_is_a_record_with_no_guard_or_equality_of_its_own():
    for cls in CLASSES:
        assert issubclass(cls, Record) and "__setattr__" not in vars(cls), cls
        assert issubclass(cls, ValueRecord) == (cls in VALUE_CLASSES), cls
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
    assert {type(build()) for build in RECORDS.values()} == set(CLASSES)


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_round_trip_gives_an_equal_record(name, trip):
    record = RECORDS[name]()
    clone = ROUND_TRIPS[trip](record)
    assert clone is not record
    assert same(clone, record)
    if isinstance(record, ValueRecord):
        assert clone == record


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assigning_any_attribute_raises(name):
    record = RECORDS[name]()
    cls = type(record).__name__
    for target in (record, pickle.loads(pickle.dumps(record))):
        for attr in record._FIELDS + ("other",):
            with pytest.raises(AttributeError, match=f"^{cls} is immutable$"):
                setattr(target, attr, 0)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hashing_are_by_value_or_by_identity(name):
    """Value records compare field by field and are not hashable; the other
    classes compare and hash by identity."""
    record = RECORDS[name]()
    clone = copy.copy(record)
    if isinstance(record, ValueRecord):
        assert clone == record and not clone != record
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert clone != record and record == record
        assert hash(record) == hash(record)


def test_value_records_of_different_fields_differ():
    assert Cocommutator(a1=1) != Cocommutator(a1=1, c3=0)
    assert RMatrix(1) != RMatrix(1, 1)
    assert GroupCoords.point(0, 0, 1) != GroupCoords.point(0, 1, 0)
    assert Cocommutator(a1=1) != RMatrix(1)


def test_store_sets_the_slots_of_the_fields_or_refuses():
    """Each class gets one slot setter per field when it is defined.
    PoissonStructure keeps its fields only as numerators, so it has none,
    and ``_store`` raises rather than store nothing."""
    for cls in CLASSES:
        if cls is PoissonStructure:
            assert cls._setters is None
        else:
            assert len(cls._setters) == len(cls._FIELDS), cls
    with pytest.raises(TypeError, match="not slots"):
        PoissonStructure()._store(*range(6))


def test_coboundary_and_family_are_read_off_the_fields():
    """A class is a coboundary exactly when it has an r-matrix, and a
    presentation's family is the tag of its class; neither is a field."""
    for name in ("BialgebraClass", "BialgebraClass-invalid", "HopfPresentation"):
        record = RECORDS[name]()
        cls = getattr(record, "bialgebra_class", record)
        assert cls.coboundary == (cls.rmatrix is not None)
        assert "coboundary" not in cls._FIELDS
    hp = RECORDS["HopfPresentation"]()
    assert hp.family == hp.bialgebra_class.tag == TYPE_I_PLUS
    assert "family" not in hp._FIELDS
    assert classify(Cocommutator(a2=2, b3=2)).coboundary
    assert BialgebraClass.symbolic("TRIVIAL").coboundary


def test_an_unpickled_presentation_verifies_and_renders_the_same():
    """The restored presentation starts with empty word memos and a fresh
    rewrite memo, and rebuilds them while it verifies."""
    hp = quantize(TYPE_I_PLUS, order=4)
    restored = pickle.loads(pickle.dumps(hp))
    assert restored.coproduct_map._memo.keys() == {()} and not restored.rewrite._forms
    assert all(verify_all(restored).values())
    assert restored.to_json() == hp.to_json()
    assert restored.is_concrete == hp.is_concrete


def test_an_unpickled_classification_keeps_its_result():
    result = classify(Cocommutator(a1=2, a2=6, a3="-4/3", b1=3, b2=3, b3=2))
    restored = pickle.loads(pickle.dumps(result))
    assert restored.tag == result.tag == TYPE_I_PLUS
    assert restored.normalized == result.normalized
    assert restored.automorphism == result.automorphism
    assert isinstance(restored, BialgebraClass)
