"""The contract every nadyn record keeps: the behaviour of the frozen
dataclasses they replaced.

SAMPLES must name one instance of every subclass of Record, so a new record
fails here until it has one.  A record equals only a record of its own class
and hashes as the tuple of its fields (RationalMapK, whose equality is
projective, hashes its view), prints as a dataclass did, refuses assignment
and deletion, and survives copy and pickle.
"""

import copy
import pickle
from fractions import Fraction

import pytest

import nadyn.redux
from nadyn import (
    GAUSS,
    INFINITY,
    ComplexMap,
    ConvergenceReport,
    DegenerationReport,
    DepthDivisor,
    DirectionMeasure,
    FactorClass,
    FiniteClass,
    InfinityClass,
    IntrinsicReduction,
    MinLocusResult,
    QPoly,
    RationalMapK,
    SlopeReport,
    TypeIIPoint,
    degeneration_report,
    depth_sequence,
    intrinsic_data,
    min_locus,
    parse_map,
    parse_point,
    specialize,
)
from nadyn.errors import Record
from nadyn.redux import reduce_lift
from conftest import count_calls

TZ21T = parse_map("(t*z^2+1)/t")
CIRCLE = QPoly.from_coeffs([1, 0, 1])

SAMPLES = {
    FiniteClass: FiniteClass(Fraction(-1, 2)),
    InfinityClass: INFINITY,
    FactorClass: FactorClass(CIRCLE),
    DepthDivisor: DepthDivisor(((QPoly.from_coeffs([-1, 1]), 2), (CIRCLE, 1)), 1),
    RationalMapK: TZ21T,
    IntrinsicReduction: intrinsic_data(TZ21T, parse_point("a=0;s=-1/2")),
    TypeIIPoint: parse_point("a=t^(1/2)+t;s=1/2"),
    SlopeReport: SlopeReport(INFINITY, 1, False, Fraction(1, 2)),
    MinLocusResult: min_locus(TZ21T),
    DirectionMeasure: DirectionMeasure(((INFINITY, Fraction(1, 2)),), Fraction(1, 2)),
    ConvergenceReport: depth_sequence(parse_map("(z^2+t)/(1+t*z)+1/t"), GAUSS, 2),
    ComplexMap: specialize(TZ21T, 1e-3),
    DegenerationReport: degeneration_report(TZ21T, [1e-3], 2),
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def test_every_record_has_a_sample():
    assert set(Record.__subclasses__()) == set(SAMPLES)
    assert all(type(record) is cls for cls, record in SAMPLES.items())


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_record_equality_and_hash(cls):
    record = SAMPLES[cls]
    fields = _fields(record)
    again = cls(*fields)
    assert again is not record and again == record and _fields(again) == fields
    assert record != fields and fields != record
    assert all(record != other for other in SAMPLES.values() if type(other) is not cls)
    try:
        expected = hash(record._view if cls is RationalMapK else fields)
    except TypeError:  # a DegenerationReport holds dicts, so it had no hash as a dataclass either
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again) == expected


def test_a_fieldless_record_is_not_an_empty_tuple():
    assert INFINITY == InfinityClass() and hash(INFINITY) == hash(())
    assert INFINITY != () and FiniteClass(Fraction(0)) != (Fraction(0),)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_records_refuse_assignment_and_deletion(cls):
    record = SAMPLES[cls]
    fields = _fields(record)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record) == fields and not hasattr(record, "extra")


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_records_copy_and_pickle(cls):
    record = SAMPLES[cls]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == repr(record)


def test_records_print_as_dataclasses_did():
    assert repr(SAMPLES[DirectionMeasure]) == (
        "DirectionMeasure(atoms=((InfinityClass(), Fraction(1, 2)),), point_mass=Fraction(1, 2))"
    )
    assert repr(SAMPLES[SlopeReport]) == "SlopeReport(cls=InfinityClass(), dep=1, fixed=False, rhs=Fraction(1, 2))"
    assert repr(SAMPLES[DepthDivisor]) == "DepthDivisor(parts=((QPoly(x - 1), 2), (QPoly(x^2 + 1), 1)), inf_mult=1)"


def test_cached_properties_are_computed_once(monkeypatch):
    views = count_calls(monkeypatch, "_normalised", nadyn.redux)
    decompositions = count_calls(monkeypatch, "squarefree_decomposition", nadyn.redux)
    phi = RationalMapK(TZ21T.lift)
    assert (phi.num, phi.den) == (TZ21T.num, TZ21T.den) and phi == TZ21T and hash(phi) == hash(TZ21T)
    assert phi._view is phi._view and views["nadyn.redux"] == 1
    info = reduce_lift(phi.lift)
    assert info.depths is info.depths and decompositions["nadyn.redux"] == 1


def test_factor_classes_are_monic_of_degree_at_least_two():
    with pytest.raises(ValueError, match="degree >= 2"):
        FactorClass(QPoly.from_coeffs([-1, 1]))
    with pytest.raises(ValueError, match="monic"):
        FactorClass(QPoly.from_coeffs([1, 0, 2]))


def test_a_direction_measure_has_no_point_mass_by_default():
    measure = DirectionMeasure(((INFINITY, Fraction(1)),))
    assert measure.point_mass == 0 and measure == DirectionMeasure(measure.atoms, Fraction(0))
