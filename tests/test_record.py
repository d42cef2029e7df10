"""The plain records keep the value semantics of the frozen dataclasses
they replaced: constructors, fields, equality, hashing and immutability."""

import copy
import pickle
from fractions import Fraction

import pytest

from pisotdyn.algebraic import (
    IntMatrix,
    IntPolynomial,
    RealApprox,
    Recurrence,
    RootCount,
    RootLayout,
    root_layout,
)
from pisotdyn.crystal import CantorSpec
from pisotdyn.geometry import AngleList, GapStats
from pisotdyn.quantum import QuantumState, SpacingRun
from pisotdyn.substitution import FIBONACCI_SUBST, PisotReport, classify_pisot
from pisotdyn.words import Alphabet, ComplexityProfile, Word

AB = Alphabet(("0", "1"))

RECORDS = [
    (IntPolynomial, ((-1, -1, 1),)),
    (IntMatrix, (((1, 1), (1, 0)),)),
    (RootCount, (1, 0, 1)),
    (RootLayout, (RootCount(1, 0, 1), RealApprox(Fraction(1), Fraction(2)), True,
                  IntPolynomial((-1, -1, 1)))),
    (RealApprox, (Fraction(1), Fraction(2))),
    (Recurrence, ((1, 1), (0, 1))),
    (Alphabet, (("0", "1"),)),
    (Word, (AB, b"\x00\x01")),
    (ComplexityProfile, ((2, 3),)),
    (AngleList, ((0.5, 1.5),)),
    (GapStats, (1.0, 0.0, 1.0, 1.0, 1)),
    (CantorSpec, (Alphabet(("0", "1", "2")), 1)),
    (QuantumState, (((Word(AB, b"\x00"), 1 + 0j),), False)),
]


@pytest.mark.parametrize("cls, args", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_frozen_value_semantics(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == b and a is not b and hash(a) == hash(b) == hash(a._astuple())
    assert a != object() and len({a, b}) == 1
    assert repr(a).startswith(f"{cls.__name__}({cls._fields[0]}=")
    with pytest.raises(AttributeError):
        setattr(a, cls._fields[0], None)
    with pytest.raises(AttributeError):
        delattr(a, cls._fields[0])
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_equality_needs_the_same_class():
    assert RootCount(1, 0, 1) != (1, 0, 1)
    assert IntPolynomial((1, 1)) != IntPolynomial((1, 2))
    assert root_layout(IntPolynomial((-1, -1, 1))) == root_layout(IntPolynomial((-1, -1, 1)))


def test_report_caches_its_bound_and_stays_frozen():
    report = classify_pisot(FIBONACCI_SUBST)
    assert isinstance(report, PisotReport)
    assert report.conjugate_moduli_bound is report.conjugate_moduli_bound
    with pytest.raises(AttributeError):
        report.primitive = False


def test_spacing_run_is_frozen_and_unhashable():
    # frozen as every record; its manifest is a dict, so it has no hash
    run = SpacingRun((0,), {"beta0": 0.5, "beta1": 1.5})
    assert run == SpacingRun((0,), {"beta0": 0.5, "beta1": 1.5})
    with pytest.raises(AttributeError):
        run.outcomes = (1,)
    with pytest.raises(AttributeError):
        run.angles = AngleList((0.5,))
    with pytest.raises(TypeError):
        hash(run)


def test_fields_by_name_equal_fields_by_position():
    assert RootCount(inside=1, on_circle=0, outside=1) == RootCount(1, 0, 1)
    assert RootCount(1, outside=1, on_circle=0) == RootCount(1, 0, 1)
    assert GapStats(1.0, 0.0, min_gap=1.0, max_gap=1.0, distinct_gaps=1) == GapStats(1.0, 0.0, 1.0, 1.0, 1)
    report = classify_pisot(FIBONACCI_SUBST)
    fields = {f: getattr(report, f) for f in PisotReport._fields}
    assert PisotReport(**fields) == PisotReport(*fields.values()) == report


@pytest.mark.parametrize("args, kwargs", [
    ((1, 0), {}),                    # a missing field
    ((1,), {"outside": 1}),          # a missing field among named ones
    ((1, 0, 1, 2), {}),              # an extra positional value
    ((1, 0, 1), {"degree": 2}),      # an unknown keyword
    ((1, 0, 1), {"inside": 1}),      # a field given twice
], ids=["missing", "missing named", "extra", "unknown", "repeated"])
def test_wrong_fields_raise_type_error_naming_the_class(args, kwargs):
    with pytest.raises(TypeError, match="RootCount"):
        RootCount(*args, **kwargs)
