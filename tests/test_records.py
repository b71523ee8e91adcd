"""The result classes are immutable records: each built from a real library call keeps the dataclass contract."""

import copy
from fractions import Fraction
import pickle

import pytest

from linrec import (
    CatalogEntry,
    CharPoly,
    CoeffVector,
    GammaVector,
    LucasTransform,
    RecurrenceSpec,
    SliceReport,
    SumClosedForm,
    catalog_get,
    char_poly,
    char_poly_of_power,
    gamma_coefficients,
    lucas_transform,
    partial_sum_form,
    subseq_recurrence,
    verify_slice,
)

# (class, a call that returns one, its repr as the dataclasses printed it)
CASES = [
    (CoeffVector, lambda: char_poly_of_power((1, 1), 3), "CoeffVector(c=(4, 1))"),
    (
        RecurrenceSpec,
        lambda: subseq_recurrence(RecurrenceSpec((1, 1), (0, 1)), 3, 1),
        "RecurrenceSpec(coeffs=CoeffVector(c=(4, 1)), initial=(1, 3))",
    ),
    (CharPoly, lambda: char_poly([[1, 1], [1, 0]]), "CharPoly(coeffs=(-1, -1, 1))"),
    (GammaVector, lambda: gamma_coefficients((1, 1, 1), 5), "GammaVector(m=5, coeffs=CoeffVector(c=(21, 1, 1)))"),
    (
        SliceReport,
        lambda: verify_slice(RecurrenceSpec((1, 0, 1), (1, 1, 1)), 3, 2, 12),
        "SliceReport(m=3, r=2, depth=12, gamma=GammaVector(m=3, coeffs=CoeffVector(c=(4, -3, 1))), "
        "charpoly_agree=True, violations=(), fit='agree')",
    ),
    (
        SumClosedForm,
        lambda: partial_sum_form(RecurrenceSpec((Fraction(1, 2), 3), (1, Fraction(2, 3)))),
        "SumClosedForm(divisor=Fraction(-5, 2), weights=(Fraction(-1, 2), -1), constant=Fraction(7, 6))",
    ),
    (
        LucasTransform,
        lambda: lucas_transform((1, 1), 6),
        "LucasTransform(coeffs=CoeffVector(c=(1, 1)), terms=(2, 1, 3, 4, 7, 11, 18))",
    ),
    (
        CatalogEntry,
        lambda: catalog_get("k_lucas(2)"),
        "CatalogEntry(name='k_lucas(2)', oeis=None, spec=RecurrenceSpec(coeffs=CoeffVector(c=(2, 1)), "
        "initial=(2, 2)), prefix=(2, 2, 6, 14, 34, 82, 198, 478, 1154, 2786, 6726, 16238, 39202, 94642, "
        "228486, 551614, 1331714, 3215042, 7761798, 18738638), hat_of='k_fibonacci(2)', "
        "notes='trace sequence of k_fibonacci(2)')",
    ),
]


def positional(record) -> tuple:
    """The fields a positional class pattern binds, for the arities the records have."""
    cls, n = type(record), len(type(record).__match_args__)
    match record:
        case cls(a) if n == 1:
            return (a,)
        case cls(a, b) if n == 2:
            return (a, b)
        case cls(a, b, c) if n == 3:
            return (a, b, c)
        case cls(a, b, c, d, e, f) if n == 6:
            return (a, b, c, d, e, f)
        case cls(a, b, c, d, e, f, g) if n == 7:
            return (a, b, c, d, e, f, g)
    raise AssertionError(f"no pattern matched {record!r}")


@pytest.mark.parametrize("cls, build, shown", CASES, ids=[case[0].__name__ for case in CASES])
def test_record_contract(cls, build, shown):
    record, again = build(), build()
    assert type(record) is cls
    names = cls.__match_args__
    fields = tuple(getattr(record, name) for name in names)
    assert repr(record) == shown

    assert record == again and hash(record) == hash(again)
    assert record != fields and fields != record
    twin = type("Twin", (cls,), {})(*fields)
    assert twin.__match_args__ == names and record != twin and twin != record

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)
    assert cls(**dict(zip(names, fields))) == cls(*fields) == record

    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in names) == fields
    with pytest.raises(TypeError):
        cls(*fields[:-1])
    with pytest.raises(TypeError):
        cls(*fields, fields[-1])
    assert cls(*fields[:1], **dict(zip(names[1:], fields[1:]))) == record
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*fields, extra=1)
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*fields, **{names[0]: fields[0]})
    with pytest.raises(TypeError, match=cls.__name__):
        cls(**dict(zip(names[:-1], fields[:-1])))

    assert positional(record) == fields
