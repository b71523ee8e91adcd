"""Every value argument of the exact code (Bell arguments, matrix entries, terms, look-ahead terms, k) must be an int, a Fraction or a Poly: a float or a bool is a DomainError."""

from fractions import Fraction

import pytest

from linrec import (
    CoeffVector,
    DomainError,
    InvalidCoeffs,
    Poly,
    RecurrenceSpec,
    UnknownName,
    catalog_get,
    exact_div,
    lucas_transform,
    partial_sum_closed,
    partial_sum_form,
    progression_sum,
    scalar_from_str,
    scalar_to_str,
    seq_eval,
    seq_range,
    subseq_recurrence,
    value_from_json,
    value_to_json,
    verify_slice,
)
from linrec.oracle import char_poly, fit_recurrence, mat_mul, mat_pow, mat_trace, verify_recurrence
from linrec.progression import gamma_coefficients
from witnesses import bell_partial, bell_table, bell_truncated3, evaluate_form, k_lucas_number, set_partition_oracle

FIB = RecurrenceSpec((1, 1), (0, 1))  # q(1) = -1, so every look-ahead sum divides exactly

# each entry calls one public function with the bad value in one value slot
ENTRIES = {
    "bell_partial.x": lambda v: bell_partial(2, 1, (1, v)),
    "bell_partial.x-past-n": lambda v: bell_partial(1, 2, (v,)),
    "bell_table.x": lambda v: bell_table(2, (v, 1)),
    "set_partition_oracle.x": lambda v: set_partition_oracle(2, 1, (1, v)),
    "bell_truncated3.x1": lambda v: bell_truncated3(2, 1, v, 1, 1),
    "bell_truncated3.x2": lambda v: bell_truncated3(2, 1, 1, v, 1),
    "bell_truncated3.x3": lambda v: bell_truncated3(2, 1, 1, 1, v),
    "mat_mul.entry": lambda v: mat_mul([[v]], [[2]]),
    "mat_pow.entry": lambda v: mat_pow([[v]], 2),
    "mat_trace.entry": lambda v: mat_trace([[v]]),
    "exact_div.divisor": lambda v: exact_div(4, v),
    "exact_div.divisor-poly": lambda v: exact_div(Poly.variables(1)[0], v),
    "char_poly.entry": lambda v: char_poly([[v]]),
    "verify_recurrence.terms": lambda v: verify_recurrence([1, 1, v], (1, 1)),
    "fit_recurrence.terms": lambda v: fit_recurrence([v, v, v, v], 1),
    "k_lucas_number.k": lambda v: k_lucas_number(v, 3),
    # the closed form applied to look-ahead terms; the key keeps its earlier method name, so test ids stay put
    "SumClosedForm.evaluate.lookahead": lambda v: evaluate_form(partial_sum_form(FIB), (v, 1)),
}
BAD = [1.5, 2.0, True, "2", None]


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_inexact_value_is_a_domain_error(entry, bad):
    with pytest.raises(DomainError):
        ENTRIES[entry](bad)


@pytest.mark.parametrize("good", [2, Fraction(1, 2)], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_exact_value_is_accepted(entry, good):
    # so each rejection above comes from the slot under test, not from the other arguments
    ENTRIES[entry](good)


def test_k_lucas_number_stays_in_k_domain():
    # the trace of (1/2, 1) is 2, 1/2, 9/4, 13/8, ...
    assert k_lucas_number(Fraction(1, 2), 3) == Fraction(13, 8)
    assert k_lucas_number(2, 3) == 14


# a public call given a value of the wrong kind, and the library exception it raises
WRONG_KIND = {
    "scalar_to_str.bool": (lambda: scalar_to_str(True), DomainError),
    "scalar_to_str.float": (lambda: scalar_to_str(1.5), DomainError),
    "value_to_json.bool": (lambda: value_to_json(True), DomainError),
    "scalar_from_str.zero-denominator": (lambda: scalar_from_str("1/0"), DomainError),
    "scalar_from_str.not-text": (lambda: scalar_from_str(5), DomainError),
    "scalar_from_str.bytes": (lambda: scalar_from_str(b"12"), DomainError),
    "value_from_json.list": (lambda: value_from_json([]), DomainError),
    "value_from_json.no-terms": (lambda: value_from_json({"nvars": 1}), DomainError),
    "CoeffVector.int": (lambda: CoeffVector(5), InvalidCoeffs),
    "RecurrenceSpec.initial-int": (lambda: RecurrenceSpec((1, 1), 5), InvalidCoeffs),
    "lucas_transform.coeffs-int": (lambda: lucas_transform(5, 3), InvalidCoeffs),
    "bell_table.x-int": (lambda: bell_table(3, 5), DomainError),
    "catalog_get.none": (lambda: catalog_get(None), UnknownName),
    "mat_pow.none": (lambda: mat_pow(None, 2), DomainError),
    "mat_trace.none": (lambda: mat_trace(None), DomainError),
    "char_poly.int": (lambda: char_poly(5), DomainError),
    "char_poly.int-row": (lambda: char_poly([5]), DomainError),
    "mat_mul.int-right": (lambda: mat_mul([[1]], 5), DomainError),
    # a set or a mapping has no order to read values in, and a mapping iterates its keys
    "CoeffVector.dict": (lambda: CoeffVector({2: "a", 9: "b"}), InvalidCoeffs),
    "RecurrenceSpec.initial-set": (lambda: RecurrenceSpec((1, 1), {9, 2}), InvalidCoeffs),
    "gamma_coefficients.coeffs-frozenset": (lambda: gamma_coefficients(frozenset({3, 1}), 2), InvalidCoeffs),
    "verify_recurrence.terms-dict": (lambda: verify_recurrence({0: 1, 1: 1, 2: 2}, (1, 1)), DomainError),
    "Poly.call.set": (lambda: Poly.variables(2)[0]({1, 2}), DomainError),
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND))
def test_wrong_kind_is_a_library_error(case):
    call, error = WRONG_KIND[case]
    with pytest.raises(error):
        call()


# each public call that takes a RecurrenceSpec, with the spec slot left to the test
SPEC_CALLS = {
    "seq_eval": lambda spec: seq_eval(spec, 3),
    "seq_range": lambda spec: seq_range(spec, 0, 3),
    "partial_sum_closed": lambda spec: partial_sum_closed(spec, 3),
    "partial_sum_form": partial_sum_form,
    "progression_sum": lambda spec: progression_sum(spec, 2, 1, 3),
    "subseq_recurrence": lambda spec: subseq_recurrence(spec, 2, 1),
    "verify_slice": lambda spec: verify_slice(spec, 2),
}


@pytest.mark.parametrize("not_spec", [None, (1, 1), CoeffVector((1, 1))], ids=repr)
@pytest.mark.parametrize("call", sorted(SPEC_CALLS))
def test_non_spec_is_invalid_coeffs(call, not_spec):
    with pytest.raises(InvalidCoeffs):
        SPEC_CALLS[call](not_spec)


@pytest.mark.parametrize("call", sorted(SPEC_CALLS))
def test_spec_is_accepted(call):
    # so each rejection above comes from the spec slot, not from the other arguments
    SPEC_CALLS[call](FIB)


def test_ordered_iterables_are_accepted():
    # only sets and mappings are refused: a generator or a dict's values still give values in order
    assert CoeffVector(c for c in (1, 1)).c == (1, 1)
    assert RecurrenceSpec((1, 1), {"a0": 0, "a1": 1}.values()).initial == (0, 1)
    assert verify_recurrence(iter([1, 1, 2, 4]), (1, 1)) == [3]
