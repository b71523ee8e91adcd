"""Exact toolkit for linear recurrences.

Trace sequences, arithmetic-progression subsequence recurrences, and
closed-form partial sums, all in exact integer/rational/polynomial
arithmetic with independent cross-checking oracles.
"""

from .kernel import (
    DivisionNotExact,
    DomainError,
    Poly,
    as_integer,
    exact_div,
    scalar_from_str,
    scalar_to_str,
    value_from_json,
    value_to_json,
)
from .recurrence import CoeffVector, InvalidCoeffs, RecurrenceSpec, seq_eval, seq_range
from .lucas import LucasTransform, lucas_transform
from .oracle import (
    UNDERDETERMINED,
    CharPoly,
    NoSolution,
    char_poly,
    char_poly_of_power,
    companion,
    fit_recurrence,
    mat_mul,
    mat_pow,
    mat_trace,
    verify_recurrence,
)
from .progression import GammaVector, SliceReport, gamma_coefficients, subseq_recurrence, verify_slice
from .sums import (
    DegenerateDivisor,
    SumClosedForm,
    invert_sequence,
    partial_sum_closed,
    partial_sum_form,
    progression_sum,
)
from .sequences import CatalogEntry, UnknownName, catalog_get, catalog_names

__version__ = "0.4.0"

__all__ = [
    "CatalogEntry",
    "CharPoly",
    "CoeffVector",
    "DegenerateDivisor",
    "DivisionNotExact",
    "DomainError",
    "GammaVector",
    "InvalidCoeffs",
    "LucasTransform",
    "NoSolution",
    "Poly",
    "RecurrenceSpec",
    "SliceReport",
    "SumClosedForm",
    "UNDERDETERMINED",
    "UnknownName",
    "as_integer",
    "catalog_get",
    "catalog_names",
    "char_poly",
    "char_poly_of_power",
    "companion",
    "exact_div",
    "fit_recurrence",
    "gamma_coefficients",
    "invert_sequence",
    "lucas_transform",
    "mat_mul",
    "mat_pow",
    "mat_trace",
    "partial_sum_closed",
    "partial_sum_form",
    "progression_sum",
    "scalar_from_str",
    "scalar_to_str",
    "seq_eval",
    "seq_range",
    "subseq_recurrence",
    "value_from_json",
    "value_to_json",
    "verify_recurrence",
    "verify_slice",
]
