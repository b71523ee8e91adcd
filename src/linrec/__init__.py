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
from .recurrence import CoeffVector, InvalidCoeffs, RecurrenceSpec, seq_eval, seq_range, seq_window
from .bell import SizeLimit, bell_partial, bell_table, bell_truncated3, set_partition_oracle
from .lucas import (
    LucasTransform,
    k_lucas_number,
    lucas_transform,
    lucas_transform_bell_prefix,
    narayana_hat_number,
    perrin_number,
    tribonacci_hat_number,
)
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
    InvertSumCheck,
    SumClosedForm,
    invert_partial_sum,
    invert_sequence,
    lambda_decompose,
    partial_sum_closed,
    partial_sum_form,
    progression_sum,
)
from .sequences import CatalogEntry, UnknownName, catalog_get, catalog_names, catalog_selfcheck

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CharPoly",
    "CoeffVector",
    "DegenerateDivisor",
    "DivisionNotExact",
    "DomainError",
    "GammaVector",
    "InvalidCoeffs",
    "InvertSumCheck",
    "LucasTransform",
    "NoSolution",
    "Poly",
    "RecurrenceSpec",
    "SizeLimit",
    "SliceReport",
    "SumClosedForm",
    "UNDERDETERMINED",
    "UnknownName",
    "as_integer",
    "bell_partial",
    "bell_table",
    "bell_truncated3",
    "catalog_get",
    "catalog_names",
    "catalog_selfcheck",
    "char_poly",
    "char_poly_of_power",
    "companion",
    "exact_div",
    "fit_recurrence",
    "gamma_coefficients",
    "invert_partial_sum",
    "invert_sequence",
    "k_lucas_number",
    "lambda_decompose",
    "lucas_transform",
    "lucas_transform_bell_prefix",
    "mat_mul",
    "mat_pow",
    "mat_trace",
    "narayana_hat_number",
    "partial_sum_closed",
    "partial_sum_form",
    "perrin_number",
    "progression_sum",
    "scalar_from_str",
    "scalar_to_str",
    "seq_eval",
    "seq_range",
    "seq_window",
    "set_partition_oracle",
    "subseq_recurrence",
    "tribonacci_hat_number",
    "value_from_json",
    "value_to_json",
    "verify_recurrence",
    "verify_slice",
]
