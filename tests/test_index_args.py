"""Every index argument (n, k, j, m, r, d, i, nvars, depth, upto, exponent) must be an int, not a bool, and in range."""

from fractions import Fraction

import pytest

from linrec import CoeffVector, DomainError, Poly, RecurrenceSpec
from linrec.lucas import lucas_transform
from linrec.oracle import CharPoly, char_poly_of_power, companion, fit_recurrence, mat_pow
from linrec.progression import gamma_coefficients, subseq_recurrence, verify_slice
from linrec.recurrence import seq_eval, seq_range
from linrec.sums import invert_sequence, partial_sum_closed, progression_sum
from witnesses import (
    bell_partial,
    bell_table,
    bell_truncated3,
    invert_partial_sum,
    k_lucas_number,
    lucas_transform_bell_prefix,
    narayana_hat_number,
    perrin_number,
    set_partition_oracle,
    tribonacci_hat_number,
)

FIB = RecurrenceSpec(CoeffVector((1, 1)), (0, 1))
FIB_TERMS = seq_range(FIB, 0, 12)
X = Poly.variable(0, 1)

# each entry calls one public function with the bad value in one index slot
ENTRIES = {
    "seq_eval.n": lambda v: seq_eval(FIB, v),
    "seq_range.n0": lambda v: seq_range(FIB, v, 5),
    "seq_range.n1": lambda v: seq_range(FIB, 0, v),
    "gamma_coefficients.m": lambda v: gamma_coefficients((1, 1), v),
    "subseq_recurrence.m": lambda v: subseq_recurrence(FIB, v, 0),
    "subseq_recurrence.r": lambda v: subseq_recurrence(FIB, 2, v),
    "verify_slice.m": lambda v: verify_slice(FIB, v),
    "verify_slice.r": lambda v: verify_slice(FIB, 2, v),
    "verify_slice.depth": lambda v: verify_slice(FIB, 2, 0, v),
    "partial_sum_closed.n": lambda v: partial_sum_closed(FIB, v),
    "progression_sum.m": lambda v: progression_sum(FIB, v, 0, 3),
    "progression_sum.r": lambda v: progression_sum(FIB, 2, v, 3),
    "progression_sum.n": lambda v: progression_sum(FIB, 2, 0, v),
    "lucas_transform.upto": lambda v: lucas_transform((1, 1), v),
    "lucas_transform_bell_prefix.upto": lambda v: lucas_transform_bell_prefix((1, 1), v),
    "invert_sequence.upto": lambda v: invert_sequence((1, 1), v),
    "invert_partial_sum.n": lambda v: invert_partial_sum((1, 1), v),
    "bell_table.upto": lambda v: bell_table(v, (1, 1)),
    "bell_partial.n": lambda v: bell_partial(v, 1, (1, 1)),
    "bell_partial.k": lambda v: bell_partial(3, v, (1, 1)),
    "bell_truncated3.m": lambda v: bell_truncated3(v, 1, 1, 1, 1),
    "bell_truncated3.j": lambda v: bell_truncated3(3, v, 1, 1, 1),
    "set_partition_oracle.n": lambda v: set_partition_oracle(v, 1, (1, 1, 1)),
    "set_partition_oracle.k": lambda v: set_partition_oracle(3, v, (1, 1, 1)),
    "k_lucas_number.m": lambda v: k_lucas_number(1, v),
    "tribonacci_hat_number.m": lambda v: tribonacci_hat_number(v),
    "perrin_number.m": lambda v: perrin_number(v),
    "narayana_hat_number.m": lambda v: narayana_hat_number(v),
    "mat_pow.exponent": lambda v: mat_pow(companion((1, 1)), v),
    "char_poly_of_power.m": lambda v: char_poly_of_power((1, 1), v),
    "Poly.variables.nvars": lambda v: Poly.variables(v),
    "Poly.variable.i": lambda v: Poly.variable(v, 4),
    "Poly.variable.nvars": lambda v: Poly.variable(0, v),
    "Poly.pow.exponent": lambda v: X**v,
    "fit_recurrence.d": lambda v: fit_recurrence(FIB_TERMS, v),
    "CharPoly.elementary.k": lambda v: CharPoly((1, 0, 0, 0, 1)).elementary(v),
}
BAD = [2.5, 3.0, True, Fraction(3), "3", None, -1]


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_bad_index_is_a_domain_error(entry, bad):
    with pytest.raises(DomainError):
        ENTRIES[entry](bad)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_good_index_is_accepted(entry):
    # so each rejection above comes from the slot under test, not from the other arguments
    ENTRIES[entry](3)

