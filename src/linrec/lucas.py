"""Trace sequences attached to recurrence coefficients.

For coefficients c_1..c_d the trace sequence (hat-sequence) is the power-sum
sequence of the characteristic roots: hat_0 = d and hat_n = sum of n-th
powers of the roots.  It is computed without ever touching the roots, two
independent ways:

  * Newton's identities give hat_n = c_1*hat_{n-1} + ... + c_{n-1}*hat_1
    + n*c_n for 1 <= n <= d, after which the recurrence itself takes over.
  * A partial-Bell expansion gives hat_n directly from the coefficients,
    with (k-1)!/(n-1)! prefactors whose rational parts always cancel: one
    exact Bell row sum (:func:`linrec.bell._bell_row_sum`) per term.

The classical examples: coefficients (1,1) give the Lucas numbers
2, 1, 3, 4, 7, 11, ...; coefficients (1,1,1) give 3, 1, 3, 7, 11, 21, ...
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from .bell import _bell_row_sum, bell_table
from .kernel import Poly, _check_exact, _check_index, _dot_for, as_integer, lower_like, ring_const
from .recurrence import CoeffVector, _stride_terms, as_coeff_vector


def _trace_head(c: tuple) -> tuple:
    """hat_0..hat_{d-1} by Newton's identities: the trace sequence's initial terms.

    From hat_d on, Newton's identity is the recurrence itself, because hat_0 = d.
    """
    terms = [ring_const(len(c), c)]
    dot = _dot_for(isinstance(terms[0], Poly))
    for n in range(1, len(c)):
        terms.append(dot(c[:n], [*terms[:0:-1], n]))
    return tuple(terms)


@dataclass(frozen=True)
class LucasTransform:
    """Coefficients plus their trace terms hat_0..hat_N."""

    coeffs: CoeffVector
    terms: tuple


def lucas_transform(coeffs, upto: int) -> LucasTransform:
    """Trace terms hat_0..hat_upto: the window from hat_0 of the recurrence with the Newton head."""
    cv = as_coeff_vector(coeffs)
    _check_index(upto, "upto")
    return LucasTransform(cv, tuple(_stride_terms(cv.c, _trace_head(cv.c), 1, 0, upto + 1)))


def lucas_transform_bell_prefix(coeffs, upto: int) -> list:
    """Trace terms hat_1..hat_upto by the Bell expansion, one shared table.

    Given g = gamma_coefficients(c, m).gamma it returns hat_m, hat_2m, ... of c,
    a round trip through the whole gamma pipeline.
    """
    cv = as_coeff_vector(coeffs)
    _check_index(upto, "upto", 1)
    x = tuple(math.factorial(i) * ci for i, ci in enumerate(cv.c, start=1))
    table = bell_table(upto, x)
    weights = [math.factorial(k - 1) for k in range(1, upto + 1)]
    return [_bell_row_sum(table[n], weights, math.factorial(n - 1), cv.c) for n in range(1, upto + 1)]


# ---------------------------------------------------------------------------
# Closed-form single terms for four classical families.  Each sums a short
# binomial expression with rational m/(m-j) prefactors that cancel exactly;
# binomials whose arguments fall outside 0 <= k <= n are zero and skipped.


def k_lucas_number(k, m: int):
    """m-th term of the trace sequence of coefficients (k, 1), in k's exact domain."""
    _check_exact((k,), "k")
    _check_index(m, "m", 1)
    total = Fraction(0)
    for j in range(m // 2 + 1):
        total += Fraction(m, m - j) * math.comb(m - j, j) * k ** (m - 2 * j)
    return lower_like(total, (k,))


def tribonacci_hat_number(m: int) -> int:
    """m-th term of the trace sequence of coefficients (1, 1, 1)."""
    _check_index(m, "m", 1)
    total = Fraction(0)
    for j in range(0, m):
        for l in range((j + 1) // 2, min(j, m - j) + 1):
            total += Fraction(m, m - j) * math.comb(m - j, l) * math.comb(l, j - l)
    return as_integer(total)


def perrin_number(m: int) -> int:
    """m-th term of the trace sequence of coefficients (0, 1, 1)."""
    _check_index(m, "m", 1)
    total = Fraction(0)
    for j in range((m + 1) // 2, 2 * m // 3 + 1):
        total += Fraction(m, m - j) * math.comb(m - j, 2 * j - m)
    return as_integer(total)


def narayana_hat_number(m: int) -> int:
    """m-th term of the trace sequence of coefficients (1, 0, 1)."""
    _check_index(m, "m", 1)
    total = Fraction(0)
    for j in range(min((m - 1) // 2, m // 3) + 1):
        total += Fraction(m, m - 2 * j) * math.comb(m - 2 * j, j)
    return as_integer(total)
