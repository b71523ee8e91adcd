"""Trace sequences attached to recurrence coefficients.

For coefficients c_1..c_d the trace sequence (hat-sequence) is the power-sum
sequence of the characteristic roots: hat_0 = d and hat_n = sum of n-th
powers of the roots.  It is computed without ever touching the roots:
Newton's identities give hat_n = c_1*hat_{n-1} + ... + c_{n-1}*hat_1 + n*c_n
for 1 <= n <= d, after which the recurrence itself, run by the term engine,
takes over.  The tests hold it to two independent routes, the paper's
partial-Bell expansion and traces of companion-matrix powers.

The classical examples: coefficients (1,1) give the Lucas numbers
2, 1, 3, 4, 7, 11, ...; coefficients (1,1,1) give 3, 1, 3, 7, 11, 21, ...
"""

from __future__ import annotations

from .kernel import Poly, Record, _check_index, _dot_for, ring_const
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


class LucasTransform(Record):
    """Coefficients plus their trace terms hat_0..hat_N."""

    coeffs: CoeffVector
    terms: tuple


def lucas_transform(coeffs, upto: int) -> LucasTransform:
    """Trace terms hat_0..hat_upto: the window from hat_0 of the recurrence with the Newton head."""
    cv = as_coeff_vector(coeffs)
    _check_index(upto, "upto")
    return LucasTransform(cv, tuple(_stride_terms(cv.c, _trace_head(cv.c), 1, 0, upto + 1)))
