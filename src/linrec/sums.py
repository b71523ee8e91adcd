"""Closed-form partial sums of linear recurrences.

Summing the defining relation telescopes into the identity

    q(1) * sum_{j=0..n} a_j  =  sum_{j=0..d-1} w_j * (a_{n+j+1} - a_j),

where q(t) = 1 - c_1 t - ... - c_d t^d and w_j = sum_{i=0..d-1-j} c_i with
the convention c_0 = -1.  When q(1) != 0 this solves the partial sum in
closed form from d look-ahead terms; when q(1) = 0 no closed form of this
shape exists (DegenerateDivisor) and callers fall back to direct summation.

The weighted sequence a'_k = sum_j w_j a_{k+j} satisfies the same
recurrence, so the identity reads S_n = (a'_{n+1} - a'_0) / q(1), and a sum
computes that and nothing more: q(1) once, checked before any term, then
one of three routes:

* walked int sum: on int data whose look-ahead a_{n+1}..a_{n+d} the term
  engine would walk to (:func:`linrec.recurrence._walks`), the walked terms
  a_0..a_n are added up, with d fewer steps and no division;
* window: below n + d = _HALF_JUMP_FROM the weights are applied to that
  look-ahead window, which the term engine supplies;
* half jump: from there on a sum is one far term: the engine gives
  a'_{n+1} straight from the head a'_0..a'_{d-1}.

No sum builds a :class:`SumClosedForm`; the form is for display.

The same machinery applies to arithmetic-progression subsequences: their own
recurrence (from :mod:`linrec.progression`) is summed the same way, and its
divisor can degenerate even when the base one does not (coefficients (1,-1)
at stride 6, for instance).

The inverse sequence y (generating function 1/q(t)) is the recurrence's own
solution from the head 0, ..., 0, 1.  The tests hold two identities over it:
the sum identity with an extra +1 and no subtracted head, which balances
even in the degenerate case, and the decomposition of any initial vector
over shifts of y.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import DomainError, Poly, _check_index, dot, exact_div, ring_const
from .progression import subseq_recurrence
from .recurrence import RecurrenceSpec, _stride_terms, _walks, as_coeff_vector, seq_range


# Where a sum leaves the window for the half jump.  Up to n = 500 the window took
# 0.3-0.98 of the half jump's time on int and Fraction data at d = 2..8; the half
# jump pulls ahead from about n = 1000 on some specs, only past 4000 on others.
_HALF_JUMP_FROM = 256


class DegenerateDivisor(ArithmeticError):
    """q(1) = 0: the closed partial-sum form does not exist for these coefficients."""


def _weights(c: tuple) -> list:
    """w_j = -1 + c_1 + ... + c_{d-1-j} for j = 0..d-1 (the c_0 = -1 convention)."""
    d = len(c)
    return [sum(c[: d - 1 - j]) - 1 for j in range(d)]


@dataclass(frozen=True)
class SumClosedForm:
    """Exact closed form: sum_{j<=n} a_j = (sum_j weights[j]*a_{n+j+1} + constant) / divisor."""

    divisor: object
    weights: tuple
    constant: object


def _divisor(c: tuple):
    """q(1) = 1 - c_1 - ... - c_d; DegenerateDivisor when it is zero."""
    divisor = 1 - sum(c)
    if divisor == 0:
        raise DegenerateDivisor("q(1) = 0 for these coefficients; sum the terms directly instead")
    return divisor


def _check_divisor(c: tuple):
    """q(1) for a closed sum to divide by: DegenerateDivisor when it is zero, DomainError when a polynomial."""
    divisor = _divisor(c)
    if isinstance(divisor, Poly) and divisor.total_degree() > 0:
        raise DomainError(f"the closed sum divides by q(1) = {divisor}, a polynomial")
    return divisor


def partial_sum_form(spec: RecurrenceSpec) -> SumClosedForm:
    """Build the closed form for a spec; DegenerateDivisor when q(1) = 0."""
    c = spec.coeffs.c
    divisor = _divisor(c)
    weights = _weights(c)
    constant = -dot(weights, spec.initial)
    return SumClosedForm(divisor=divisor, weights=tuple(weights), constant=constant)


def partial_sum_closed(spec: RecurrenceSpec, n: int):
    """sum_{j=0..n} a_j in closed form, exactly: (a'_{n+1} - a'_0) / q(1).

    q(1) is computed once and checked before any term: zero raises
    DegenerateDivisor, a non-constant polynomial DomainError.  Then the sum
    takes one of the three routes in the module docstring; the half jump
    forms a'_0..a'_{d-1} from a_0..a_{2d-2}.  Fraction and Poly data never
    take the walked sum: each rational term read off alone costs a gcd, and
    the sum of a Poly spec's int head terms would come back as an int.
    """
    _check_index(n, "n")
    c = spec.coeffs.c
    divisor = _check_divisor(c)
    d = spec.order
    if _walks(d, 1, n + 1, d, False) and set(map(type, c + spec.initial)) == {int}:
        return sum(seq_range(spec, 0, n))
    w = _weights(c)
    if n + d < _HALF_JUMP_FROM:
        ahead, start = dot(w, seq_range(spec, n + 1, n + d)), dot(w, spec.initial)
    else:
        a = _stride_terms(c, spec.initial, 1, 0, 2 * d - 1)
        head = tuple(dot(w, a[k : k + d]) for k in range(d))  # a'_k = sum_j w_j a_{k+j}
        ahead, start = _stride_terms(c, head, 1, n + 1, 1)[0], head[0]
    return exact_div(ahead - start, divisor)  # (a'_{n+1} - a'_0) / q(1)


def invert_sequence(coeffs, upto: int) -> list:
    """Terms y_0..y_upto of the inverse sequence (generating function 1/q).

    y is the recurrence's own solution from y_{1-d} = ... = y_{-1} = 0, y_0 = 1.
    """
    cv = as_coeff_vector(coeffs)
    _check_index(upto, "upto")
    return _stride_terms(cv.c, (0,) * (cv.d - 1) + (ring_const(1, cv.c),), 1, cv.d - 1, upto + 1)


def progression_sum(spec: RecurrenceSpec, m: int, r: int, n: int):
    """sum_{j=0..n} a_{mj+r} in closed form, via the subsequence's own recurrence.

    The slice is summed by :func:`partial_sum_closed`, on the same three
    routes.  Raises DegenerateDivisor when the subsequence divisor vanishes,
    which can happen even though the base divisor does not.  The base
    divisor is checked first, before the slice recurrence is built: with
    Q(t) = 1 - c_1 t - ... - c_d t^d the slice's divisor is
    Q(1) Q(w) ... Q(w^(m-1)) for w a primitive m-th root of unity, so a zero
    Q(1) makes it zero (DegenerateDivisor).  A polynomial Q(1) raises
    DomainError, as in :func:`partial_sum_closed`, even where some Q(w^j)
    vanishes and the slice's divisor is zero.
    """
    _check_index(m, "m", 1)
    _check_index(r, "r")
    _check_index(n, "n")
    _check_divisor(spec.coeffs.c)
    return partial_sum_closed(subseq_recurrence(spec, m, r), n)
