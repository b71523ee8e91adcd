"""Recurrences along arithmetic progressions.

If (a_n) satisfies an order-d recurrence with coefficients c, then for any
stride m >= 1 and offset r >= 0 the subsequence b_n = a_{mn+r} satisfies an
order-d recurrence of its own.  Its coefficients g_1..g_d are, up to sign,
the elementary symmetric functions of the m-th powers of the characteristic
roots; they are computed here without roots, from the trace sequence alone:

    g_k = sum_{j=1..k} ((-1)^{j+1} / k!) * B_{k,j}(0!*p_1, 1!*p_2, ...),  p_i = hat_{im}

with the trailing coefficient available directly as
g_d = (-1)^{(d+1)(m+1)} * c_d^m.  The row sum is -Y_k(-x)/k! for the complete
Bell polynomial Y_k, whose recurrence here is Newton's identity
k*g_k = p_k - sum_{i<k} g_i*p_{k-i}: d^2/2 products against the table's d^3/6.
The division by k is exact, and results are lowered back to integers (or
integer-coefficient polynomials) with an assertion, never by rounding.
"""

from __future__ import annotations

from .kernel import DomainError, Poly, Record, _check_index, _dot_for, exact_div, lower_like, ring_const
from .lucas import _trace_head
from .oracle import UNDERDETERMINED, NoSolution, char_poly_of_power, fit_recurrence, verify_recurrence
from .recurrence import CoeffVector, RecurrenceSpec, _check_spec, _stride_heads, _stride_terms, as_coeff_vector

#: Most slice terms verify_slice checks: the direct check and the re-fit grow with it.
_MAX_DEPTH = 10_000


class GammaVector(Record):
    """Subsequence coefficients for stride m, as a CoeffVector plus the stride."""

    m: int
    coeffs: CoeffVector

    @property
    def gamma(self) -> tuple:
        return self.coeffs.c

    @property
    def d(self) -> int:
        return self.coeffs.d


def gamma_coefficients(coeffs, m: int, *, cross_check: bool = False) -> GammaVector:
    """Coefficients of the order-d recurrence satisfied by every a_{mn+r}.

    Only trace terms hat_m..hat_{(d-1)m} are needed: the trailing coefficient
    comes from the closed sign formula instead of the k = d Newton step.  With
    cross_check=True that step is taken anyway (it needs hat_{dm}) and
    asserted equal.  The trace sequence obeys the recurrence itself, so
    those terms are jumped to from its Newton head hat_0..hat_{d-1}.
    """
    cv = as_coeff_vector(coeffs)
    _check_index(m, "m", 1)
    depth = cv.d if cross_check else cv.d - 1
    return _gamma_from_hats(cv, m, _stride_terms(cv.c, _trace_head(cv.c), m, m, depth))


def _gamma_from_hats(cv: CoeffVector, m: int, hats: list) -> GammaVector:
    """Gamma from hat_m, hat_{2m}, ...: d - 1 of them, or d to cross-check the trailing coefficient.

    Each Newton step's sum g_1*p_(k-1) + ... + g_(k-1)*p_1 is one kernel dot
    from the ring zero: over Poly data one fused term dict and one Poly,
    over int and Fraction data the C-level sum, decided once per call.
    """
    c = cv.c
    zero = ring_const(0, c)  # trace terms of mixed int/Fraction data can be ints, which divide as ints
    dot = _dot_for(isinstance(zero, Poly))
    gamma = []
    for k, p in enumerate(hats, 1):
        total = dot(gamma, hats[: k - 1][::-1], zero)
        gamma.append(lower_like(exact_div(p - total, k), c))
    last = (-1) ** ((cv.d + 1) * (m + 1)) * c[-1] ** m
    if len(hats) == cv.d:
        newton = gamma.pop()
        if newton != last:
            raise ArithmeticError(f"trailing coefficient mismatch: Newton step {newton}, sign formula {last}")
    gamma.append(last)
    return GammaVector(m=m, coeffs=CoeffVector(tuple(gamma)))


def subseq_recurrence(spec: RecurrenceSpec, m: int, r: int) -> RecurrenceSpec:
    """The recurrence b_n = a_{mn+r} satisfies, with its initial terms.

    The coefficient vector does not depend on r.  One chain of residues
    x^m, ..., x^{(d-1)m} mod q serves both halves of the slice: applied to
    the trace head hat_0..hat_{d-1} it gives gamma's trace terms
    hat_m..hat_{(d-1)m}, and applied to the window a_r..a_{r+d-1} it gives
    the initial terms a_{m+r}, ..., a_{(d-1)m+r}.  The relation holds for n >= d.
    """
    _check_spec(spec)
    _check_index(r, "r")
    _check_index(m, "m", 1)
    cv = spec.coeffs
    window = _stride_terms(cv.c, spec.initial, 1, r, cv.d)
    hats, ahead = _stride_heads(cv.c, (_trace_head(cv.c), window), m, m, cv.d - 1)
    return RecurrenceSpec(_gamma_from_hats(cv, m, hats).coeffs, (window[0], *ahead))


class SliceReport(Record):
    """How the slice b_n = a_{mn+r} fared against gamma, checked four ways.

    gamma is the Newton route over trace terms, already cross-checked against
    the trailing sign formula; charpoly_agree says whether det(tI - C^m) gives the same
    coefficients; violations lists the slice indices where gamma fails on
    the first depth slice terms; fit is the re-fit of those terms:
    "agree", "mismatch", "underdetermined" (a lower-order recurrence fits)
    or "skipped" (fewer than 2d terms, or Poly terms).
    """

    m: int
    r: int
    depth: int
    gamma: GammaVector
    charpoly_agree: bool
    violations: tuple
    fit: str

    @property
    def passed(self) -> bool:
        return self.charpoly_agree and not self.violations and self.fit != "mismatch"


def _fit_state(terms: list, d: int, coeffs: CoeffVector) -> str:
    try:
        fitted = fit_recurrence(terms, d)
    except DomainError:  # fewer than 2d terms, or Poly terms
        return "skipped"
    except NoSolution:
        return "mismatch"
    if fitted is UNDERDETERMINED:
        return "underdetermined"
    return "agree" if fitted == coeffs else "mismatch"


def verify_slice(spec: RecurrenceSpec, m: int, r: int = 0, depth: int = 40) -> SliceReport:
    """Check the slice recurrence of a_{mn+r} by the Newton route, det(tI - C^m),
    a direct check of the first depth slice terms and a re-fit of them.

    depth runs 1..10000.  The direct check covers slice indices d..depth-1,
    so it needs depth > d; the re-fit needs depth >= 2d.
    """
    _check_spec(spec)
    _check_index(m, "m", 1)
    _check_index(r, "r")
    _check_index(depth, "depth", 1)
    if depth > _MAX_DEPTH:
        raise DomainError(f"expected depth <= {_MAX_DEPTH}, got {depth}")
    gv = gamma_coefficients(spec.coeffs, m, cross_check=True)
    terms = _stride_terms(spec.coeffs.c, spec.initial, m, r, depth)
    return SliceReport(
        m=m,
        r=r,
        depth=depth,
        gamma=gv,
        charpoly_agree=gv.coeffs == char_poly_of_power(spec.coeffs, m),
        violations=tuple(verify_recurrence(terms, gv.coeffs)),
        fit=_fit_state(terms, spec.order, gv.coeffs),
    )
