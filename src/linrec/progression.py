"""Recurrences along arithmetic progressions.

If (a_n) satisfies an order-d recurrence with coefficients c, then for any
stride m >= 1 and offset r >= 0 the subsequence b_n = a_{mn+r} satisfies an
order-d recurrence of its own.  Its coefficients g_1..g_d are, up to sign,
the elementary symmetric functions of the m-th powers of the characteristic
roots; they are computed here without roots, from the trace sequence alone:

    g_k = sum_{j=1..k} ((-1)^{j+1} / k!) * B_{k,j}(0!*hat_m, 1!*hat_{2m}, ...)

with the trailing coefficient available directly as
g_d = (-1)^{(d+1)(m+1)} * c_d^m.  All intermediate rationals cancel; results
are lowered back to integers (or integer-coefficient polynomials) with an
assertion, never by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .bell import bell_table
from .kernel import DomainError, Poly, exact_div, lower_like, ring_const, ring_exemplar
from .lucas import lucas_transform
from .oracle import UNDERDETERMINED, NoSolution, char_poly_of_power, fit_recurrence, verify_recurrence
from .recurrence import CoeffVector, RecurrenceSpec, _stride_terms, as_coeff_vector


@dataclass(frozen=True)
class GammaVector:
    """Subsequence coefficients for stride m, as a CoeffVector plus the stride."""

    m: int
    coeffs: CoeffVector

    @property
    def gamma(self) -> tuple:
        return self.coeffs.c

    @property
    def d(self) -> int:
        return self.coeffs.d


def _bell_sum(table, k: int, c) -> object:
    """sum_{j=1..k} ((-1)^{j+1} / k!) * B_{k,j} from a prepared Bell table.

    The signed entries are summed in the domain of the coefficients c and
    divided by k! once, so integer data stays integer until that one exact
    division.  The sum starts at c's zero because the table skips zero
    arguments, so some entries stay int-typed even over Fraction data.
    """
    total = ring_const(0, ring_exemplar(c))
    for j in range(1, k + 1):
        total = total + table[k][j] if j % 2 else total - table[k][j]
    return exact_div(total, math.factorial(k))


def gamma_coefficients(coeffs, m: int, *, cross_check: bool = False) -> GammaVector:
    """Coefficients of the order-d recurrence satisfied by every a_{mn+r}.

    Only trace terms hat_m..hat_{(d-1)m} are needed: the trailing coefficient
    comes from the closed sign formula instead of the k = d Bell sum.  With
    cross_check=True that Bell sum is evaluated anyway (it needs hat_{dm})
    and asserted equal.  The trace sequence obeys the recurrence itself, so
    those terms are jumped to from its Newton head hat_0..hat_{d-1}.
    """
    cv = as_coeff_vector(coeffs)
    if m < 1:
        raise DomainError(f"stride m must be >= 1, got {m}")
    d = cv.d
    depth = d if cross_check else d - 1
    hats = _stride_terms(cv.c, lucas_transform(cv, d - 1).terms, m, m, depth)
    x = tuple(math.factorial(i) * hat for i, hat in enumerate(hats))
    table = bell_table(depth, x)
    gamma = [lower_like(_bell_sum(table, k, cv.c), cv.c) for k in range(1, d)]
    sign = (-1) ** ((d + 1) * (m + 1))
    last = sign * cv.c[-1] ** m
    if cross_check:
        from_bell = lower_like(_bell_sum(table, d, cv.c), cv.c)
        if from_bell != last:
            raise ArithmeticError(
                f"trailing coefficient mismatch: Bell sum {from_bell}, sign formula {last}"
            )
    gamma.append(last)
    return GammaVector(m=m, coeffs=CoeffVector(tuple(gamma)))


def subseq_recurrence(spec: RecurrenceSpec, m: int, r: int) -> RecurrenceSpec:
    """The recurrence b_n = a_{mn+r} satisfies, with its initial terms.

    The coefficient vector does not depend on r; the initial terms
    a_r, a_{m+r}, ..., a_{(d-1)m+r} are jumped to.  The relation holds for n >= d.
    """
    if r < 0:
        raise DomainError(f"offset r must be >= 0, got {r}")
    gv = gamma_coefficients(spec.coeffs, m)
    initial = _stride_terms(spec.coeffs.c, spec.initial, m, r, spec.order)
    return RecurrenceSpec(gv.coeffs, tuple(initial))


@dataclass(frozen=True)
class SliceReport:
    """How the slice b_n = a_{mn+r} fared against gamma, checked four ways.

    gamma is the Bell route, already cross-checked against the trailing sign
    formula; charpoly_agree says whether det(tI - C^m) gives the same
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
    if len(terms) < 2 * d or any(isinstance(t, Poly) for t in terms):
        return "skipped"
    try:
        fitted = fit_recurrence(terms, d)
    except NoSolution:
        return "mismatch"
    if fitted is UNDERDETERMINED:
        return "underdetermined"
    return "agree" if fitted == coeffs else "mismatch"


def verify_slice(spec: RecurrenceSpec, m: int, r: int = 0, depth: int = 40) -> SliceReport:
    """Check the slice recurrence of a_{mn+r} by the Bell route, det(tI - C^m),
    a direct check of the first depth slice terms and a re-fit of them.

    The direct check covers slice indices d..depth-1, so it needs depth > d;
    the re-fit needs depth >= 2d.
    """
    if m < 1 or r < 0 or depth < 1:
        raise DomainError(
            f"verify_slice needs m >= 1, r >= 0 and depth >= 1; got m={m}, r={r}, depth={depth}"
        )
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
