"""Recurrence specifications and exact term evaluation.

A homogeneous linear recurrence of order d is described by coefficients
c_1..c_d (c_d nonzero) with

    a_n = c_1*a_{n-1} + c_2*a_{n-2} + ... + c_d*a_{n-d}    for n >= d,

together with initial terms a_0..a_{d-1}.  Coefficients and terms may live in
any of the exact domains from :mod:`linrec.kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .kernel import DomainError, Poly


class InvalidCoeffs(ValueError):
    """Coefficient or initial-value data does not describe a valid recurrence."""


_EXACT_TYPES = (int, Fraction, Poly)


def _check_exact(values, what: str) -> tuple:
    values = tuple(values)
    for v in values:
        if not isinstance(v, _EXACT_TYPES):
            raise InvalidCoeffs(f"{what} must be exact (int, Fraction or Poly), got {v!r}")
    return values


@dataclass(frozen=True)
class CoeffVector:
    """Recurrence coefficients c_1..c_d with c_d != 0."""

    c: tuple

    def __post_init__(self):
        c = _check_exact(self.c, "coefficients")
        if not c:
            raise InvalidCoeffs("a recurrence needs at least one coefficient")
        if c[-1] == 0:
            raise InvalidCoeffs("trailing coefficient c_d must be nonzero")
        object.__setattr__(self, "c", c)

    @property
    def d(self) -> int:
        return len(self.c)

    def __iter__(self):
        return iter(self.c)


def as_coeff_vector(coeffs) -> CoeffVector:
    """Accept a CoeffVector or any sequence of exact coefficients."""
    if isinstance(coeffs, CoeffVector):
        return coeffs
    return CoeffVector(tuple(coeffs))


@dataclass(frozen=True)
class RecurrenceSpec:
    """A coefficient vector plus matching initial terms a_0..a_{d-1}."""

    coeffs: CoeffVector
    initial: tuple

    def __post_init__(self):
        coeffs = as_coeff_vector(self.coeffs)
        initial = _check_exact(self.initial, "initial terms")
        if len(initial) != coeffs.d:
            raise InvalidCoeffs(
                f"{coeffs.d} coefficients need exactly {coeffs.d} initial terms, "
                f"got {len(initial)}"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "initial", initial)

    @property
    def order(self) -> int:
        return self.coeffs.d


def _extend(c: tuple, terms: list, upto: int) -> list:
    """Grow a list holding at least len(c) terms in place by the recurrence c to index upto."""
    d = len(c)
    rc = c[::-1]
    while len(terms) <= upto:
        terms.append(sum(map(mul, rc, terms[-d:])))
    return terms


def seq_range(spec: RecurrenceSpec, n0: int, n1: int) -> list:
    """Terms a_{n0}..a_{n1} inclusive, by forward iteration."""
    if n0 < 0 or n1 < n0:
        raise DomainError(f"bad index range {n0}..{n1}")
    return _extend(spec.coeffs.c, list(spec.initial[: n1 + 1]), n1)[n0 : n1 + 1]


# Forward iteration wins below this index; above it, one matrix power is cheaper.
_MATRIX_CUTOFF = 256


def seq_eval(spec: RecurrenceSpec, n: int):
    """Single term a_n.

    Small n iterates forward; large n goes through one logarithmic-time
    companion-matrix power so that indices like 10**6 stay usable.
    """
    if n < 0:
        raise DomainError(f"term index must be nonnegative, got {n}")
    if n < spec.order:
        return spec.initial[n]
    if n < _MATRIX_CUTOFF:
        return seq_range(spec, n, n)[0]
    from . import oracle  # deferred: oracle imports this module at top level

    power = oracle.mat_pow(oracle.companion(spec.coeffs), n)
    state0 = tuple(reversed(spec.initial))  # (a_{d-1}, ..., a_0)
    return sum(p * s for p, s in zip(power[-1], state0))
