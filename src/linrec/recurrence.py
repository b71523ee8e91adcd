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
        if isinstance(v, bool) or not isinstance(v, _EXACT_TYPES):
            raise InvalidCoeffs(f"{what} must be exact (int, Fraction or Poly), got {v!r}")
    return values


def _check_one_ring(values, what: str) -> None:
    if len({v.nvars for v in values if isinstance(v, Poly)}) > 1:
        raise InvalidCoeffs(f"{what} mix polynomials over different variable sets")


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
        _check_one_ring(c, "coefficients")
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
        _check_one_ring(coeffs.c + initial, "coefficients and initial terms")
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


# Residues mod q(x) = x^d - c_1 x^(d-1) - ... - c_d are lists of d ring
# elements, lowest degree first; x^n mod q applied to the initial terms is
# a_n (Fiduccia, SIAM J. Comput. 1985).  Only ring operations are used, so
# the same code runs over int, Fraction and Poly.


def _reduce(prod: list, c: tuple) -> list:
    """Fold a product of degree < 2d back below degree d using x^d = c_1 x^(d-1) + ... + c_d."""
    d = len(c)
    taps = [(i, ci) for i, ci in enumerate(c, start=1) if ci]
    for k in range(len(prod) - 1, d - 1, -1):
        top = prod[k]
        if top:
            for i, ci in taps:
                prod[k - i] += ci * top
    return prod[:d]


def _mulmod(a: list, b: list, c: tuple) -> list:
    """a*b mod q; a square shares its cross products."""
    d = len(c)
    prod = [0] * (2 * d - 1)
    if a is b:
        for i, ai in enumerate(a):
            if ai:
                prod[2 * i] += ai * ai
                twice = 2 * ai
                for j in range(i + 1, d):
                    if a[j]:
                        prod[i + j] += twice * a[j]
    else:
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
    return _reduce(prod, c)


def _xpow(c: tuple, n: int) -> list:
    """x^n mod q by left-to-right binary powering: square, then times x on a set bit."""
    result = [1] + [0] * (len(c) - 1)
    for bit in bin(n)[2:]:
        result = _mulmod(result, result, c)
        if bit == "1":
            result = _reduce([0] + result, c)
    return result


# Below this last index a forward walk is cheaper than the jumps.
_JUMP_CUTOFF = 256


def _stride_terms(c: tuple, head, m: int, r: int, count: int) -> list:
    """t_r, t_{r+m}, ..., t_{r+(count-1)m} of the sequence with recurrence c and initial terms head.

    Small last indices walk; larger ones take x^r mod q once and step by
    multiplying with x^m mod q, applying each residue to head.
    """
    if count < 1:
        return []
    last = r + (count - 1) * m
    if last < _JUMP_CUTOFF:
        return _extend(c, list(head[: last + 1]), last)[r : last + 1 : m]
    step = _xpow(c, m)
    residue = step if r == m else _xpow(c, r)
    out = []
    for k in range(count):
        if k:
            residue = _mulmod(residue, step, c)
        out.append(sum(map(mul, residue, head)))
    return out


def seq_window(spec: RecurrenceSpec, n: int, k: int) -> list:
    """Terms a_n..a_{n+k-1}; past the cutoff each comes from x^i mod q, not a walk from a_0."""
    if n < 0 or k < 0:
        raise DomainError(f"bad window: start {n}, length {k}")
    return _stride_terms(spec.coeffs.c, spec.initial, 1, n, k)


def seq_range(spec: RecurrenceSpec, n0: int, n1: int) -> list:
    """Terms a_{n0}..a_{n1} inclusive: a jump to the first d, then forward iteration."""
    if n0 < 0 or n1 < n0:
        raise DomainError(f"bad index range {n0}..{n1}")
    head = seq_window(spec, n0, min(spec.order, n1 - n0 + 1))
    return _extend(spec.coeffs.c, head, n1 - n0)


def seq_eval(spec: RecurrenceSpec, n: int):
    """Single term a_n, in time logarithmic in n for large n."""
    if n < 0:
        raise DomainError(f"term index must be nonnegative, got {n}")
    return seq_window(spec, n, 1)[0]
