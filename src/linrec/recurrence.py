"""Recurrence specifications and exact term evaluation.

A homogeneous linear recurrence of order d is described by coefficients
c_1..c_d (c_d nonzero) with

    a_n = c_1*a_{n-1} + c_2*a_{n-2} + ... + c_d*a_{n-d}    for n >= d,

together with initial terms a_0..a_{d-1}.  Coefficients and terms may live in
any of the exact domains from :mod:`linrec.kernel`.

Every term, of a spec, its trace sequence or its inverse sequence, comes
from one engine, :func:`_stride_heads`, and every forward walk runs inside
it.  :func:`_lift` picks its ring once per request, clearing a rational
spec's denominators: with D the lcm of the coefficients' denominators and e
that of the initial terms' (one e for each set of initial terms),
b_n = e*D^n*a_n satisfies the integer recurrence c_i*D^i, which is jumped
and walked instead, and a_n = b_n / (e*D^n) is read off at the end.  So no
walk step and no residue product over int and Fraction data ever sees a
Fraction.  The engine alone chooses between walking and jumping, by the
one rule in :func:`_walks`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import mul

from .kernel import Poly, Record, _check_exact, _check_index, _clear_denominators, _dot_for, _poly_dot


class InvalidCoeffs(ValueError):
    """Coefficient or initial-value data does not describe a valid recurrence."""


def _check_one_ring(values, what: str) -> None:
    if len({v.nvars for v in values if isinstance(v, Poly)}) > 1:
        raise InvalidCoeffs(f"{what} mix polynomials over different variable sets")


class CoeffVector(Record):
    """Recurrence coefficients c_1..c_d with c_d != 0."""

    c: tuple

    def __init__(self, c):
        c = _check_exact(c, "coefficients", InvalidCoeffs)
        if not c:
            raise InvalidCoeffs("a recurrence needs at least one coefficient")
        if c[-1] == 0:
            raise InvalidCoeffs("trailing coefficient c_d must be nonzero")
        _check_one_ring(c, "coefficients")
        self.__dict__["c"] = c

    @property
    def d(self) -> int:
        return len(self.c)


def as_coeff_vector(coeffs) -> CoeffVector:
    """Accept a CoeffVector or any sequence of exact coefficients."""
    if isinstance(coeffs, CoeffVector):
        return coeffs
    return CoeffVector(coeffs)


class RecurrenceSpec(Record):
    """A coefficient vector plus matching initial terms a_0..a_{d-1}."""

    coeffs: CoeffVector
    initial: tuple

    def __init__(self, coeffs, initial):
        coeffs = as_coeff_vector(coeffs)
        initial = _check_exact(initial, "initial terms", InvalidCoeffs)
        if len(initial) != coeffs.d:
            raise InvalidCoeffs(
                f"{coeffs.d} coefficients need exactly {coeffs.d} initial terms, "
                f"got {len(initial)}"
            )
        _check_one_ring(coeffs.c + initial, "coefficients and initial terms")
        fields = self.__dict__
        fields["coeffs"] = coeffs
        fields["initial"] = initial

    @property
    def order(self) -> int:
        return self.coeffs.d


def _check_spec(spec) -> RecurrenceSpec:
    """spec itself if it is a RecurrenceSpec, else InvalidCoeffs: each public call taking a spec checks it first."""
    if not isinstance(spec, RecurrenceSpec):
        raise InvalidCoeffs(f"expected a RecurrenceSpec, got {type(spec).__name__}")
    return spec


def _extend(c: tuple, terms: list, upto: int, poly: bool = False) -> list:
    """Grow a list holding at least len(c) terms in place by the recurrence c to index upto.

    Each step is the sum of products c_1*a_(n-1) + ... + c_d*a_(n-d).  With
    poly False that is the C-level ``sum(map(mul, ...))``, the chained sum on
    any data; with poly True, which the engine passes where a Poly takes
    part, it is the kernel's fused dot: one term dict and one Poly a step,
    with the value, type and term order of the chained sum.  The route is
    decided once per call, never per step.
    """
    d = len(c)
    rc = c[::-1]
    if poly:
        while len(terms) <= upto:
            terms.append(_poly_dot(rc, terms[-d:]))
    else:  # the C-level sum written out: a call a step costs a short int walk about a tenth
        while len(terms) <= upto:
            terms.append(sum(map(mul, rc, terms[-d:])))
    return terms


# Residues mod q(x) = x^d - c_1 x^(d-1) - ... - c_d are lists of d ring
# elements, lowest degree first; x^n mod q applied to the initial terms is
# a_n (Fiduccia, SIAM J. Comput. 1985).  Only ring operations are used, and
# no entry or tap is tested for zero, so the same code runs over int,
# Fraction and Poly and keeps one type rule on every route: the initial terms
# come back as given, and every later term has the type the walk gives it.


def _reduce(prod: list, c: tuple) -> list:
    """Fold a product of degree < 2d back below degree d using x^d = c_1 x^(d-1) + ... + c_d."""
    d = len(c)
    for k in range(len(prod) - 1, d - 1, -1):
        top = prod[k]
        for i, ci in enumerate(c, start=1):
            prod[k - i] += ci * top
    return prod[:d]


def _mulmod(a: list, b: list, c: tuple) -> list:
    """a*b mod q; a square shares its cross products."""
    d = len(c)
    prod = [0] * (2 * d - 1)
    if a is b:
        for i, ai in enumerate(a):
            prod[2 * i] += ai * ai
            twice = 2 * ai
            for j in range(i + 1, d):
                prod[i + j] += twice * a[j]
    else:
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _reduce(prod, c)


def _xpow(c: tuple, n: int) -> list:
    """x^n mod q by left-to-right binary powering: square, then times x on a set bit.

    It starts at x^(n >> s), with s the least shift that puts n >> s below d: a unit vector, no product.
    """
    s = max(n.bit_length() - len(c).bit_length() + 1, 0)
    result = [0] * len(c)
    result[n >> s] = 1
    for k in reversed(range(s)):
        result = _mulmod(result, result, c)
        if n >> k & 1 == 1:
            result = _reduce([0] + result, c)
    return result


# The two cutoffs of :func:`_walks`.  _jump_from(d) = 8d + 24 lies at or just
# above where the routes cross for int data.  Walk time over jump time (fastest
# of 5x200 calls, three specs per d with coefficients in [-3, 3], Python 3.11
# on a shared 2-vCPU host) passes 1 at about:
#
#     d                    1   2   3   4   5   6   7   8
#     single int term     20  22  34  38  42  48  64  60
#     int window of d     20  30  46  47  50  70  85  83   (at a_(r+d-1))
#     single Fraction     22  22  36  32  44  48  56  52   (lifted to ints)
#
# and at n = 255 the jump takes a sixth to a third of the walk's time.
# _JUMP_CUTOFF serves stride chains, where one walk serves every term of the
# slice, and Poly data, where no one index fits: at n = 96 a_n of the dense
# (c1+1, c2-c1, -c2) took 456 ms jumping against 231 ms walking, while the
# sparse (c1, c2) took 0.9 against 3.0 ms.
_JUMP_CUTOFF = 256


def _jump_from(d: int) -> int:
    """The least last index from which a single int term or window of order d is jumped."""
    return 8 * d + 24


def _walks(d: int, m: int, r: int, count: int, poly: bool) -> bool:
    """Whether the engine walks, not jumps, to t_r, t_{r+m}, ..., t_{r+(count-1)m} at order d: the one route rule.

    A stride chain (m > 1, count > 1) walks while its last index is below
    _JUMP_CUTOFF (256).  Anything else walks where it starts inside the head
    (r < d), or where its last jumped index r + min(count, d) - 1 (a
    window's d-th term) is below _JUMP_CUTOFF for Poly data and below
    :func:`_jump_from` (8d + 24) otherwise, lifted Fraction data included.
    """
    if m > 1 and count > 1:
        return r + (count - 1) * m < _JUMP_CUTOFF
    return r < d or r + min(count, d) - 1 < (_JUMP_CUTOFF if poly else _jump_from(d))


def _shifted(c: tuple, residue: list, head, s: int, count: int, poly: bool) -> list:
    """t_{n+s}..t_{n+s+count-1} from residue = x^n mod q, applied to head walked forward by s..s+count-1."""
    d = len(c)
    a = _extend(c, list(head), s + count + d - 2, poly)
    apply = _dot_for(poly)
    return [apply(residue, a[j : j + d]) for j in range(s, s + count)]


def _as_given(out: list, m: int, r: int) -> list:
    return out


def _lift(c: tuple, heads) -> tuple:
    """(ring c, ring heads, poly, read(out, m, r)): the engine's ring, picked once from the data's types.

    Int and Poly data (Fractions beside a Poly too) run as given; read returns
    out.  Int and Fraction data with some Fraction run lifted (see the module
    docstring); read turns each later b_i of a head back into b_i / (e*D^i),
    unless neither that head nor c holds a Fraction (D = e = 1).
    """
    kinds = set(map(type, chain(c, *heads)))
    if Fraction not in kinds or not kinds <= {int, Fraction}:
        return c, heads, Poly in kinds, _as_given
    D, cD = _clear_denominators(c)  # cD[i-1] = c_i*D
    es, eas = zip(*map(_clear_denominators, heads))  # eas[h][j] = e_h*a_j

    def read_off(out: list, m: int, r: int) -> list:
        for head, e, bs in zip(heads, es, out):
            if Fraction in set(map(type, (*c, *head))):
                scale, step = e * D**r, D**m
                for k, i in enumerate(range(r, r + len(bs) * m, m)):
                    bs[k] = head[i] if i < len(head) else Fraction(bs[k], scale)
                    scale *= step
        return out
    lifted_c = tuple(x * D ** (i - 1) for i, x in enumerate(cD, start=1))
    return lifted_c, [tuple(x * D**j for j, x in enumerate(ea)) for ea in eas], False, read_off


def _stride_heads(c: tuple, heads, m: int, r: int, count: int) -> list:
    """For each head, t_r, t_{r+m}, ..., t_{r+(count-1)m} of the sequence with recurrence c and that head.

    Every head takes its terms from the same residues x^n mod q, built once
    in the ring :func:`_lift` picks.  A single index takes a half jump (see
    :func:`seq_eval`); a window (m = 1) applies x^r mod q to each head to
    give its first d terms and walks on from them; a wider stride takes
    x^r mod q once and steps it by multiplying with x^m mod q.  Where
    :func:`_walks` says so the head is walked instead.
    """
    if count < 1:
        return [[] for _ in heads]
    c, ring_heads, poly, read = _lift(c, heads)
    last = r + (count - 1) * m
    if _walks(len(c), m, r, count, poly):
        return read([_extend(c, list(head[: last + 1]), last, poly)[r : last + 1 : m] for head in ring_heads], m, r)
    apply = _dot_for(poly)
    if count == 1:
        h = r // 2
        half = _xpow(c, h)
        return read([[apply(half, _shifted(c, half, head, r - 2 * h, len(c), poly))] for head in ring_heads], m, r)
    if m == 1:
        residue = _xpow(c, r)
        windows = [_shifted(c, residue, head, 0, min(count, len(c)), poly) for head in ring_heads]
        return read([_extend(c, window, count - 1, poly) for window in windows], m, r)
    step = _xpow(c, m)
    residue = step if r == m else _xpow(c, r)
    out = [[] for _ in heads]
    for k, i in enumerate(range(r, last + 1, m)):
        if k:
            residue = _mulmod(residue, step, c)
        for terms, head in zip(out, ring_heads):
            terms.append(head[i] if i < len(head) else apply(residue, head))
    return read(out, m, r)


def _stride_terms(c: tuple, head, m: int, r: int, count: int) -> list:
    """The one-head case of :func:`_stride_heads`: t_r, t_{r+m}, ..., t_{r+(count-1)m} from initial terms head."""
    return _stride_heads(c, (head,), m, r, count)[0]


def seq_range(spec: RecurrenceSpec, n0: int, n1: int) -> list:
    """Terms a_{n0}..a_{n1} inclusive: the window of n1 - n0 + 1 terms from a_{n0}."""
    _check_spec(spec)
    _check_index(n0, "n0")
    _check_index(n1, "n1", n0)
    return _stride_terms(spec.coeffs.c, spec.initial, 1, n0, n1 - n0 + 1)


def seq_eval(spec: RecurrenceSpec, n: int):
    """Single term a_n, in time logarithmic in n for large n.

    One request to the engine: a half jump where it jumps (:func:`_walks`),
    else a walk to a_n.  R = x^(n//2) mod q applied to the initial terms
    walked to index 2d-1 gives the d terms from a_(n//2) or a_(n//2+1) on,
    and R applied to those is a_n, so the last step costs d full-size
    products instead of the d(d+1)/2 of squaring R.
    """
    _check_spec(spec)
    _check_index(n, "n")
    return _stride_terms(spec.coeffs.c, spec.initial, 1, n, 1)[0]
