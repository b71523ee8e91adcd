"""Reference computations that check linrec's outputs, written apart from linrec.

Nothing here imports linrec.  Scalars are int or Fraction.  A polynomial in
the recurrence coefficients is a dict mapping exponent tuples to Fraction
coefficients; :func:`poly_of` builds one from a linrec ``Poly`` (by reading
its ``terms``) or from the CLI's JSON record.

The routes:

* terms: a_n = sum_j r_j a_j, where x^n = sum_j r_j x^j mod the
  characteristic polynomial (Fiduccia's jump), or a plain forward walk;
* sums: direct summation of walked or jumped terms;
* trace terms: Newton's identities;
* slice coefficients: the elementary symmetric functions of the m-th powers
  of the roots, recovered from the power sums hat_m, ..., hat_dm by Newton's
  identities (no Bell polynomials, no characteristic polynomial);
* slices as a property: annihilation of a_{km+r} at two offsets r, and the
  trailing coefficient g_d = (-1)^((d+1)(m+1)) c_d^m.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction


def lower(x):
    """A Fraction with denominator 1 becomes an int; anything else is returned as is."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _mulmod(a: list, b: list, c: tuple) -> list:
    """Product of two residues modulo x^d - c_1 x^(d-1) - ... - c_d (low degree first)."""
    d = len(c)
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * d - 2, d - 1, -1):
        top = prod[k]
        if top:
            for i in range(1, d + 1):
                prod[k - i] += c[i - 1] * top
    return prod[:d]


def xpow_mod(n: int, c: tuple) -> list:
    """Residue of x^n modulo the characteristic polynomial of c."""
    d = len(c)
    result = [1] + [0] * (d - 1)
    base = [0, 1] + [0] * (d - 2) if d > 1 else [c[0]]
    while n:
        if n & 1:
            result = _mulmod(result, base, c)
        n >>= 1
        if n:
            base = _mulmod(base, base, c)
    return result


def _apply(residue: list, head) -> object:
    return sum(r * a for r, a in zip(residue, head))


def term(c: tuple, init: tuple, n: int):
    """a_n by one jump."""
    return _apply(xpow_mod(n, c), init)


def walk(c: tuple, init: tuple, upto: int) -> list:
    """a_0..a_upto by the forward loop."""
    out = list(init[: upto + 1])
    while len(out) <= upto:
        out.append(sum(ci * out[-i] for i, ci in enumerate(c, start=1)))
    return out


def slice_terms(c: tuple, init: tuple, m: int, r: int, count: int) -> list:
    """a_r, a_(m+r), ..., a_((count-1)m+r) by repeated jumps of x^m."""
    step = xpow_mod(m, c)
    cur = xpow_mod(r, c)
    out = []
    for _ in range(count):
        out.append(_apply(cur, init))
        cur = _mulmod(cur, step, c)
    return out


def slice_sum(c: tuple, init: tuple, m: int, r: int, n: int):
    """sum_{j=0..n} a_(mj+r), summed term by term along a forward walk."""
    d = len(c)
    window = deque(init, maxlen=d)  # a_(k-d)..a_(k-1) once k >= d
    total = 0
    target = r
    for k in range(m * n + r + 1):
        if k < d:
            value = init[k]
        else:
            value = sum(ci * window[-i] for i, ci in enumerate(c, start=1))
            window.append(value)
        if k == target:
            total += value
            target += m
    return total


def hats(c: tuple, upto: int) -> list:
    """Power sums hat_0..hat_upto of the characteristic roots (Newton's identities)."""
    d = len(c)
    out = [d]
    for n in range(1, upto + 1):
        value = sum(c[j - 1] * out[n - j] for j in range(1, min(n - 1, d) + 1))
        if n <= d:
            value += n * c[n - 1]
        out.append(value)
    return out


def slice_coeffs(c: tuple, m: int) -> tuple:
    """g_1..g_d of the recurrence every a_(mn+r) satisfies, from hat_m..hat_dm."""
    d = len(c)
    head = hats(c, d - 1)
    step = xpow_mod(m, c)
    cur = step
    powers = []
    for _ in range(d):
        powers.append(_apply(cur, head))
        cur = _mulmod(cur, step, c)
    e = [Fraction(1)]
    for k in range(1, d + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * powers[i - 1] for i in range(1, k + 1))
        e.append(Fraction(acc) / k)
    return tuple(lower((-1) ** (k + 1) * e[k]) for k in range(1, d + 1))


def trailing(c: tuple, m: int):
    """The closed form of the last slice coefficient, (-1)^((d+1)(m+1)) c_d^m."""
    d = len(c)
    return (-1) ** ((d + 1) * (m + 1)) * c[-1] ** m


def annihilates(g: tuple, terms: list) -> bool:
    """True when every window of terms obeys b_(k+d) = sum_i g_i b_(k+d-i)."""
    d = len(g)
    return all(
        terms[k + d] == sum(gi * terms[k + d - i] for i, gi in enumerate(g, start=1))
        for k in range(len(terms) - d)
    )


def slice_ok(g: tuple, c: tuple, init: tuple, m: int, offsets) -> bool:
    """Slice coefficients pass the trailing-coefficient and annihilation checks."""
    d = len(c)
    if len(g) != d or g[-1] != trailing(c, m):
        return False
    return all(annihilates(g, slice_terms(c, init, m, r, 2 * d)) for r in offsets)


# ---------------------------------------------------------------------------
# Polynomials in the recurrence coefficients


def poly_of(value) -> dict:
    """Exponent-tuple -> Fraction dict from a linrec Poly or a CLI JSON record."""
    if isinstance(value, dict):
        return {
            tuple(rec["exponents"]): Fraction(rec["coefficient"]) for rec in value["terms"]
        }
    return {tuple(e): Fraction(k) for e, k in value.terms.items()}


def poly_at(poly: dict, point: tuple):
    """Value of the polynomial at an integer point."""
    total = Fraction(0)
    for exps, coeff in poly.items():
        mono = coeff
        for v, e in zip(point, exps):
            if e:
                mono *= v**e
        total += mono
    return lower(total)


def scalar(text: str):
    """Parse the CLI's decimal or p/q text."""
    return lower(Fraction(text))
