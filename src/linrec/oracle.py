"""Independent cross-checks: companion matrices, characteristic polynomials,
recurrence verification and recovery.

Nothing here shares a formula with the trace-sequence routes; that is the
point.  The characteristic polynomial of the m-th power of the companion
matrix carries the elementary symmetric functions of the m-th powers of the
roots, and those are exactly the subsequence coefficients the rest of the
package derives analytically.

The characteristic polynomial uses the Samuelson-Berkowitz scheme, which is
division-free and therefore runs unchanged over the polynomial domain.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
import math
from operator import mul

from .kernel import DomainError, Poly, Record, _check_exact, _check_index, _clear_denominators, _dot_for, _lower
from .recurrence import CoeffVector, as_coeff_vector


class NoSolution(ValueError):
    """No order-d recurrence is consistent with the supplied window."""


class _Underdetermined:
    """Marker: the window does not pin down a single genuine order-d recurrence.

    Its one instance, UNDERDETERMINED, is returned (never raised) by
    :func:`fit_recurrence` when the linear system is singular, which is the
    expected outcome for sequences that satisfy a recurrence of lower order.
    Callers treat it as information, not failure.
    """

    def __repr__(self):
        return "UNDERDETERMINED"


UNDERDETERMINED = _Underdetermined()


# ---------------------------------------------------------------------------
# Matrices are plain lists of row lists holding exact ring elements.


def companion(coeffs) -> list[list]:
    """Companion matrix: coefficients across the top row, ones under the diagonal."""
    cv = as_coeff_vector(coeffs)
    d = cv.d
    mat = [[0] * d for _ in range(d)]
    mat[0] = list(cv.c)
    for i in range(1, d):
        mat[i][i - 1] = 1
    return mat


def _check_rows(mat, what: str, square: bool = False) -> int:
    """len(mat), after rejecting anything but a sequence of row sequences of exact entries, every row as
    long as the first (as long as the matrix is tall, if square)."""
    if not isinstance(mat, Sequence):
        raise DomainError(f"{what}: expected a sequence of rows, got {mat!r:.80}")
    width = len(mat) if square else len(mat[0]) if mat and isinstance(mat[0], Sequence) else 0
    for row in mat:  # row by row, so no check builds a tuple of all the entries
        if not isinstance(row, Sequence) or len(row) != width:
            raise DomainError(f"{what}: a row {row!r:.80} where a sequence of {width} entries is needed")
        _check_exact(row, "matrix entries")
    return len(mat)


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    """Matrix product a*b of exact entries (a float or bool entry, a ragged row or a non-matrix is a DomainError)."""
    if not _check_rows(a, "mat_mul") or len(a[0]) != _check_rows(b, "mat_mul"):
        raise DomainError("matrix shapes do not compose")
    return _mat_mul(a, b)


def _mat_mul(a: list[list], b: list[list]) -> list[list]:
    """a*b of matrices already checked to compose."""
    cols = list(zip(*b))
    dot = _dot_for(Poly in map(type, chain(*a, *cols)))
    return [[dot(row, col) for col in cols] for row in a]


def mat_pow(mat: list[list], exponent: int) -> list[list]:
    """Matrix power by binary exponentiation; exponent 0 gives the identity."""
    n = _check_rows(mat, "mat_pow needs a square matrix", square=True)
    _check_index(exponent, "exponent")
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = mat
    while exponent:
        if exponent & 1:
            result = _mat_mul(result, base)
        exponent >>= 1
        if exponent:  # past the top bit the square would go unused
            base = _mat_mul(base, base)
    return result


def mat_trace(mat: list[list]):
    n = _check_rows(mat, "mat_trace needs a square matrix", square=True)
    return sum(mat[i][i] for i in range(n))


class CharPoly(Record):
    """det(tI - M) stored as coefficients p_0..p_d, ascending; p_d = 1."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = _check_exact(coeffs, "characteristic polynomial coefficients")
        if not coeffs or coeffs[-1] != 1:
            raise DomainError("characteristic polynomial must be monic")
        self.__dict__["coeffs"] = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def elementary(self, k: int):
        """k-th elementary symmetric function of the eigenvalues: (-1)^k p_{d-k}."""
        _check_index(k, "k")
        if k > self.degree:
            raise DomainError(f"elementary index {k} outside 0..{self.degree}")
        value = self.coeffs[self.degree - k]
        return -value if k % 2 else value


def char_poly(mat: list[list]) -> CharPoly:
    """Characteristic polynomial, division-free, exact in any ring.

    Iterates over leading principal submatrices; each step multiplies the
    previous coefficient vector by a Toeplitz matrix whose column holds
    1, -a_rr, -(R C), -(R S C), -(R S^2 C), ... built from the new border
    row R, border column C and previous block S.
    """
    n = _check_rows(mat, "char_poly needs a square matrix", square=True)
    dot = _dot_for(Poly in map(type, chain(*mat)))
    desc = [1]  # degree-descending coefficients, 0x0 block
    for r in range(1, n + 1):
        row = mat[r - 1][: r - 1]
        col = [mat[i][r - 1] for i in range(r - 1)]
        toeplitz = [1, -mat[r - 1][r - 1]]
        v = col
        for _ in range(r - 1):
            toeplitz.append(-dot(row, v))
            v = [dot(mat[i][: r - 1], v) for i in range(r - 1)]
        # the Toeplitz product: new[i] = sum_j toeplitz[i - j] * desc[j] over 0 <= j <= min(i, r - 1)
        desc = [dot(toeplitz[i::-1], desc) for i in range(r + 1)]
    return CharPoly(tuple(reversed(desc)))


def char_poly_of_power(coeffs, m: int) -> CoeffVector:
    """Recurrence satisfied by every m-step subsequence, read off det(tI - C^m).

    The k-th returned coefficient is -p_{d-k}, i.e. (-1)^{k+1} times the k-th
    elementary symmetric function of the m-th powers of the roots.
    """
    cv = as_coeff_vector(coeffs)
    _check_index(m, "m", 1)
    cp = char_poly(mat_pow(companion(cv), m))
    d = cv.d
    return CoeffVector(tuple(-cp.coeffs[d - k] for k in range(1, d + 1)))


def verify_recurrence(terms, coeffs) -> list[int]:
    """Indices n >= d where terms[n] != sum_k c_k * terms[n-k].  Empty = verified."""
    cv = as_coeff_vector(coeffs)
    terms = _check_exact(terms, "terms")
    d = cv.d
    dot = _dot_for(Poly in map(type, cv.c + terms))
    bad = []
    for n in range(d, len(terms)):
        if terms[n] != dot(cv.c, terms[n - d : n][::-1]):
            bad.append(n)
    return bad


def _primitive(row: list) -> list:
    """An integer row divided by its content, so entries stay the size of minors."""
    g = math.gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _cancel(row: list, basis: list, p: int) -> list:
    """Fraction-free: basis[p] * row - row[p] * basis, which is zero at column p."""
    a, b = basis[p], row[p]
    return _primitive([a * x - b * y for x, y in zip(row, basis)])


def fit_recurrence(terms, d: int):
    """Recover order-d coefficients from raw terms by exact elimination.

    Every window n in [d, len(terms)) gives one equation
    g_d t_{n-d} + ... + g_1 t_{n-1} = t_n.  The windows are taken in order,
    scaled to integers and reduced fraction-free (cf. Bareiss, Math. Comp.
    1968; here each row is divided by its content) into a Gauss-Jordan
    basis.  Once d pivots are found the solution is unique, and one pass
    checks it against every window.  Returns a CoeffVector when the solution is unique with
    nonzero trailing coefficient, UNDERDETERMINED when the system is
    singular (or only a lower-order recurrence fits), and raises NoSolution
    when the windows are mutually inconsistent.  Only int and Fraction terms
    are in the domain (DomainError otherwise).
    """
    _check_index(d, "d", 1)
    terms = _check_exact(terms, "terms")
    if any(isinstance(t, Poly) for t in terms):
        raise DomainError("fit_recurrence solves over int and Fraction terms only")
    if len(terms) < 2 * d:
        raise DomainError(f"need at least {2 * d} terms to fit order {d}, got {len(terms)}")
    inconsistent = NoSolution(f"no order-{d} recurrence matches all {len(terms)} terms")
    # column j holds t_{n-d+j} and the unknown g_{d-j}; column d holds t_n
    pivots: dict[int, list] = {}  # pivot column -> row, zero in every other pivot column
    for n in range(d, len(terms)):
        row = _primitive(_clear_denominators(terms[n - d : n + 1])[1])
        for p, basis in pivots.items():
            if row[p]:
                row = _cancel(row, basis, p)
        lead = next((j for j, v in enumerate(row) if v), d + 1)
        if lead == d:
            raise inconsistent
        if lead > d:
            continue
        for p, basis in pivots.items():
            if basis[lead]:
                pivots[p] = _cancel(basis, row, lead)
        pivots[lead] = row
        if len(pivots) == d:
            break
    else:
        return UNDERDETERMINED
    sol = [Fraction(pivots[j][d], pivots[j][j]) for j in range(d)]
    den, num = _clear_denominators(sol)
    if any(den * terms[n] != sum(map(mul, num, terms[n - d : n])) for n in range(d, len(terms))):
        raise inconsistent
    if sol[0] == 0:
        # a shorter recurrence fits the window; no genuine order-d answer
        return UNDERDETERMINED
    return CoeffVector(tuple(map(_lower, reversed(sol))))
