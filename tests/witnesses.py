"""Independent routes the tests hold the library to: the paper's formulas and self-checks.

None of these is on a library path; each recomputes, by a different formula,
a value the package computes another way, so the tests can compare the two.

* Partial Bell polynomials.  B_{n,k}(x_1, x_2, ...) sums, over all partitions
  of an n-element set into exactly k blocks, the product of x_{block size}
  across blocks.  :func:`bell_table` computes it by the standard recurrence

      B_{n,k} = sum_{i=1..n-k+1}  C(n-1, i-1) * x_i * B_{n-i,k-1}

  with B_{0,0} = 1 and B_{n,0} = B_{0,k} = 0 otherwise; no closed forms are
  trusted without the brute-force set-partition check below.  The table skips
  zero arguments, so an entry no nonzero term reaches stays an int 0 in any
  domain.  The paper's Bell expansion of the trace terms is one exact
  weighted row sum, :func:`_bell_row_sum`; so is its expansion of gamma.
* Trace terms by the Bell expansion (:func:`lucas_transform_bell_prefix`) and
  the closed-form trace values of four classical families.
* The inverse-sequence sum identity (:func:`invert_partial_sum`), the basis
  of shifted inverse sequences (:func:`lambda_decompose`), and a closed sum
  form applied to look-ahead terms (:func:`evaluate_form`).
* The catalog self-check (:func:`catalog_selfcheck`), which re-derives every
  frozen prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from linrec import sequences
from linrec.kernel import (
    DomainError,
    _check_exact,
    _check_index,
    as_integer,
    dot,
    exact_div,
    lower_like,
    ring_const,
)
from linrec.lucas import lucas_transform
from linrec.recurrence import RecurrenceSpec, as_coeff_vector, seq_range
from linrec.sequences import CatalogEntry, catalog_get
from linrec.sums import SumClosedForm, _weights, invert_sequence


# ---------------------------------------------------------------------------
# Partial Bell polynomials


class SizeLimit(ValueError):
    """The brute-force oracle refuses set sizes where enumeration explodes."""


def _arg(x, i: int):
    """x_i with 1-based indexing; arguments beyond the supplied vector are 0."""
    return x[i - 1] if i <= len(x) else 0


def bell_table(upto: int, x) -> list[list]:
    """Triangular table T with T[n][k] = B_{n,k}(x) for 0 <= k <= n <= upto.

    One table amortizes the recurrence across every (n, k) a caller needs.
    """
    _check_index(upto, "upto")
    x = _check_exact(x, "Bell arguments")[:upto]
    x += (0,) * (upto - len(x))
    table: list[list] = [[1]]
    for n in range(1, upto + 1):
        row = [0]
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, n - k + 2):
                xi = x[i - 1]
                if xi == 0:
                    continue
                prev = table[n - i][k - 1]
                if prev == 0:
                    continue
                acc = acc + math.comb(n - 1, i - 1) * xi * prev
            row.append(acc)
        table.append(row)
    return table


def _bell_row_sum(row: list, weights, divisor: int, like):
    """sum_{j>=1} weights[j-1] * row[j] / divisor, exactly, for a row B_{n,0..n} of bell_table.

    The sum starts at the zero of like's domain, since skipped entries stay
    int-typed over Fraction data and an int total would divide as an int;
    lower_like then insists that integer data gave an integer result.
    """
    total = dot(weights, row[1:], ring_const(0, like))
    return lower_like(exact_div(total, divisor), like)


def bell_partial(n: int, k: int, x):
    """B_{n,k}(x) for a finite argument vector x (trailing zeros implied)."""
    _check_index(n, "n")
    _check_index(k, "k")
    row = bell_table(n, x)[n]
    return row[k] if k <= n else 0


def bell_truncated3(m: int, j: int, x1, x2, x3):
    """B_{m,j}(x1, x2, x3, 0, 0, ...) by the three-variable closed form.

    The double-binomial expansion runs over the single free index l (the
    multiplicity of x1); exponent combinations that would be negative do not
    correspond to partitions and are skipped.  Rational scalars (from the
    1/2! and 1/3! normalizations) cancel in the total.
    """
    _check_index(m, "m")
    _check_index(j, "j")
    _check_exact((x1, x2, x3), "Bell arguments")
    if j > m:
        return 0
    total = 0
    if j == 0:
        return 1 if m == 0 else 0
    lead = Fraction(math.factorial(m), math.factorial(j))
    for l in range(max(0, 2 * j - m), min(j, (3 * j - m) // 2) + 1):
        e2 = 3 * j - m - 2 * l
        e3 = m - 2 * j + l
        scalar = (
            lead
            * math.comb(j, j - l)
            * math.comb(j - l, e3)
            * Fraction(1, 2**e2 * 6**e3)
        )
        total = total + scalar * x1**l * x2**e2 * x3**e3
    return lower_like(total, (x1, x2, x3))


_ORACLE_LIMIT = 10


def _partitions(elements: tuple):
    """Yield every partition of the elements as a list of blocks."""
    if not elements:
        yield []
        return
    head, rest = elements[0], elements[1:]
    for smaller in _partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [head]] + smaller[i + 1 :]
        yield smaller + [[head]]


def set_partition_oracle(n: int, k: int, x):
    """Brute-force B_{n,k}(x): enumerate set partitions and multiply block weights.

    Deliberately naive; it exists to check bell_partial, so it shares nothing
    with the recurrence.  Enumeration is capped at n = 10.
    """
    _check_index(n, "n")
    _check_index(k, "k")
    if n > _ORACLE_LIMIT:
        raise SizeLimit(f"set enumeration capped at n = {_ORACLE_LIMIT}, got {n}")
    x = _check_exact(x, "Bell arguments")
    if n == 0:
        return 1 if k == 0 else 0
    total = 0
    for blocks in _partitions(tuple(range(n))):
        if len(blocks) != k:
            continue
        product = 1
        for block in blocks:
            product = product * _arg(x, len(block))
        total = total + product
    return total


# ---------------------------------------------------------------------------
# Trace terms by the Bell expansion and in closed form


def lucas_transform_bell_prefix(coeffs, upto: int) -> list:
    """Trace terms hat_1..hat_upto by the Bell expansion, one shared table.

    A partial-Bell expansion gives hat_n directly from the coefficients, with
    (k-1)!/(n-1)! prefactors whose rational parts always cancel: one exact Bell
    row sum per term.  Given g = gamma_coefficients(c, m).gamma it returns
    hat_m, hat_2m, ... of c, a round trip through the whole gamma pipeline.
    """
    cv = as_coeff_vector(coeffs)
    _check_index(upto, "upto", 1)
    x = tuple(math.factorial(i) * ci for i, ci in enumerate(cv.c, start=1))
    table = bell_table(upto, x)
    weights = [math.factorial(k - 1) for k in range(1, upto + 1)]
    return [_bell_row_sum(table[n], weights, math.factorial(n - 1), cv.c) for n in range(1, upto + 1)]


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


# ---------------------------------------------------------------------------
# Sum identities: the closed form on look-ahead terms, the inverse sequence and its basis


def evaluate_form(form: SumClosedForm, lookahead):
    """Apply a closed sum form to exact look-ahead terms a_{n+1}..a_{n+d}."""
    lookahead = _check_exact(lookahead, "look-ahead terms")
    if len(lookahead) != len(form.weights):
        raise DomainError(f"expected {len(form.weights)} look-ahead terms")
    numerator = dot(form.weights, lookahead) + form.constant
    return exact_div(numerator, form.divisor)


@dataclass(frozen=True)
class InvertSumCheck:
    """Both sides of the inverse-sequence sum identity; they must be equal.

    lhs = q(1) * sum_{j<=n} y_j and rhs = 1 + sum_j w_j y_{n+j+1}.  The
    identity holds even when q(1) = 0, so this record is its own check.
    """

    q_at_one: object
    partial_sum: object
    lhs: object
    rhs: object

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def invert_partial_sum(coeffs, n: int) -> InvertSumCheck:
    """Evaluate both sides of the inverse-sequence sum identity at n."""
    cv = as_coeff_vector(coeffs)
    _check_index(n, "n")
    c = cv.c
    d = len(c)
    y = invert_sequence(cv, n + d)
    q_at_one = 1 - sum(c)
    partial = sum(y[: n + 1])
    weights = _weights(c)
    rhs = 1 + dot(weights, y[n + 1 :])
    return InvertSumCheck(q_at_one=q_at_one, partial_sum=partial, lhs=q_at_one * partial, rhs=rhs)


def lambda_decompose(spec: RecurrenceSpec) -> tuple:
    """Coordinates of the initial vector over shifted inverse sequences.

    Returns lam_0..lam_{d-1} with lam_0 = a_0 and
    lam_n = a_n - sum_{j=1..n} c_j a_{n-j}; then a_n = sum_l lam_l * y_{n-l}
    for all n (with y_i = 0 for i < 0).
    """
    c = spec.coeffs.c
    a = spec.initial
    lams = [a[0]]
    for n in range(1, len(c)):
        lams.append(a[n] - dot(c[:n], a[n - 1 :: -1]))
    return tuple(lams)


# ---------------------------------------------------------------------------
# The catalog self-check


def _check_entry(entry: CatalogEntry, problems: list[str]) -> None:
    if len(entry.prefix) < 15:
        problems.append(f"{entry.name}: prefix shorter than 15 terms")
    regenerated = tuple(seq_range(entry.spec, 0, len(entry.prefix) - 1))
    if regenerated != entry.prefix:
        problems.append(f"{entry.name}: prefix does not match its recurrence")
    if entry.hat_of is not None:
        base = catalog_get(entry.hat_of)
        if base.spec.coeffs != entry.spec.coeffs:
            problems.append(f"{entry.name}: coefficients differ from base {entry.hat_of}")
        traced = lucas_transform(base.spec.coeffs, len(entry.prefix) - 1).terms
        if traced != entry.prefix:
            problems.append(f"{entry.name}: prefix is not the trace sequence of {entry.hat_of}")


def catalog_selfcheck() -> list[str]:
    """Re-derive every frozen prefix; returns problem descriptions (empty = clean).

    Fixed entries are all checked; the parameterized families are sampled at
    k = 1..5 and d = 2..6.  The fixed entries are read through the sequences
    module, so a test that replaces its loader replaces what is checked.
    """
    problems: list[str] = []
    for entry in sequences._load_fixed().values():
        _check_entry(entry, problems)
    for k in range(1, 6):
        _check_entry(catalog_get(f"k_fibonacci({k})"), problems)
        _check_entry(catalog_get(f"k_lucas({k})"), problems)
    for d in range(2, 7):
        _check_entry(catalog_get(f"d_step_fibonacci({d})"), problems)
        _check_entry(catalog_get(f"d_step_lucas({d})"), problems)
    return problems
