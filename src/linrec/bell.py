"""Partial Bell polynomials over the exact domains.

B_{n,k}(x_1, x_2, ...) sums, over all partitions of an n-element set into
exactly k blocks, the product of x_{block size} across blocks.  Everything
here is computed by the standard recurrence

    B_{n,k} = sum_{i=1..n-k+1}  C(n-1, i-1) * x_i * B_{n-i,k-1}

with B_{0,0} = 1 and B_{n,0} = B_{0,k} = 0 otherwise; no closed forms are
trusted without the brute-force set-partition check in this module.  The
table skips zero arguments, so an entry no nonzero term reaches stays an int
0 in any domain.  The paper's Bell expansion of the trace terms is one exact
weighted row sum, :func:`_bell_row_sum`; its gamma expansion is a test witness.
"""

from __future__ import annotations

from fractions import Fraction
import math

from .kernel import _check_exact, _check_index, dot, exact_div, lower_like, ring_const


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
