from fractions import Fraction
import math
import random

import pytest

from linrec import DivisionNotExact, DomainError, Poly
from witnesses import SizeLimit, _bell_row_sum, bell_partial, bell_table, bell_truncated3, set_partition_oracle


def stirling2_oracle(n: int, k: int) -> int:
    # independent additive recurrence S(n,k) = k*S(n-1,k) + S(n-1,k-1)
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


class TestGoldens:
    def test_edges(self):
        assert bell_partial(0, 0, ()) == 1
        assert bell_partial(3, 0, (1, 1, 1)) == 0
        assert bell_partial(2, 3, (1, 1)) == 0

    def test_single_block(self):
        # k=1: one block of size n, value x_n
        assert bell_partial(4, 1, (2, 3, 5, 7)) == 7
        assert bell_partial(2, 1, (2, 3)) == 3

    def test_all_singletons(self):
        # k=n: everything a singleton, value x_1^n
        assert bell_partial(4, 4, (3,)) == 81
        assert bell_partial(5, 5, (2, 9, 9, 9, 9)) == 32

    def test_small_closed_forms(self):
        # B_{3,2} = 3 x1 x2, B_{4,2} = 4 x1 x3 + 3 x2^2
        assert bell_partial(3, 2, (1, 2, 6)) == 3 * 1 * 2
        assert bell_partial(4, 2, (1, 2, 6)) == 4 * 1 * 6 + 3 * 4

    def test_symbolic_b32(self):
        x1, x2, x3 = Poly.variables(3)
        assert bell_partial(3, 2, (x1, x2, x3)) == 3 * x1 * x2

    def test_missing_args_are_zero(self):
        # x_3 unavailable -> treated as 0
        assert bell_partial(3, 1, (5,)) == 0
        assert bell_partial(3, 2, (5,)) == 0


class TestOracle:
    def test_matches_set_partitions(self):
        rng = random.Random(11)
        for n in range(0, 9):
            xs = tuple(rng.randint(-4, 4) for _ in range(n))
            for k in range(0, n + 1):
                assert bell_partial(n, k, xs) == set_partition_oracle(n, k, xs)

    def test_oracle_size_limit(self):
        with pytest.raises(SizeLimit):
            set_partition_oracle(11, 2, (1,) * 11)

    def test_stirling_numbers(self):
        # x_i = 1 for all i collapses B_{n,k} to Stirling numbers of the 2nd kind
        for n in range(0, 10):
            for k in range(0, n + 1):
                assert bell_partial(n, k, (1,) * n) == stirling2_oracle(n, k)
        assert bell_partial(6, 3, (1,) * 6) == 90


class TestTruncated3:
    def test_matches_general(self):
        rng = random.Random(12)
        for _ in range(3):
            x1, x2, x3 = (rng.randint(-4, 4) for _ in range(3))
            for m in range(0, 13):
                for j in range(0, m + 2):  # j > m has no partitions: 0
                    expect = bell_partial(m, j, (x1, x2, x3))
                    assert bell_truncated3(m, j, x1, x2, x3) == expect

    def test_symbolic(self):
        x1, x2, x3 = Poly.variables(3)
        for m in range(0, 8):
            for j in range(0, m + 1):
                assert bell_truncated3(m, j, x1, x2, x3) == bell_partial(m, j, (x1, x2, x3))

    def test_rational(self):
        xs = (Fraction(1, 2), Fraction(-3, 4), Fraction(2, 5))
        for m in range(0, 9):
            for j in range(0, m + 1):
                assert bell_truncated3(m, j, *xs) == bell_partial(m, j, xs)


class TestInvariants:
    def test_homogeneity(self):
        # B_{n,k}(lam*mu*x1, lam*mu^2*x2, ...) = lam^k mu^n B_{n,k}(x)
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 7)
            k = rng.randint(1, n)
            xs = tuple(rng.randint(-3, 3) for _ in range(n))
            lam, mu = rng.randint(-3, 3), rng.randint(-3, 3)
            scaled = tuple(lam * mu ** (i + 1) * x for i, x in enumerate(xs))
            assert bell_partial(n, k, scaled) == lam**k * mu**n * bell_partial(n, k, xs)

    def test_sign_flip(self):
        # x_i -> (-1)^(i+1) x_i multiplies B_{n,k} by (-1)^(n+k)
        rng = random.Random(14)
        for _ in range(20):
            n = rng.randint(1, 7)
            k = rng.randint(1, n)
            xs = tuple(rng.randint(-3, 3) for _ in range(n))
            flipped = tuple((-1) ** i * x for i, x in enumerate(xs))
            assert bell_partial(n, k, flipped) == (-1) ** (n + k) * bell_partial(n, k, xs)


class TestTable:
    def test_consistent_with_partial(self):
        xs = (1, -2, 3, 0, 5, -1)
        table = bell_table(6, xs)
        for n in range(0, 7):
            for k in range(0, n + 1):
                assert table[n][k] == bell_partial(n, k, xs)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bell_partial(-1, 0, ())
        with pytest.raises(DomainError):
            bell_partial(2, -1, (1, 1))
        with pytest.raises(DomainError):
            bell_truncated3(-1, 0, 1, 1, 1)


class TestBellRowSum:
    """The one exact row sum behind the Bell witnesses of gamma and of the trace terms."""

    # B_{2,0..2}(1, 0): B_{2,1} = x_2 is a skipped zero argument and B_{2,2} = x_1^2, so both stay int
    INT_ROW = bell_table(2, (1, 0))[2]

    def test_int_data(self):
        # fibonacci at stride 2: x = (0!*hat_2, 1!*hat_4) = (3, 7) gives gamma = (3, -1)
        table = bell_table(2, (3, 7))
        got = [_bell_row_sum(table[k], (1, -1), math.factorial(k), (1, 1)) for k in (1, 2)]
        assert got == [3, -1]
        assert all(type(g) is int for g in got)

    def test_fraction_domain_with_int_typed_row(self):
        # gamma_coefficients((1, -1/2, 1), 1): hat_2 = 0, so row 2 holds only ints over Fraction data
        assert self.INT_ROW == [0, 0, 1] and all(type(b) is int for b in self.INT_ROW)
        got = _bell_row_sum(self.INT_ROW, (1, -1), 2, (1, Fraction(-1, 2), 1))
        assert got == Fraction(-1, 2)

    def test_fraction_coefficient_poly(self):
        # an integral total over rational-coefficient Poly data has a fractional quotient
        x = Poly.variable(0, 1)
        got = _bell_row_sum(self.INT_ROW, (1, -1), 2, (Fraction(1, 2) * x, 1))
        assert isinstance(got, Poly)
        assert got == Poly.const(Fraction(-1, 2), 1)

    def test_integer_data_needs_an_integer_result(self):
        x = Poly.variable(0, 1)
        with pytest.raises(DivisionNotExact):
            _bell_row_sum([0, 1], (1,), 2, (1, 1))
        with pytest.raises(DivisionNotExact):
            _bell_row_sum([0, x], (1,), 2, (x, 1))
