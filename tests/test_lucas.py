import random
from fractions import Fraction

import pytest

from linrec import DomainError, Poly
from linrec.lucas import lucas_transform
from linrec.oracle import companion, mat_pow, mat_trace
from support import random_coeffs
from witnesses import (
    k_lucas_number,
    lucas_transform_bell_prefix,
    narayana_hat_number,
    perrin_number,
    tribonacci_hat_number,
)


class TestGoldens:
    def test_order_two(self):
        assert lucas_transform((1, 1), 10).terms == (2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123)

    def test_order_three(self):
        want = (3, 1, 3, 7, 11, 21, 39, 71, 131, 241, 443, 815, 1499, 2757)
        assert lucas_transform((1, 1, 1), 13).terms == want

    def test_perrin_head(self):
        assert lucas_transform((0, 1, 1), 10).terms == (3, 0, 2, 3, 2, 5, 5, 7, 10, 12, 17)

    def test_order_one(self):
        # d=1: trace of [c] to the n-th power is c^n, with hat_0 = 1
        assert lucas_transform((3,), 4).terms == (1, 3, 9, 27, 81)

    def test_double_lucas(self):
        # the order-4 vector below traces to twice the classical order-2 values
        four = lucas_transform((2, 1, -2, -1), 20).terms
        two = lucas_transform((1, 1), 20).terms
        assert four[0] == 4
        assert all(four[n] == 2 * two[n] for n in range(1, 21))

    def test_rational_coefficients(self):
        lt = lucas_transform((Fraction(1, 2), Fraction(1, 2)), 4)
        assert lt.terms[0] == 2
        assert lt.terms[1] == Fraction(1, 2)
        # still satisfies its own recurrence
        for n in (2, 3, 4):
            assert lt.terms[n] == Fraction(1, 2) * (lt.terms[n - 1] + lt.terms[n - 2])

    def test_extended_is_prefix_stable(self):
        base = lucas_transform((1, 1, 1), 5)
        more = lucas_transform((1, 1, 1), 12)
        assert more.terms[:6] == base.terms

    def test_domain(self):
        with pytest.raises(DomainError):
            lucas_transform((1, 1), -1)
        with pytest.raises(DomainError):
            lucas_transform_bell_prefix((1, 1), 0)
        with pytest.raises(DomainError):
            k_lucas_number(2, 0)


class TestTwoRoutes:
    def test_bell_equals_newton_random(self):
        rng = random.Random(21)
        for _ in range(40):
            c = random_coeffs(rng)
            newton = lucas_transform(c, 12).terms[1:]
            bell = lucas_transform_bell_prefix(c, 12)
            assert list(newton) == list(bell)

    def test_single_entry_point(self):
        c = (2, -1, 3)
        for n in range(1, 10):
            assert lucas_transform_bell_prefix(c, n)[-1] == lucas_transform(c, n).terms[n]

    def test_symbolic_routes_agree(self):
        for d in (1, 2, 3, 4):
            c = Poly.variables(d)
            newton = lucas_transform(tuple(c), 8).terms[1:]
            bell = lucas_transform_bell_prefix(tuple(c), 8)
            assert list(newton) == list(bell)
            # every entry is a polynomial with integer coefficients
            assert all(isinstance(t, Poly) and t.has_integer_coefficients() for t in newton)

    def test_trace_route(self):
        rng = random.Random(22)
        for _ in range(25):
            c = random_coeffs(rng)
            mat = companion(c)
            terms = lucas_transform(c, 8).terms
            for n in range(0, 9):
                assert mat_trace(mat_pow(mat, n)) == terms[n]


class TestClosedForms:
    def test_k_lucas_vs_transform(self):
        for k in range(1, 6):
            terms = lucas_transform((k, 1), 25).terms
            for m in range(1, 26):
                assert k_lucas_number(k, m) == terms[m]

    def test_k_lucas_via_neighbors(self):
        # L_{k,m} = F_{k,m-1} + F_{k,m+1} with F the (k,1) sequence from (0,1)
        for k in range(1, 6):
            f = [0, 1]
            for _ in range(32):
                f.append(k * f[-1] + f[-2])
            for m in range(1, 31):
                assert k_lucas_number(k, m) == f[m - 1] + f[m + 1]

    def test_tribonacci_hat(self):
        terms = lucas_transform((1, 1, 1), 25).terms
        for m in range(1, 26):
            assert tribonacci_hat_number(m) == terms[m]

    def test_perrin(self):
        terms = lucas_transform((0, 1, 1), 25).terms
        for m in range(1, 26):
            assert perrin_number(m) == terms[m]

    def test_narayana_hat(self):
        terms = lucas_transform((1, 0, 1), 25).terms
        for m in range(1, 26):
            assert narayana_hat_number(m) == terms[m]

    def test_doubling_large_index(self):
        # order-2 consistency at a size only the matrix route can reach quickly:
        # trace(C^(2m)) = trace(C^m)^2 - 2*(-1)^m
        mat = companion((1, 1))
        m = 10**5
        tm = mat_trace(mat_pow(mat, m))
        t2m = mat_trace(mat_pow(mat, 2 * m))
        assert t2m == tm * tm - 2 * (-1) ** m
