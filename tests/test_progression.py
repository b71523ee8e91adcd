import random
from fractions import Fraction

import pytest

from linrec import CoeffVector, DomainError, Poly, RecurrenceSpec
from linrec.lucas import k_lucas_number, lucas_transform, lucas_transform_bell_prefix
from linrec.oracle import char_poly_of_power, verify_recurrence
from linrec.progression import gamma_coefficients, subseq_recurrence
from linrec.recurrence import seq_range
from support import random_spec


class TestGammaGoldens:
    def test_order_two_classical(self):
        # step-m slice of the (1,1) recurrence: (L_m, (-1)^(m+1))
        lucas = lucas_transform((1, 1), 10).terms
        for m in range(1, 11):
            assert gamma_coefficients((1, 1), m).gamma == (lucas[m], (-1) ** (m + 1))

    def test_order_four_table(self):
        c = (2, 1, -2, -1)
        want = {
            2: (6, -11, 6, -1),
            3: (8, -14, -8, -1),
            4: (14, -51, 14, -1),
            5: (22, -119, -22, -1),
        }
        for m, gamma in want.items():
            assert gamma_coefficients(c, m).gamma == gamma

    def test_order_four_structure(self):
        # repeated-root structure: gamma = (2L, 2s - L^2, 2sL, -1) with
        # L the order-2 hat value at m and s the m-th sign
        lucas = lucas_transform((1, 1), 30).terms
        for m in range(1, 11):
            big, s = lucas[m], (-1) ** m
            got = gamma_coefficients((2, 1, -2, -1), m).gamma
            assert got == (2 * big, 2 * (-s) - big**2, 2 * s * big, -1)

    def test_classical_doubling_identities(self):
        lucas = lucas_transform((1, 1), 30).terms
        for m in range(1, 11):
            assert lucas[2 * m] == lucas[m] ** 2 - 2 * (-1) ** m
            assert lucas[3 * m] == lucas[m] ** 3 - 3 * (-1) ** m * lucas[m]

    def test_narayana_step_three(self):
        assert gamma_coefficients((1, 0, 1), 3).gamma == (4, -3, 1)

    def test_padovan_step_two(self):
        assert gamma_coefficients((0, 1, 1), 2).gamma == (2, -1, 1)

    def test_step_one_is_identity(self):
        rng = random.Random(41)
        for _ in range(20):
            spec = random_spec(rng)
            assert gamma_coefficients(spec.coeffs.c, 1).gamma == spec.coeffs.c

    def test_order_one(self):
        assert gamma_coefficients((3,), 4).gamma == (81,)

    def test_k_fibonacci_families(self):
        for k in range(1, 6):
            for m in range(1, 9):
                got = gamma_coefficients((k, 1), m).gamma
                assert got == (k_lucas_number(k, m), (-1) ** (m + 1))

    def test_rational_coefficients(self):
        c = (Fraction(1, 2), Fraction(3, 4))
        g = gamma_coefficients(c, 2, cross_check=True).gamma
        # trailing coefficient is c_d^m with the order-2 even-step sign
        assert g[-1] == -Fraction(9, 16)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_coefficients((1, 1), 0)


class TestGammaRoutes:
    def test_matches_char_poly_route(self):
        rng = random.Random(42)
        for _ in range(60):
            spec = random_spec(rng)
            for m in range(1, 7):
                a = gamma_coefficients(spec.coeffs.c, m).gamma
                b = char_poly_of_power(spec.coeffs.c, m).c
                assert a == b

    def test_cross_check_consistent(self):
        rng = random.Random(43)
        for _ in range(25):
            spec = random_spec(rng)
            m = rng.randint(1, 5)
            full = gamma_coefficients(spec.coeffs.c, m, cross_check=True)
            fast = gamma_coefficients(spec.coeffs.c, m)
            assert full.gamma == fast.gamma


class TestSubsequence:
    def test_initial_terms(self):
        spec = RecurrenceSpec(CoeffVector((1, 0, 1)), (1, 1, 1))
        sub = subseq_recurrence(spec, 3, 2)
        assert sub.initial == (1, 4, 13)
        assert sub.coeffs.c == (4, -3, 1)

    def test_slice_satisfies_recurrence(self):
        rng = random.Random(44)
        for _ in range(30):
            spec = random_spec(rng)
            m = rng.randint(1, 5)
            r = rng.randint(0, 3)
            sub = subseq_recurrence(spec, m, r)
            base = seq_range(spec, 0, m * 39 + r)
            window = [base[m * i + r] for i in range(40)]
            assert verify_recurrence(window, sub.coeffs) == []
            assert seq_range(sub, 0, 39) == window

    def test_r_negative_rejected(self):
        spec = RecurrenceSpec(CoeffVector((1, 1)), (0, 1))
        with pytest.raises(DomainError):
            subseq_recurrence(spec, 2, -1)


class TestHatRoundTrip:
    def test_golden(self):
        # step-2 slice of (1,1): its own trace terms are the even-index classics
        g = gamma_coefficients((1, 1), 2).gamma
        assert lucas_transform_bell_prefix(g, 4) == [3, 7, 18, 47]

    def test_round_trip_random(self):
        rng = random.Random(45)
        for _ in range(25):
            spec = random_spec(rng)
            m = rng.randint(1, 6)
            g = gamma_coefficients(spec.coeffs.c, m).gamma
            hats = lucas_transform_bell_prefix(g, 8)
            base = lucas_transform(spec.coeffs.c, 8 * m).terms
            assert hats == [base[m * n] for n in range(1, 9)]


class TestSymbolic:
    def test_order_two_identities(self):
        c1, c2 = Poly.variables(2)
        for m in range(1, 5):
            hats = lucas_transform((c1, c2), 2 * m).terms
            g = gamma_coefficients((c1, c2), m).gamma
            assert g[0] == hats[m]
            assert 2 * g[1] == hats[2 * m] - hats[m] ** 2
            assert g[1] == (-1) ** (m + 1) * c2**m

    def test_order_three_step_two(self):
        c1, c2, c3 = Poly.variables(3)
        g = gamma_coefficients((c1, c2, c3), 2).gamma
        assert g == (c1**2 + 2 * c2, 2 * c1 * c3 - c2**2, c3**2)
