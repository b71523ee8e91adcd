import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from linrec import CoeffVector, DomainError, Poly, RecurrenceSpec
from linrec.kernel import value_to_json
from linrec.lucas import k_lucas_number, lucas_transform, lucas_transform_bell_prefix
from linrec import progression
from linrec.oracle import NoSolution, char_poly_of_power, verify_recurrence
from linrec.progression import GammaVector, gamma_coefficients, subseq_recurrence, verify_slice
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

    def test_mixed_int_and_fraction_coefficients(self):
        # integer leading coefficients keep some Bell entries int-typed; in the
        # last two a Fraction-typed trace term cancels to 0 (hat_2 = 1 + 2*(-1/2)),
        # so a whole Bell row is int-typed while its sum is not an integer
        cases = [
            (1, 1, Fraction(1, 2)),
            (2, Fraction(-1, 3)),
            (1, 0, 3, Fraction(5, 2)),
            (1, Fraction(-1, 2), 1),
            (1, Fraction(-1, 2)),
        ]
        for c in cases:
            for m in range(1, 7):
                g = gamma_coefficients(c, m, cross_check=True).gamma
                assert g == gamma_coefficients(c, m).gamma == char_poly_of_power(c, m).c
                spec = RecurrenceSpec(CoeffVector(c), tuple(range(1, len(c) + 1)))
                sub = subseq_recurrence(spec, m, 1)
                assert seq_range(sub, 0, 12) == seq_range(spec, 0, 12 * m + 1)[1::m]
            assert lucas_transform_bell_prefix(c, 8) == list(lucas_transform(c, 8).terms[1:])

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

    def test_golden_json(self):
        # recorded from the Fraction-coefficient Poly kernel
        got = [value_to_json(g) for g in gamma_coefficients(Poly.variables(3), 4, cross_check=True).gamma]
        assert json.dumps(got) == (
            '[{"nvars": 3, "terms": [{"exponents": [4, 0, 0], "coefficient": "1"}, '
            '{"exponents": [2, 1, 0], "coefficient": "4"}, {"exponents": [1, 0, 1], "coefficient": "4"}, '
            '{"exponents": [0, 2, 0], "coefficient": "2"}]}, '
            '{"nvars": 3, "terms": [{"exponents": [2, 0, 2], "coefficient": "-2"}, '
            '{"exponents": [1, 2, 1], "coefficient": "4"}, {"exponents": [0, 4, 0], "coefficient": "-1"}, '
            '{"exponents": [0, 1, 2], "coefficient": "4"}]}, '
            '{"nvars": 3, "terms": [{"exponents": [0, 0, 4], "coefficient": "1"}]}]'
        )

    def test_grid_is_integer_and_unchanged(self):
        # the benchmark's symbolic grid: d <= 3, m <= 6, and seq_range to 16
        results = []
        for d in range(1, 4):
            c = Poly.variables(d)
            for m in range(1, 7):
                results.append(gamma_coefficients(c, m, cross_check=True).gamma)
                results.append(char_poly_of_power(c, m).c)
            results.append(seq_range(RecurrenceSpec(CoeffVector(c), tuple(range(1, d + 1))), 0, 16))
        for values in results:
            for p in values:
                # seq_range hands back its int initial terms as they are
                assert all(type(k) is int for k in (p.terms.values() if isinstance(p, Poly) else [p]))
        blob = json.dumps([[value_to_json(p) for p in values] for values in results])
        # sha256 of the same JSON from the Fraction-coefficient Poly kernel
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "71bcfc63750ac25d906b485d9275c29d117cc1ce5298fe639408435b2e701d49"
        )


def no_solution():
    raise NoSolution("inconsistent windows")


class TestVerifySlice:
    SPEC = RecurrenceSpec(CoeffVector((1, 0, 1)), (1, 1, 1))

    def test_fields(self):
        rep = verify_slice(self.SPEC, 3, 2, 12)
        assert (rep.m, rep.r, rep.depth) == (3, 2, 12)
        assert rep.gamma == gamma_coefficients(self.SPEC.coeffs, 3)
        assert rep.gamma.gamma == (4, -3, 1)
        assert rep.charpoly_agree is True
        assert rep.violations == ()
        assert rep.fit == "agree"
        assert rep.passed is True
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.fit = "mismatch"

    def test_defaults(self):
        rep = verify_slice(self.SPEC, 2)
        assert (rep.r, rep.depth, rep.fit, rep.passed) == (0, 40, "agree", True)

    def test_depth_rules(self, monkeypatch):
        # with a wrong gamma and d = 3: the direct check covers indices 3..depth-1,
        # and the fit runs from depth 6
        wrong = GammaVector(2, CoeffVector((1, 1, 1)))
        monkeypatch.setattr(progression, "gamma_coefficients", lambda coeffs, m, cross_check: wrong)
        got = [(rep.violations, rep.fit) for rep in (verify_slice(self.SPEC, 2, 0, k) for k in (3, 4, 5, 6))]
        assert got == [((), "skipped"), ((3,), "skipped"), ((3, 4), "skipped"), ((3, 4, 5), "mismatch")]

    def test_underdetermined_fit_passes(self):
        # a constant sequence fits an order-1 recurrence: the order-2 fit is singular
        rep = verify_slice(RecurrenceSpec(CoeffVector((2, -1)), (3, 3)), 4)
        assert (rep.gamma.gamma, rep.fit, rep.passed) == ((2, -1), "underdetermined", True)

    def test_fraction_spec(self):
        rep = verify_slice(RecurrenceSpec(CoeffVector((Fraction(1, 2), 1)), (1, 1)), 3, 2)
        assert rep.gamma.gamma == (Fraction(13, 8), 1)
        assert (rep.fit, rep.passed) == ("agree", True)

    def test_poly_spec_skips_only_the_fit(self):
        rep = verify_slice(RecurrenceSpec(CoeffVector(Poly.variables(2)), (0, 1)), 2, 1, 6)
        assert (rep.charpoly_agree, rep.violations, rep.fit, rep.passed) == (True, (), "skipped", True)

    @pytest.mark.parametrize(
        "name, patch, field",
        [
            ("char_poly_of_power", lambda coeffs, m: CoeffVector((1, 1, 1)), "charpoly_agree"),
            ("verify_recurrence", lambda terms, coeffs: [7], "violations"),
            ("fit_recurrence", lambda terms, d: CoeffVector((1, 1, 1)), "fit"),
            ("fit_recurrence", lambda terms, d: no_solution(), "fit"),
        ],
    )
    def test_any_disagreement_fails(self, monkeypatch, name, patch, field):
        monkeypatch.setattr(progression, name, patch)
        rep = verify_slice(self.SPEC, 3)
        assert getattr(rep, field) in (False, (7,), "mismatch")
        assert rep.passed is False

    @pytest.mark.parametrize("m, r, depth", [(0, 0, 40), (3, -1, 40), (100, -7, 6), (2, 0, 0)])
    def test_domain(self, m, r, depth):
        with pytest.raises(DomainError):
            verify_slice(self.SPEC, m, r, depth)
