import random
from fractions import Fraction

import pytest

from linrec import CoeffVector, DegenerateDivisor, DomainError, InvalidCoeffs, Poly, RecurrenceSpec
from linrec.lucas import lucas_transform, lucas_transform_bell_prefix
from linrec.oracle import companion, mat_pow
from linrec.progression import gamma_coefficients
from linrec.recurrence import seq_eval, seq_range
from linrec.sums import (
    invert_partial_sum,
    invert_sequence,
    lambda_decompose,
    partial_sum_closed,
    partial_sum_form,
    progression_sum,
)
from support import random_spec

FIB = RecurrenceSpec(CoeffVector((1, 1)), (0, 1))
TRIB = RecurrenceSpec(CoeffVector((1, 1, 1)), (0, 0, 1))


class TestSpecValidation:
    def test_trailing_zero_rejected(self):
        with pytest.raises(InvalidCoeffs):
            CoeffVector((1, 0))

    def test_empty_rejected(self):
        with pytest.raises(InvalidCoeffs):
            CoeffVector(())

    def test_float_rejected(self):
        with pytest.raises(InvalidCoeffs):
            CoeffVector((1.5, 1))

    def test_bool_rejected(self):
        # bool is an int subclass, but True is no coefficient
        with pytest.raises(InvalidCoeffs):
            CoeffVector((True,))
        with pytest.raises(InvalidCoeffs):
            RecurrenceSpec(CoeffVector((1, 1)), (True, False))

    def test_initial_length_mismatch(self):
        with pytest.raises(InvalidCoeffs):
            RecurrenceSpec(CoeffVector((1, 1)), (0, 1, 1))

    def test_mixed_variable_sets_rejected(self):
        x2, x3 = Poly.variables(2)[0], Poly.variables(3)[0]
        with pytest.raises(InvalidCoeffs):
            CoeffVector((x2, x3))
        with pytest.raises(InvalidCoeffs):
            RecurrenceSpec(CoeffVector(Poly.variables(2)), (x3, 1))
        with pytest.raises(InvalidCoeffs):
            RecurrenceSpec(CoeffVector((1, 1)), (x2, x3))
        for call in (gamma_coefficients, lucas_transform):
            with pytest.raises(InvalidCoeffs):
                call((x2, x3), 2)
        # one variable set, with scalars mixed in, is fine
        assert seq_eval(RecurrenceSpec(CoeffVector((x2, 1)), (1, x2)), 2) == x2**2 + 1


class TestSeqEval:
    def test_range_golden(self):
        # endpoints are inclusive
        assert seq_range(FIB, 0, 9) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_range_offset(self):
        assert seq_range(FIB, 5, 7) == [5, 8, 13]

    def test_bad_range(self):
        with pytest.raises(DomainError):
            seq_range(FIB, 5, 4)
        with pytest.raises(DomainError):
            seq_range(FIB, -1, 4)

    def test_eval_matches_iteration_both_sides_of_cutoff(self):
        rng = random.Random(51)
        for _ in range(10):
            spec = random_spec(rng, max_d=3)
            terms = seq_range(spec, 0, 300)
            for n in (0, spec.order - 1, 7, 255, 256, 257, 300):
                assert seq_eval(spec, n) == terms[n]

    def test_eval_matrix_route_large(self):
        # F_1000 ends in ...849228875; the jump agrees with the walk from a_0
        direct = seq_range(FIB, 0, 1000)[-1]
        assert seq_eval(FIB, 1000) == direct
        assert direct % 10**9 == 849228875


class TestPartialSumForm:
    def test_tribonacci_form(self):
        f = partial_sum_form(TRIB)
        assert (f.divisor, f.weights, f.constant) == (-2, (1, 0, -1), 1)

    def test_fibonacci_form(self):
        # classic: sum of first n fibonacci = f_{n+2} - 1
        f = partial_sum_form(FIB)
        assert (f.divisor, f.weights, f.constant) == (-1, (0, -1), 1)

    def test_degenerate(self):
        spec = RecurrenceSpec(CoeffVector((2, -1)), (0, 1))
        with pytest.raises(DegenerateDivisor):
            partial_sum_form(spec)
        with pytest.raises(DegenerateDivisor):
            partial_sum_closed(spec, 5)

    def test_degenerate_zero_one(self):
        with pytest.raises(DegenerateDivisor):
            partial_sum_form(RecurrenceSpec(CoeffVector((0, 1)), (3, 4)))


class TestPartialSumValues:
    def test_fibonacci_golden(self):
        assert partial_sum_closed(FIB, 10) == sum(seq_range(FIB, 0, 10))

    def test_random_specs(self):
        rng = random.Random(52)
        checked = 0
        while checked < 40:
            spec = random_spec(rng)
            if 1 - sum(spec.coeffs.c) == 0:
                continue
            terms = seq_range(spec, 0, 45)
            running = 0
            for n in range(0, 41):
                running += terms[n]
                assert partial_sum_closed(spec, n) == running
            checked += 1

    def test_rational_spec(self):
        spec = RecurrenceSpec(CoeffVector((Fraction(1, 3), 1)), (1, 1))
        terms = seq_range(spec, 0, 25)
        for n in range(0, 21):
            assert partial_sum_closed(spec, n) == sum(terms[: n + 1])

    def test_evaluate_window_length(self):
        f = partial_sum_form(TRIB)
        with pytest.raises(DomainError):
            f.evaluate((1, 2))  # needs exactly d lookahead values


class TestInvertTransform:
    def test_fibonacci_head(self):
        assert invert_sequence((1, 1), 4) == [1, 1, 2, 3, 5]

    def test_golden_check(self):
        chk = invert_partial_sum((1, 1), 3)
        assert (chk.q_at_one, chk.partial_sum) == (-1, 7)
        assert chk.lhs == chk.rhs == -7
        assert chk.holds

    def test_identity_random(self):
        rng = random.Random(53)
        for _ in range(40):
            c = random_spec(rng).coeffs.c
            for n in (0, 1, 5, 20):
                assert invert_partial_sum(c, n).holds

    def test_identity_degenerate_divisor(self):
        # q(1) = 0 but the unsolved identity still balances
        for c in [(2, -1), (0, 1), (1, -1, 1)]:
            chk = invert_partial_sum(c, 12)
            assert chk.q_at_one == 0
            assert chk.holds
            assert chk.lhs == chk.rhs == 0

    def test_rational(self):
        assert invert_partial_sum((Fraction(1, 2), Fraction(1, 2)), 9).holds


class TestLambdaBasis:
    def test_goldens(self):
        assert lambda_decompose(FIB) == (0, 1)
        lucas = RecurrenceSpec(CoeffVector((1, 1)), (2, 1))
        assert lambda_decompose(lucas) == (2, -1)
        # the invert sequence itself has coordinates (1, 0, ..., 0)
        y_head = tuple(invert_sequence((1, 1, 1), 2))
        y_spec = RecurrenceSpec(CoeffVector((1, 1, 1)), y_head)
        assert lambda_decompose(y_spec) == (1, 0, 0)

    def test_reconstruction(self):
        rng = random.Random(54)
        for _ in range(30):
            spec = random_spec(rng)
            lam = lambda_decompose(spec)
            y = invert_sequence(spec.coeffs.c, 40)
            terms = seq_range(spec, 0, 40)
            for n in range(0, 41):
                built = sum(lam[i] * y[n - i] for i in range(spec.order) if n - i >= 0)
                assert built == terms[n]

    def test_lambda_total_is_form_constant(self):
        rng = random.Random(55)
        checked = 0
        while checked < 25:
            spec = random_spec(rng)
            if 1 - sum(spec.coeffs.c) == 0:
                continue
            assert sum(lambda_decompose(spec)) == partial_sum_form(spec).constant
            checked += 1


class TestWalkedHeads:
    """The trace and 1/q sequences: a head of d terms, then the shared forward walk."""

    C4 = {
        "int": (2, -1, 3, 1),
        "fraction": (Fraction(1, 2), -1, Fraction(2, 3), Fraction(-3, 4)),
        "poly": Poly.variables(4),
    }

    @pytest.mark.parametrize("domain", sorted(C4))
    def test_lengths_and_independent_routes(self, domain):
        c = self.C4[domain]
        mat = companion(c)
        head = (1, 2, -1, 5)
        lam = lambda_decompose(RecurrenceSpec(CoeffVector(c), head))
        for upto in range(0, 6):
            hats = lucas_transform(c, upto).terms
            y = invert_sequence(c, upto)
            assert len(hats) == upto + 1
            assert len(y) == upto + 1
            assert hats[0] == 4
            if upto >= 1:
                assert list(hats[1:]) == lucas_transform_bell_prefix(c, upto)
            # a_n read off companion powers, rebuilt from y through lambda
            for n in range(upto + 1):
                a_n = sum(p * s for p, s in zip(mat_pow(mat, n)[-1], reversed(head)))
                assert sum(lam[i] * y[n - i] for i in range(4) if n - i >= 0) == a_n

    def test_classic_prefixes(self):
        assert lucas_transform((1, 1, 1), 5).terms == (3, 1, 3, 7, 11, 21)
        assert invert_sequence((1, 1), 4) == [1, 1, 2, 3, 5]

    def test_extended_from_short_head(self):
        short = lucas_transform((1, 1, 1), 0)
        assert short.terms == (3,)
        assert short.extended(5).terms == (3, 1, 3, 7, 11, 21)


class TestSymbolicSums:
    SPEC = RecurrenceSpec(CoeffVector(Poly.variables(2)), (0, 1))

    def test_partial_sum_rejected(self):
        with pytest.raises(DomainError):
            partial_sum_closed(self.SPEC, 5)

    def test_progression_sum_rejected(self):
        with pytest.raises(DomainError):
            progression_sum(self.SPEC, 2, 1, 4)


class TestProgressionSum:
    def test_matches_direct(self):
        rng = random.Random(56)
        checked = 0
        while checked < 25:
            spec = random_spec(rng, max_d=4)
            m = rng.randint(1, 5)
            r = rng.randint(0, 3)
            base = seq_range(spec, 0, 20 * m + r)
            window = [base[m * i + r] for i in range(21)]
            try:
                for n in range(0, 21):
                    assert progression_sum(spec, m, r, n) == sum(window[: n + 1])
            except DegenerateDivisor:
                continue
            checked += 1

    def test_degenerate_subsequence_divisor(self):
        # the full-sequence divisor is fine but the step-6 slice divisor vanishes
        spec = RecurrenceSpec(CoeffVector((1, -1)), (1, 2))
        assert partial_sum_form(spec).divisor == 1
        with pytest.raises(DegenerateDivisor):
            progression_sum(spec, 6, 0, 5)

    def test_tribonacci_step_three(self):
        base = seq_range(TRIB, 0, 100)
        for n in range(0, 31):
            assert progression_sum(TRIB, 3, 0, n) == sum(base[3 * i] for i in range(n + 1))
