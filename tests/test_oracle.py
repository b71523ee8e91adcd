import random
from fractions import Fraction

import pytest

from linrec import CoeffVector, DomainError, Poly, RecurrenceSpec, oracle
from linrec.oracle import (
    UNDERDETERMINED,
    CharPoly,
    NoSolution,
    char_poly,
    char_poly_of_power,
    companion,
    fit_recurrence,
    mat_mul,
    mat_pow,
    mat_trace,
    verify_recurrence,
)
from linrec.recurrence import seq_range
from support import random_spec

FIB = RecurrenceSpec(CoeffVector((1, 1)), (0, 1))


def det_oracle(mat):
    # independent route: cofactor expansion along the first row
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * det_oracle(minor)
    return total


def char_poly_oracle(mat):
    # p(t) = det(tI - A) expanded via cofactors over Poly in one variable t
    n = len(mat)
    t = Poly.variable(0, 1)
    shifted = [[t * (1 if i == j else 0) - mat[i][j] for j in range(n)] for i in range(n)]
    p = det_oracle(shifted)
    return tuple(p.terms.get((k,), Fraction(0)) for k in range(n + 1))


class TestCompanion:
    def test_shape(self):
        assert companion((1, 2, 3)) == [[1, 2, 3], [1, 0, 0], [0, 1, 0]]
        assert companion((5,)) == [[5]]

    def test_action_matches_recurrence(self):
        spec = RecurrenceSpec(CoeffVector((2, -1, 3)), (1, 0, 2))
        terms = seq_range(spec, 0, 12)
        mat = companion((2, -1, 3))
        state = [[terms[2]], [terms[1]], [terms[0]]]
        for n in range(3, 13):
            state = mat_mul(mat, state)
            assert state[0][0] == terms[n]


class TestMatPow:
    def test_fibonacci_q_matrix(self):
        q = [[1, 1], [1, 0]]
        assert mat_pow(q, 10) == [[89, 55], [55, 34]]

    def test_zero_power_is_identity(self):
        assert mat_pow([[3, 1], [4, 1]], 0) == [[1, 0], [0, 1]]

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            mat_pow([[1]], -1)

    def test_matches_repeated_multiplication(self):
        rng = random.Random(31)
        mat = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        acc = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for e in range(0, 7):
            assert mat_pow(mat, e) == acc
            acc = mat_mul(acc, mat)

    def test_product_count(self, monkeypatch):
        # one product per set bit and one squaring per bit below the top one
        calls = []
        real = oracle._mat_mul

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(oracle, "_mat_mul", counted)
        q = [[1, 1], [1, 0]]
        for e in range(1, 65):
            calls.clear()
            assert mat_pow(q, e)[0][1] == seq_range(FIB, e, e)[0]
            assert len(calls) == e.bit_length() - 1 + bin(e).count("1")


BAD_SHAPES = {
    "mat_mul.ragged-right": lambda: mat_mul([[1, 2]], [[1], [2, 3]]),
    "mat_mul.ragged-left": lambda: mat_mul([[1, 2], [3]], [[1], [2]]),
    "mat_mul.not-composing": lambda: mat_mul([[1, 2]], [[1]]),
    "mat_trace.wide": lambda: mat_trace([[1, 2]]),
    "mat_trace.ragged": lambda: mat_trace([[1, 2], [3]]),
    "mat_pow.ragged": lambda: mat_pow([[1, 2], [3]], 2),
    "char_poly.ragged": lambda: char_poly([[1], [2, 3]]),
}


class TestShapes:
    @pytest.mark.parametrize("case", sorted(BAD_SHAPES))
    def test_ragged_or_not_square_rejected(self, case):
        with pytest.raises(DomainError):
            BAD_SHAPES[case]()

    def test_well_shaped(self):
        assert mat_mul([[1, 2]], [[1], [2]]) == [[5]]
        assert mat_mul([[1], [2]], [[3, 4]]) == [[3, 4], [6, 8]]
        assert mat_trace([[1, 2], [3, 4]]) == 5


class TestCharPoly:
    def test_fibonacci_companion(self):
        # t^2 - t - 1, ascending
        assert char_poly(companion((1, 1))).coeffs == (-1, -1, 1)

    def test_identity_matrix(self):
        # (t - 1)^3 = t^3 - 3t^2 + 3t - 1
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert char_poly(eye).coeffs == (-1, 3, -3, 1)

    def test_monic_enforced(self):
        with pytest.raises(DomainError):
            CharPoly((1, 2, 2))

    def test_inexact_or_non_sequence_rejected(self):
        for bad in (5, None, (0.5, 1), (True, 1)):
            with pytest.raises(DomainError):
                CharPoly(bad)

    def test_matches_cofactor_oracle(self):
        rng = random.Random(32)
        for _ in range(25):
            n = rng.randint(1, 4)
            mat = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            assert char_poly(mat).coeffs == char_poly_oracle(mat)

    def test_companion_recovers_coefficients(self):
        # char poly of the companion of c is t^d - c1 t^(d-1) - ... - cd
        rng = random.Random(33)
        for _ in range(20):
            spec = random_spec(rng)
            c = spec.coeffs.c
            d = len(c)
            cp = char_poly(companion(c))
            assert cp.coeffs[d] == 1
            for k in range(1, d + 1):
                assert cp.coeffs[d - k] == -c[k - 1]

    def test_symbolic_companion(self):
        c1, c2 = Poly.variables(2)
        cp = char_poly(companion((c1, c2)))
        assert cp.coeffs == (-c2, -c1, 1)

    def test_elementary(self):
        cp = char_poly(companion((1, 1)))
        assert [cp.elementary(k) for k in range(3)] == [1, 1, -1]
        with pytest.raises(DomainError):
            cp.elementary(3)


class TestCharPolyOfPower:
    def test_golden(self):
        # even-index slice: b_n = 3 b_{n-1} - b_{n-2}; every-third: b_n = 4 b_{n-1} + b_{n-2}
        assert char_poly_of_power((1, 1), 2).c == (3, -1)
        assert char_poly_of_power((1, 1), 3).c == (4, 1)

    def test_identity_power(self):
        rng = random.Random(34)
        for _ in range(20):
            spec = random_spec(rng)
            assert char_poly_of_power(spec.coeffs.c, 1).c == spec.coeffs.c

    def test_m_zero_rejected(self):
        with pytest.raises(DomainError):
            char_poly_of_power((1, 1), 0)


class TestVerify:
    def test_clean(self):
        spec = RecurrenceSpec(CoeffVector((1, 1)), (0, 1))
        terms = seq_range(spec, 0, 30)
        assert verify_recurrence(terms, spec.coeffs) == []

    def test_detects_corruption(self):
        spec = RecurrenceSpec(CoeffVector((1, 1)), (0, 1))
        terms = list(seq_range(spec, 0, 30))
        terms[17] += 1
        bad = verify_recurrence(terms, spec.coeffs)
        # the corrupt term breaks its own window and the two windows using it
        assert bad == [17, 18, 19]


class TestFit:
    def test_fibonacci(self):
        spec = RecurrenceSpec(CoeffVector((1, 1)), (0, 1))
        got = fit_recurrence(seq_range(spec, 0, 12), 2)
        assert got.c == (1, 1)

    def test_geometric_is_underdetermined_at_order_two(self):
        terms = [2**n for n in range(10)]
        assert fit_recurrence(terms, 2) is UNDERDETERMINED
        assert repr(UNDERDETERMINED) == "UNDERDETERMINED"

    def test_dependent_windows(self):
        # rank-deficient system: geometric tail admits a whole family of fits
        assert fit_recurrence([1, 1, 2, 4, 8, 16], 3) is UNDERDETERMINED

    def test_inconsistent(self):
        with pytest.raises(NoSolution):
            fit_recurrence([0, 1, 1, 2, 3, 5, 8, 14], 2)

    def test_too_few_terms(self):
        with pytest.raises(DomainError):
            fit_recurrence([1, 1, 2], 2)

    def test_round_trip_random(self):
        rng = random.Random(35)
        hits = 0
        for _ in range(40):
            spec = random_spec(rng)
            terms = seq_range(spec, 0, 3 * spec.order + 6)
            got = fit_recurrence(terms, spec.order)
            # a unique fit must be the generating coefficients
            if got is not UNDERDETERMINED:
                assert got.c == spec.coeffs.c
                hits += 1
        assert hits >= 20  # most random specs are honestly order-d

    def test_rational_terms(self):
        spec = RecurrenceSpec(CoeffVector((Fraction(1, 2), 1)), (1, 1))
        terms = seq_range(spec, 0, 10)
        assert fit_recurrence(terms, 2).c == (Fraction(1, 2), 1)

    def test_zero_sequence(self):
        assert fit_recurrence([0] * 10, 2) is UNDERDETERMINED

    def test_poly_terms_rejected(self):
        spec = RecurrenceSpec(CoeffVector(Poly.variables(2)), (0, 1))
        with pytest.raises(DomainError):
            fit_recurrence(seq_range(spec, 0, 8), 2)


class TestTraceLink:
    def test_trace_of_power_matches_transform(self):
        from linrec.lucas import lucas_transform

        rng = random.Random(36)
        for _ in range(15):
            spec = random_spec(rng)
            mat = companion(spec.coeffs.c)
            terms = lucas_transform(spec.coeffs.c, 10).terms
            power = mat_pow(mat, 0)
            for n in range(0, 11):
                assert mat_trace(power) == terms[n]
                power = mat_mul(power, mat)


def fit_by_fraction_elimination(terms, d: int):
    """The former fit_recurrence, kept verbatim as the reference for the fraction-free fit."""
    if d < 1:
        raise DomainError(f"fit_recurrence needs d >= 1, got {d}")
    terms = list(terms)
    if any(isinstance(t, Poly) for t in terms):
        raise DomainError("fit_recurrence solves over int and Fraction terms, not Poly")
    if len(terms) < 2 * d:
        raise DomainError(f"need at least {2 * d} terms to fit order {d}, got {len(terms)}")
    aug = [
        [Fraction(terms[n - k]) for k in range(1, d + 1)] + [Fraction(terms[n])]
        for n in range(d, len(terms))
    ]
    rank = 0
    pivot_cols = []
    for col in range(d):
        pivot = next((i for i in range(rank, len(aug)) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = aug[rank][col]
        aug[rank] = [v / inv for v in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [u - factor * w for u, w in zip(aug[i], aug[rank])]
        pivot_cols.append(col)
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i][d]:
            raise NoSolution(f"no order-{d} recurrence matches all {len(terms)} terms")
    if rank < d:
        return UNDERDETERMINED
    g = [Fraction(0)] * d
    for i, col in enumerate(pivot_cols):
        g[col] = aug[i][d]
    if g[d - 1] == 0:
        # a shorter recurrence fits the window; no genuine order-d answer
        return UNDERDETERMINED
    return CoeffVector(tuple(v.numerator if v.denominator == 1 else v for v in g))


def random_window(rng, d: int, rational: bool) -> list:
    """2d..2d+5 terms: a random head of h <= d terms, then a recurrence of order k <= h
    (zero coefficients, trailing ones too, allowed), and sometimes one term bumped.

    The head length and k set the rank of the windows anywhere in 0..d; a head longer
    than k makes a full-rank fit with g_d = 0; a bump makes the windows inconsistent.
    """

    def value():
        if rng.random() < 0.3:
            return 0
        v = rng.randint(-3, 3)
        return Fraction(v, rng.randint(1, 3)) if rational and rng.random() < 0.5 else v

    h = rng.randint(0, d)
    k = rng.randint(0, h)
    c = [value() for _ in range(k)]
    terms = [value() for _ in range(h)]
    length = rng.randint(2 * d, 2 * d + 5)
    while len(terms) < length:
        terms.append(sum(ci * terms[-i] for i, ci in enumerate(c, start=1)))
    if rng.random() < 0.3:
        terms[rng.choice([-1, rng.randrange(len(terms))])] += rng.choice([-1, 1, Fraction(1, 2)] if rational else [-1, 1])
    return terms


def fit_outcome(fit, terms, d):
    """What a fit gives: the coefficients with their types, UNDERDETERMINED, or NoSolution."""
    try:
        got = fit(terms, d)
    except NoSolution:
        return NoSolution
    if got is UNDERDETERMINED:
        return got
    return got.c, tuple(map(type, got.c))


class TestFitAgainstFractionElimination:
    def test_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(st.randoms(use_true_random=False), st.integers(1, 4), st.booleans())
        def check(rng, d, rational):
            terms = random_window(rng, d, rational)
            assert fit_outcome(fit_recurrence, terms, d) == fit_outcome(fit_by_fraction_elimination, terms, d)

        check()

    def test_every_rank_and_outcome(self):
        # the generator reaches every rank 0..d and every outcome, and the two fits agree on all
        sympy = pytest.importorskip("sympy")
        rng = random.Random(37)
        for d in range(1, 5):
            seen = set()
            for _ in range(250):
                rational = rng.random() < 0.5
                terms = random_window(rng, d, rational)
                want = fit_outcome(fit_by_fraction_elimination, terms, d)
                assert fit_outcome(fit_recurrence, terms, d) == want
                rows = [terms[n - d : n] for n in range(d, len(terms))]
                rank = sympy.Matrix(rows).rank()
                if want is NoSolution or want is UNDERDETERMINED:
                    seen.add((rank, want, rational))
                else:
                    seen.add((rank, "unique", rational))
            for rational in (False, True):
                assert {(r, NoSolution, rational) for r in range(d + 1)} <= seen
                assert {(r, UNDERDETERMINED, rational) for r in range(d + 1)} <= seen
                assert (d, "unique", rational) in seen

    def test_trailing_zero_fit_is_underdetermined(self):
        # t_n = 2 t_{n-1} from n = 2 on, but not at n = 1: full rank, g = (2, 0)
        assert fit_recurrence([5, 1, 2, 4, 8, 16], 2) is UNDERDETERMINED

    def test_inconsistency_wins_over_underdetermined(self):
        # rank 0, and the last window asks for 0 = 1
        with pytest.raises(NoSolution):
            fit_recurrence([0, 0, 0, 0, 0, 1], 2)
