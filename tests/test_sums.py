import random
import time
from fractions import Fraction
from operator import mul

import pytest

from linrec import CoeffVector, DegenerateDivisor, DomainError, InvalidCoeffs, Poly, RecurrenceSpec, cli, sums
from linrec.lucas import lucas_transform
from linrec.oracle import companion, mat_pow
from linrec.progression import gamma_coefficients, subseq_recurrence
from linrec.recurrence import _jump_from, _stride_terms, seq_eval, seq_range
from linrec.sums import (
    _HALF_JUMP_FROM,
    invert_sequence,
    partial_sum_closed,
    partial_sum_form,
    progression_sum,
)
from support import matrix_reference, random_spec, squarings, walk_reference, window_products
from witnesses import evaluate_form, invert_partial_sum, lambda_decompose, lucas_transform_bell_prefix

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
            form = partial_sum_form(spec)
            running = 0
            for n in range(0, 41):
                running += terms[n]
                assert partial_sum_closed(spec, n) == running
                # the form on the look-ahead: int sums this short add up the walked terms instead
                assert evaluate_form(form, terms[n + 1 : n + 1 + spec.order]) == running
            checked += 1

    def test_rational_spec(self):
        spec = RecurrenceSpec(CoeffVector((Fraction(1, 3), 1)), (1, 1))
        terms = seq_range(spec, 0, 25)
        for n in range(0, 21):
            assert partial_sum_closed(spec, n) == sum(terms[: n + 1])

    def test_evaluate_window_length(self):
        f = partial_sum_form(TRIB)
        with pytest.raises(DomainError):
            evaluate_form(f, (1, 2))  # needs exactly d lookahead values


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
        assert lucas_transform((1, 1, 1), 0).terms == (3,)
        assert invert_sequence((1, 1), 4) == [1, 1, 2, 3, 5]


class TestSymbolicSums:
    SPEC = RecurrenceSpec(CoeffVector(Poly.variables(2)), (0, 1))

    def test_partial_sum_rejected(self):
        with pytest.raises(DomainError):
            partial_sum_closed(self.SPEC, 5)

    def test_progression_sum_rejected(self):
        with pytest.raises(DomainError):
            progression_sum(self.SPEC, 2, 1, 4)

    def test_far_sums_rejected_before_any_term(self, monkeypatch):
        spec = RecurrenceSpec(CoeffVector(Poly.variables(3)), (0, 0, 1))
        assert partial_sum_form(spec).divisor == 1 - sum(Poly.variables(3))

        def no_terms(*args):
            raise AssertionError("a term was computed for a sum that cannot be divided out")

        for name in ("seq_range", "_stride_terms"):
            monkeypatch.setattr(sums, name, no_terms)
        start = time.perf_counter()
        with pytest.raises(DomainError):
            partial_sum_closed(spec, 10**6)
        with pytest.raises(DomainError):
            progression_sum(spec, 2, 1, 10**6)
        assert time.perf_counter() - start < 1.0


class TestFarSums:
    """From n + d = _HALF_JUMP_FROM on a closed sum is one far term of the weighted sequence a'_k = sum_j w_j a_{k+j}."""

    SPECS = (
        TRIB,
        RecurrenceSpec(CoeffVector((-3,)), (2,)),
        RecurrenceSpec(CoeffVector((Fraction(5, 2), -1, 1)), (1, Fraction(1, 2), 3)),
        RecurrenceSpec(CoeffVector((Fraction(1, 3),)), (Fraction(2, 7),)),
    )

    def test_product_count(self, mulmods):
        # one _mulmod per squaring of the half jump to a'_(n+1) past its unit-vector start; the
        # head and the last step use none.  One below the edge the look-ahead window is jumped to
        for spec in self.SPECS:
            d = spec.order
            mulmods.clear()
            partial_sum_closed(spec, _HALF_JUMP_FROM - d - 1)
            assert len(mulmods) == window_products(_HALF_JUMP_FROM - d, d, d), spec
            for n in (_HALF_JUMP_FROM - d, _HALF_JUMP_FROM - 1, _HALF_JUMP_FROM, 511, 512, 1000, 4097, 10**5):
                mulmods.clear()
                partial_sum_closed(spec, n)
                assert len(mulmods) == squarings((n + 1) // 2, spec.order), (spec, n)

    def test_formula_only(self, monkeypatch):
        # every route computes q(1) once and builds neither a SumClosedForm nor a RecurrenceSpec
        divisors, specs = [], []
        real_divisor, real_init = sums._divisor, RecurrenceSpec.__init__
        monkeypatch.setattr(sums, "_divisor", lambda c: divisors.append(c) or real_divisor(c))
        monkeypatch.setattr(RecurrenceSpec, "__init__", lambda self, *a, **k: specs.append((a, k)) or real_init(self, *a, **k))
        monkeypatch.setattr(sums, "SumClosedForm", None)
        for spec in self.SPECS:
            d = spec.order
            for n in (0, _HALF_JUMP_FROM - d - 1, _HALF_JUMP_FROM - d, 2000):
                divisors.clear()
                assert partial_sum_closed(spec, n) == sum(seq_range(spec, 0, n)), (spec, n)
                assert len(divisors) == 1 and specs == [], (spec, n)

    @staticmethod
    def request_specs(d):
        """(kind, spec, far) at order d: int, Fraction, mixed int/Fraction and constant-q(1) Poly data, q(1) != 0.

        far is False for the spec with a variable, whose far terms are too large to compute.
        """
        rng = random.Random(60 + d)
        c = [rng.randint(-3, 3) for _ in range(d - 1)] + [rng.choice((-2, -1, 1, 2, 3))]
        while sum(c) in (1, 2):  # q(1) != 0 for c and for c / 2
            c[-1] += 1 if c[-1] != -1 else 2
        head = [rng.randint(-5, 5) for _ in range(d)]
        out = [
            ("int", RecurrenceSpec(CoeffVector(tuple(c)), tuple(head)), True),
            ("fraction", RecurrenceSpec(CoeffVector(tuple(Fraction(x, 2) for x in c)), tuple(Fraction(a, 3) for a in head)), True),
            ("mixed", RecurrenceSpec(CoeffVector(tuple(c)), (Fraction(head[0], 3), *head[1:])), True),
            ("const-poly", RecurrenceSpec(CoeffVector(tuple(Poly.const(x, 2) for x in c)), tuple(head)), True),
        ]
        if 1 < d <= 4:  # q(1) = 1 - x - (d - 2) - (4 - d - x) = -1
            x = Poly.variable(0, 1)
            out.append(("poly", RecurrenceSpec(CoeffVector((x, *(1,) * (d - 2), 4 - d - x)), (0,) * (d - 1) + (1,)), False))
        return out

    @pytest.mark.parametrize("d", range(1, 9))
    def test_one_engine_request(self, d, monkeypatch):
        # every route asks the engine once: the walked sum and the window for a seq_range, the half jump for
        # a'_(n+1) alone, its head coming from the initial terms
        requests = []
        for name in ("seq_range", "_stride_terms"):
            real = getattr(sums, name)
            monkeypatch.setattr(sums, name, lambda *a, real=real, name=name: requests.append(name) or real(*a))
        walk_edge, half_edge = _jump_from(d) - d, _HALF_JUMP_FROM - d
        for kind, spec, far in self.request_specs(d):
            ns = (walk_edge - 1, walk_edge, half_edge - 1, half_edge) + ((1000, 10**5) if far else ())
            for n in ns:
                requests.clear()
                partial_sum_closed(spec, n)
                assert len(requests) == 1, (kind, spec, n, requests)
                if n >= half_edge:
                    assert requests == ["_stride_terms"], (kind, spec, n)

    def test_running_head_property(self, monkeypatch):
        # the half jump's head a'_0..a'_(d-1), built by a'_(k+1) = a'_k + q(1) a_k, is sum_j w_j a_(k+j) in value
        # and type; q(1) is let through unchecked (zero or a polynomial) and the engine is stopped at the head
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        class Head(Exception):
            pass

        def stop(c, head, m, r, count):
            raise Head(head)

        monkeypatch.setattr(sums, "_check_divisor", lambda c: 1 - sum(c))
        monkeypatch.setattr(sums, "_stride_terms", stop)
        ints = st.integers(-3, 3)
        fractions = st.builds(Fraction, ints, st.sampled_from([2, 3, 6]))
        scalars = {"int": ints, "fraction": fractions, "mixed": st.one_of(ints, fractions)}

        @st.composite
        def specs(draw):
            d = draw(st.integers(1, 6))
            kind = draw(st.sampled_from(sorted(scalars) + ["poly"]))
            if kind == "poly":
                c = Poly.variables(d)
                head = [draw(st.one_of(ints, st.sampled_from(c))) for _ in range(d)]
            else:
                c = [draw(scalars[kind]) for _ in range(d - 1)] + [draw(scalars[kind].filter(bool))]
                head = [draw(scalars[kind]) for _ in range(d)]
            return RecurrenceSpec(CoeffVector(tuple(c)), tuple(head))

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(specs())
        def check(spec):
            d = spec.order
            with pytest.raises(Head) as stopped:
                partial_sum_closed(spec, _HALF_JUMP_FROM)
            head = stopped.value.args[0]
            w = sums._weights(spec.coeffs.c)
            a = seq_range(spec, 0, 2 * d - 2)
            expected = [sum(map(mul, w, a[k : k + d])) for k in range(d)]
            assert len(head) == d
            for k, (got, want) in enumerate(zip(head, expected)):
                assert got == want and type(got) is type(want), (spec, k, got, want)

        check()

    def test_against_direct_sums_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ints = st.integers(-3, 3)
        scalars = {"int": ints, "fraction": st.one_of(ints, st.builds(Fraction, ints, st.sampled_from([2, 3, 6])))}

        @st.composite
        def cases(draw):
            d = draw(st.integers(1, 6))
            scalar = scalars[draw(st.sampled_from(sorted(scalars)))]
            c = [draw(scalar) for _ in range(d - 1)] + [draw(scalar.filter(bool))]
            hypothesis.assume(sum(c) != 1)
            head = [draw(scalar) for _ in range(d)]
            n = draw(st.integers(250, 1500)) - d
            return RecurrenceSpec(CoeffVector(tuple(c)), tuple(head)), n, draw(st.integers(1, 3)), draw(st.integers(0, 5))

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            spec, n, m, r = case
            closed = partial_sum_closed(spec, n)
            assert closed == sum(seq_range(spec, 0, n))
            assert closed == evaluate_form(partial_sum_form(spec), seq_range(spec, n + 1, n + spec.order))
            if sum(subseq_recurrence(spec, m, r).coeffs.c) == 1:
                with pytest.raises(DegenerateDivisor):
                    progression_sum(spec, m, r, n)
            else:
                assert progression_sum(spec, m, r, n) == sum(seq_range(spec, 0, m * n + r)[r::m])

        check()


class TestWalkedIntSums:
    """An int sum whose look-ahead the engine would walk (n + d < _jump_from(d)) adds up a_0..a_n."""

    class Divided(Exception):
        pass

    @classmethod
    def refuse(cls, *args):
        raise cls.Divided

    @pytest.fixture
    def no_division(self, monkeypatch):
        monkeypatch.setattr(sums, "exact_div", self.refuse)

    def test_against_form_and_reference_routes_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ints = st.integers(-3, 3)

        @st.composite
        def cases(draw):
            d = draw(st.integers(1, 8))
            c = [draw(ints) for _ in range(d - 1)] + [draw(ints.filter(bool))]
            hypothesis.assume(sum(c) != 1)
            head = [draw(st.integers(-5, 5)) for _ in range(d)]
            edge = _jump_from(d) - d  # the least n whose look-ahead the engine jumps to
            n = draw(st.one_of(st.integers(0, d + 2), st.integers(edge - 6, edge + 5)))
            return tuple(c), tuple(head), n

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            c, head, n = case
            spec = RecurrenceSpec(CoeffVector(c), head)
            closed = partial_sum_closed(spec, n)
            by_form = evaluate_form(partial_sum_form(spec), seq_range(spec, n + 1, n + len(c)))
            by_walk = sum(walk_reference(c, head, 1, 0, n + 1))
            assert closed == by_form == by_walk
            assert type(closed) is type(by_form) is type(by_walk) is int
            if n < 40:
                assert closed == sum(matrix_reference(c, head, 1, 0, n + 1))

        check()

    @pytest.mark.parametrize("d", range(1, 9))
    def test_route_edge(self, d, no_division):
        rng = random.Random(57)
        spec = random_spec(rng, max_d=8)
        while spec.order != d or sum(spec.coeffs.c) == 1:
            spec = random_spec(rng, max_d=8)
        n = _jump_from(d) - d - 1  # a_(n+d) is walked: no division
        total = partial_sum_closed(spec, n)
        assert total == sum(walk_reference(spec.coeffs.c, spec.initial, 1, 0, n + 1))
        assert type(total) is int
        with pytest.raises(self.Divided):  # a_(n+d+1) is jumped to: the form divides
            partial_sum_closed(spec, n + 1)

    def test_rational_sums_divide(self, monkeypatch):
        specs = (
            RecurrenceSpec(CoeffVector((Fraction(1, 3), 1)), (1, 1)),
            RecurrenceSpec(CoeffVector((1, 1)), (Fraction(2, 1), 1)),  # a whole Fraction is still a Fraction
        )
        totals = [partial_sum_closed(spec, 1) for spec in specs]
        assert totals == [2, 3] and {type(t) for t in totals} == {Fraction}
        monkeypatch.setattr(sums, "exact_div", self.refuse)
        for spec in specs:
            with pytest.raises(self.Divided):
                partial_sum_closed(spec, 1)

    @pytest.mark.parametrize(
        "c, init, m, r", [((1, 1), (0, 1), 500, 7), ((1, 1, 1), (0, 0, 1), 733, 0), ((2, -1, 1, 1), (1, 0, -2, 3), 1024, 511)]
    )
    def test_wide_slice_sums(self, c, init, m, r, no_division):
        # the slice's own int recurrence, summed without a division, against the base spec's stride
        total = progression_sum(RecurrenceSpec(CoeffVector(c), init), m, r, 8)
        assert total == sum(_stride_terms(c, init, m, r, 9))

    def test_divisor_checked_before_any_term(self, monkeypatch, capsys):
        def no_terms(*args):
            raise AssertionError("a term was computed for a sum that cannot be divided out")

        monkeypatch.setattr(sums, "seq_range", no_terms)
        spec = RecurrenceSpec(CoeffVector((2, -1)), (0, 1))
        for n in range(6):
            with pytest.raises(DegenerateDivisor):
                partial_sum_closed(spec, n)
        assert cli.main(["sum", "--coeffs", "2,-1", "--init", "0,1", "--n", "3"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.strip()


class TestProgressionSum:
    def test_matches_direct(self):
        rng = random.Random(56)
        checked = 0
        while checked < 25:
            spec = random_spec(rng, max_d=4)
            m = rng.randint(1, 5)
            r = rng.randint(0, 3)
            d = spec.order
            base = seq_range(spec, 0, (20 + d) * m + r)
            window = [base[m * i + r] for i in range(21 + d)]
            try:
                form = partial_sum_form(subseq_recurrence(spec, m, r))
                for n in range(0, 21):
                    assert progression_sum(spec, m, r, n) == sum(window[: n + 1])
                    assert evaluate_form(form, window[n + 1 : n + 1 + d]) == sum(window[: n + 1])
            except DegenerateDivisor:
                continue
            checked += 1

    def test_degenerate_subsequence_divisor(self):
        # the full-sequence divisor is fine but the step-6 slice divisor vanishes
        spec = RecurrenceSpec(CoeffVector((1, -1)), (1, 2))
        assert partial_sum_form(spec).divisor == 1
        with pytest.raises(DegenerateDivisor):
            progression_sum(spec, 6, 0, 5)

    def test_base_divisor_checked_before_the_slice(self, monkeypatch, capsys):
        # Q_m(1) = Q(1) Q(w) ... Q(w^(m-1)): a zero or polynomial q(1) raises before the slice recurrence is built
        built = []

        def spy(spec, m, r):
            built.append((spec, m, r))
            return subseq_recurrence(spec, m, r)

        monkeypatch.setattr(sums, "subseq_recurrence", spy)
        for c in ((2, -1), (1, 1, -1), (Fraction(1, 2), Fraction(1, 2))):
            for m in (1, 2, 3, 6):
                with pytest.raises(DegenerateDivisor):
                    progression_sum(RecurrenceSpec(CoeffVector(c), (0,) * (len(c) - 1) + (1,)), m, 0, 5)
        with pytest.raises(DomainError):
            progression_sum(RecurrenceSpec(CoeffVector(Poly.variables(3)), (0, 0, 1)), 64, 0, 5)
        # a polynomial q(1) = -2x is a DomainError up front, though this slice's divisor at m = 2 is zero
        x = Poly.variable(0, 1)
        with pytest.raises(DomainError):
            progression_sum(RecurrenceSpec(CoeffVector((x, x + 1)), (0, 1)), 2, 0, 5)
        assert built == []
        # a base divisor of 1 whose step-6 slice divisor vanishes still raises through the slice route
        with pytest.raises(DegenerateDivisor):
            progression_sum(RecurrenceSpec(CoeffVector((1, -1)), (1, 2)), 6, 0, 5)
        assert len(built) == 1
        for argv in (["--coeffs", "2,-1", "--init", "0,1", "--m", "3"], ["--coeffs", "1,-1", "--init", "1,2", "--m", "6"]):
            assert cli.main(["subsum", *argv, "--r", "0", "--n", "5"]) == 4
            out, err = capsys.readouterr()
            assert out == "" and err.strip()

    def test_tribonacci_step_three(self):
        base = seq_range(TRIB, 0, 100)
        for n in range(0, 31):
            assert progression_sum(TRIB, 3, 0, n) == sum(base[3 * i] for i in range(n + 1))
