from enum import IntEnum
import json
import random
from fractions import Fraction
from operator import mul

import pytest

from linrec import DivisionNotExact, DomainError, Poly
from linrec.kernel import (
    _poly_dot,
    as_integer,
    dot,
    exact_div,
    lower_like,
    ring_const,
    scalar_from_str,
    scalar_to_str,
    value_from_json,
    value_to_json,
)


class TestExactDiv:
    def test_int(self):
        assert exact_div(12, 3) == 4
        assert isinstance(exact_div(12, 3), int)

    def test_int_inexact(self):
        with pytest.raises(DivisionNotExact):
            exact_div(7, 2)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(1, 0)

    def test_fraction(self):
        assert exact_div(Fraction(3, 2), 3) == Fraction(1, 2)

    def test_poly(self):
        x = Poly.variable(0, 1)
        assert exact_div(2 * x, 2) == x
        # non-integer poly coefficients are fine, exactness is rational
        half_x = exact_div(x, 2)
        assert 2 * half_x == x

    def test_negative(self):
        assert exact_div(-9, 3) == -3
        assert exact_div(9, -3) == -3

    def test_constant_poly_divisor(self):
        x = Poly.variable(0, 1)
        assert exact_div(2 * x, Poly.const(2, 1)) == x
        assert exact_div(12, Poly.const(3, 1)) == 4
        assert isinstance(exact_div(12, Poly.const(3, 1)), int)
        assert exact_div(1, Poly.const(Fraction(1, 2), 1)) == 2
        with pytest.raises(DivisionNotExact):
            exact_div(7, Poly.const(2, 1))
        with pytest.raises(ZeroDivisionError):
            exact_div(x, Poly.const(0, 1))

    def test_nonconstant_poly_divisor(self):
        x, y = Poly.variables(2)
        with pytest.raises(DomainError):
            exact_div(x * y, x)
        with pytest.raises(DomainError):
            exact_div(6, 1 - x - y)

    def test_inexact_dividend(self):
        with pytest.raises(DomainError):
            exact_div(1.5, 2)


class TestLowering:
    def test_as_integer(self):
        assert as_integer(Fraction(4, 2)) == 2
        assert isinstance(as_integer(Fraction(4, 2)), int)
        assert as_integer(5) == 5
        with pytest.raises(DivisionNotExact):
            as_integer(Fraction(1, 2))
        with pytest.raises(DivisionNotExact):
            as_integer(Poly.const(2, 1))
        # a bool is not an exact value here, as everywhere else in the package
        for flag in (True, False):
            with pytest.raises(DomainError):
                as_integer(flag)

    def test_ring_const_and_exemplar(self):
        # the dominant domain among the values wins: Poly beats Fraction beats int
        x = Poly.variable(0, 2)
        assert ring_const(3, [x]) == Poly.const(3, 2)
        assert ring_const(3, [Fraction(1, 2)]) == Fraction(3)
        assert ring_const(3, [7]) == 3
        assert isinstance(ring_const(3, [1, Fraction(1, 2), x]), Poly)
        assert ring_const(3, [1, Fraction(1, 2), x]).nvars == 2
        assert type(ring_const(3, [1, Fraction(1, 2)])) is Fraction
        assert type(ring_const(3, [1, 2])) is int

    def test_lower_like(self):
        assert lower_like(Fraction(6, 3), [1, 2]) == 2
        assert isinstance(lower_like(Fraction(6, 3), [1, 2]), int)
        assert lower_like(Fraction(1, 2), [Fraction(1, 3)]) == Fraction(1, 2)

    def test_lower_like_poly(self):
        x, y = Poly.variables(2)
        half = Fraction(1, 2) * x
        assert lower_like(x * y + 1, (x, y, 3)) == x * y + 1
        # rational Poly coefficients pass only when some exemplar has them
        assert lower_like(half, (half, y)) == half
        assert lower_like(half, (x, Fraction(1, 3))) == half
        with pytest.raises(DivisionNotExact):
            lower_like(half, (x, y))
        with pytest.raises(DivisionNotExact):
            lower_like(half, (x, 2))


def random_poly(rng: random.Random, nvars: int = 2, nterms: int = 3) -> Poly:
    terms = {}
    for _ in range(nterms):
        expo = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[expo] = terms.get(expo, 0) + rng.randint(-4, 4)
    p = Poly.const(0, nvars)
    for expo, coeff in terms.items():
        mono = Poly.const(coeff, nvars)
        for i, e in enumerate(expo):
            mono = mono * Poly.variable(i, nvars) ** e
        p = p + mono
    return p


class TestPolyRingLaws:
    def test_laws(self):
        rng = random.Random(101)
        for _ in range(50):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == Poly.const(0, 2)
            assert a * Poly.const(1, 2) == a

    def test_scalar_mixing(self):
        x = Poly.variable(0, 1)
        assert 2 * x == x * 2
        assert 1 + x == x + 1
        assert Fraction(1, 2) * (2 * x) == x
        assert x - x == 0
        assert (x + 1) - 1 == x

    def test_pow(self):
        x, y = Poly.variables(2)
        assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
        assert (x + y) ** 0 == 1
        assert x**7 * x**3 == x**10


class TestPolySubstitution:
    def test_homomorphism(self):
        rng = random.Random(202)
        for _ in range(30):
            a, b = random_poly(rng), random_poly(rng)
            point = (rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            assert (a + b)(point) == a(point) + b(point)
            assert (a * b)(point) == a(point) * b(point)

    def test_integer_result_is_int(self):
        x = Poly.variable(0, 1)
        v = (x**2 + 1)((3,))
        assert v == 10 and isinstance(v, int)

    def test_fraction_result(self):
        x = Poly.variable(0, 1)
        assert (x**2)((Fraction(1, 2),)) == Fraction(1, 4)


class TestPolyText:
    def test_str_graded_lex(self):
        c1, c2 = Poly.variables(2)
        p = c1**2 + 2 * c2 - 1
        assert str(p) == "c1^2 + 2*c2 - 1"
        assert str(Poly.const(0, 2)) == "0"
        assert str(-c1) == "-c1"

    def test_ordering_is_total_degree_first(self):
        c1, c2 = Poly.variables(2)
        # c2^2 has degree 2, beats c1 at degree 1 despite lex
        assert str(c2**2 + c1) == "c2^2 + c1"


class TestJson:
    def test_scalar_round_trip(self):
        for v in [0, -7, 10**30, Fraction(1, 2), Fraction(-22, 7)]:
            assert scalar_from_str(scalar_to_str(v)) == v

    def test_scalar_str_forms(self):
        assert scalar_to_str(5) == "5"
        assert scalar_to_str(Fraction(1, 2)) == "1/2"
        assert scalar_to_str(Fraction(4, 2)) == "2"

    def test_value_round_trip(self):
        rng = random.Random(303)
        for _ in range(20):
            p = random_poly(rng)
            blob = json.dumps(value_to_json(p))
            assert value_from_json(json.loads(blob)) == p
        assert value_from_json(value_to_json(12)) == 12
        assert value_from_json(value_to_json(Fraction(3, 4))) == Fraction(3, 4)

    def test_poly_json_numbers_are_strings(self):
        x = Poly.variable(0, 1)
        blob = value_to_json(10**50 * x)
        assert blob["terms"][0]["coefficient"] == str(10**50)


class TestPolyMisc:
    def test_immutable(self):
        x = Poly.variable(0, 1)
        with pytest.raises(AttributeError):
            x.terms = {}

    def test_eq_scalars(self):
        assert Poly.const(3, 2) == 3
        assert Poly.const(Fraction(1, 2), 1) == Fraction(1, 2)
        assert Poly.variable(0, 1) != 3
        # a value outside the ring is never equal: Poly.__eq__ hands it back to Python
        assert (Poly.variable(0, 1) == "a") is False and Poly.variable(0, 1) != "a"

    def test_hash_consistent(self):
        x, y = Poly.variables(2)
        assert hash(x * y + 1) == hash(1 + y * x)
        # a Poly equal to a scalar hashes like it
        for value in (0, 1, -3, Fraction(1, 2)):
            assert Poly.const(value, 2) == value
            assert hash(Poly.const(value, 2)) == hash(value)
        assert len({Poly.const(1, 2), 1}) == 1
        assert len({Poly.const(Fraction(1, 2), 3), Fraction(1, 2)}) == 1

    def test_has_integer_coefficients(self):
        x = Poly.variable(0, 1)
        assert (2 * x).has_integer_coefficients()
        assert (Fraction(4, 2) * x).has_integer_coefficients()
        assert not (Fraction(1, 2) * x).has_integer_coefficients()

    def test_constant_value(self):
        assert Poly.const(Fraction(6, 2), 3).constant_value() == 3
        x = Poly.variable(0, 1)
        assert (x + 5).constant_value() == 5
        assert x.constant_value() == 0

    def test_total_degree(self):
        x, y = Poly.variables(2)
        assert (x**2 * y + y).total_degree() == 3
        # zero polynomial has degree -1 by convention
        assert Poly.const(0, 2).total_degree() == -1


class TestPolyInput:
    def test_inexact_coefficients_rejected(self):
        for bad in (0.1, "1/3", True, None):
            with pytest.raises(DomainError):
                Poly(1, {(1,): bad})
            with pytest.raises(DomainError):
                Poly.const(bad, 2)

    def test_bool_exponent_rejected(self):
        with pytest.raises(DomainError):
            Poly(1, {(True,): 1})
        with pytest.raises(DomainError):
            Poly(2, [((0, False), 1)])

    def test_malformed_terms_rejected(self):
        for bad in (5, [(5, 1)], [5], [((1,), 2, 3)], {5: 1}):
            with pytest.raises(DomainError):
                Poly(1, bad)
        with pytest.raises(DomainError):
            Poly.variable(2, 2)

    def test_mixed_variable_sets_rejected(self):
        x, (y, _, _) = Poly.variable(0, 2), Poly.variables(3)
        for mix in (lambda: x * y, lambda: x + y, lambda: x - y, lambda: x((1,))):
            with pytest.raises(DomainError):
                mix()

    def test_foreign_operands_rejected(self):
        # one rule on both sides of +, - and *: a value outside the ring raises DomainError,
        # never a bare TypeError, and ints and Fractions act as constants; on either side of ** too
        x, y = Poly.variables(2)
        p = 2 * x * y - Fraction(1, 3) * x + 5
        for bad in (0.5, "2", None, [1], True):
            for op in (
                lambda: p + bad, lambda: bad + p, lambda: p - bad,
                lambda: bad - p, lambda: p * bad, lambda: bad * p,
                lambda: p ** bad, lambda: bad ** p,
            ):
                with pytest.raises(DomainError):
                    op()
        model = _reference(p.terms.items())
        negated = [(e, -c) for e, c in model.items()]
        for k in (0, 1, -7, Fraction(1, 3), Fraction(-5, 2), Fraction(6, 3)):
            const = [((0, 0), k)]
            for got, want in (
                (p + k, _reference([*model.items(), *const])),
                (k + p, _reference([*model.items(), *const])),
                (p - k, _reference([*model.items(), ((0, 0), -k)])),
                (k - p, _reference([*negated, *const])),
                (p * k, _ref_mul(model, _reference(const))),
                (k * p, _ref_mul(model, _reference(const))),
            ):
                assert isinstance(got, Poly) and got.terms == want and _is_canonical(got), (k, got)

    def test_no_order_or_absolute_value(self):
        # a Poly is not ordered, not even a constant one: abs and every comparison raise DomainError
        # on either side, never a bare TypeError; nor is it an exponent, nor has it a modular power
        x, y = Poly.variables(2)
        for p in (x * y + 1, Poly.const(3, 2), Poly.const(0, 2)):
            for op in (
                lambda: abs(p), lambda: p < 1, lambda: 1 < p, lambda: p <= 1, lambda: 1 <= p,
                lambda: p > 1, lambda: p >= 1, lambda: p < x, lambda: Fraction(1, 2) >= p,
                lambda: 2 ** p, lambda: Fraction(1, 2) ** p, lambda: x ** p, lambda: pow(p, 2, 5),
            ):
                with pytest.raises(DomainError):
                    op()

    def test_division_by_constants_only(self):
        # / is exact_div: by a nonzero int or Fraction it is exact, and anything else is a DomainError
        x, y = Poly.variables(2)
        p = 2 * x * y - Fraction(1, 3) * x + 5
        assert x / 2 == x * Fraction(1, 2)
        assert x / Fraction(2, 3) == x * Fraction(3, 2) and (x / Fraction(2, 3)).terms == {(1, 0): Fraction(3, 2)}
        assert p / 3 == p * Fraction(1, 3) and _is_canonical(p / 3)
        assert p / Poly.const(-2, 2) == p * Fraction(-1, 2)
        assert 3 / Poly.const(2, 2) == Fraction(3, 2) and isinstance(3 / Poly.const(2, 2), Poly)
        for bad in (lambda: x / y, lambda: 1 / x, lambda: x / 0.5, lambda: 0.5 / x, lambda: x / True, lambda: "2" / x):
            with pytest.raises(DomainError):
                bad()

    def test_inexact_evaluation_point_rejected(self):
        x = Poly.variable(0, 1)
        for bad in (0.5, "2", True):
            with pytest.raises(DomainError):
                x((bad,))
        with pytest.raises(DomainError):
            x(5)

    def test_input_is_canonicalised(self):
        p = Poly(2, [((1, 0), Fraction(4, 2)), ((0, 1), Fraction(1, 2)), ((0, 1), Fraction(1, 2)), ((0, 0), 0)])
        assert p.terms == {(1, 0): 2, (0, 1): 1}
        assert all(type(c) is int for c in p.terms.values())
        assert type(Poly.const(Fraction(6, 3), 1).constant_value()) is int
        # an int subclass such as an IntEnum member is stored as a plain int
        two = IntEnum("Small", {"TWO": 2}).TWO
        for p in (Poly(1, {(1,): two}), Poly.const(two, 1), Poly.variable(0, 1) * two):
            assert [type(c) for c in p.terms.values()] == [int] and p.terms == {(p.total_degree(),): 2}


def _reference(pairs) -> dict:
    """The dict-of-Fraction model of a polynomial: exponents -> nonzero Fraction."""
    out: dict = {}
    for exps, c in pairs:
        out[exps] = out.get(exps, Fraction(0)) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    return _reference(
        (tuple(x + y for x, y in zip(e1, e2)), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items()
    )


def _model(p: Poly) -> dict:
    """p in the dict-of-Fraction model, read through its public terms."""
    return {e: Fraction(c) for e, c in p.terms.items()}


def _is_canonical(p: Poly) -> bool:
    return all(
        (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1)
        for c in p.terms.values()
    )


class TestPolyCanonicalForm:
    """Random sparse Polys against a dict-of-Fraction model; needs hypothesis."""

    @staticmethod
    def _strategies():
        st = pytest.importorskip("hypothesis.strategies")
        scalars = st.one_of(st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=6))

        # small exponents collide and cancel; ones up to 2**29 reach a packed field's high bits,
        # and a cube of them stays below the 2**31 cap
        exponents = st.one_of(st.integers(0, 3), st.integers(0, 2**29))

        @st.composite
        def term_lists(draw, nvars):
            exps = st.tuples(*[exponents] * nvars)
            return draw(st.lists(st.tuples(exps, scalars), max_size=6))

        @st.composite
        def cases(draw):
            nvars = draw(st.integers(1, 5))
            return nvars, draw(term_lists(nvars)), draw(term_lists(nvars))

        return st, scalars, cases()

    def test_ring_operations_match_the_model(self):
        hypothesis = pytest.importorskip("hypothesis")
        st, scalars, cases = self._strategies()

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(cases, scalars, st.integers(0, 3), st.integers(-5, 5).filter(bool))
        def check(case, s, k, n):
            nvars, ta, tb = case
            a, b = Poly(nvars, ta), Poly(nvars, tb)
            ra, rb = _reference(ta), _reference(tb)
            power = _reference([((0,) * nvars, 1)])
            for _ in range(k):
                power = _ref_mul(power, ra)
            results = [
                (a, ra),
                (a + b, _reference(list(ra.items()) + list(rb.items()))),
                (a - b, _reference(list(ra.items()) + [(e, -c) for e, c in rb.items()])),
                (-a, {e: -c for e, c in ra.items()}),
                (a * b, _ref_mul(ra, rb)),
                (a**k, power),
                (s * a, _reference((e, s * c) for e, c in ra.items())),
                (a * s, _reference((e, s * c) for e, c in ra.items())),
                (a + s, _reference(list(ra.items()) + [((0,) * nvars, s)])),
                (s - a, _reference([((0,) * nvars, s)] + [(e, -c) for e, c in ra.items()])),
                (exact_div(a, n), {e: c / n for e, c in ra.items()}),
            ]
            for got, want in results:
                assert isinstance(got, Poly) and got.nvars == nvars
                assert _is_canonical(got)
                assert _model(got) == want

        check()

    def test_scalar_identities_match_the_model(self):
        hypothesis = pytest.importorskip("hypothesis")
        st, scalars, cases = self._strategies()

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(cases, scalars)
        def check(case, s):
            nvars, ta, _ = case
            a, ra = Poly(nvars, ta), _reference(ta)
            zero, one = Poly.const(0, nvars), Poly.const(1, nvars)
            # adding zero or multiplying by one gives a back: a Poly is immutable, so the very same one
            assert a + 0 is a and 0 + a is a and a * 1 is a and 1 * a is a
            for got in (a + 0, 0 + a, a * 1, 1 * a, a * one, one * a, a + zero, zero + a, a - 0, sum([a])):
                assert isinstance(got, Poly) and got.nvars == nvars and _model(got) == ra
            for got in (a * 0, 0 * a, a * zero, zero * a):
                assert isinstance(got, Poly) and got.nvars == nvars and _model(got) == {}
            # equality with a scalar reads only the constant term and the term count
            scalar = _reference([((0,) * nvars, s)])
            assert (a == s) == (ra == scalar) and (s == a) == (ra == scalar)
            if a == s:
                assert hash(a) == hash(s) == hash(Fraction(s))
            # a constant Poly equals and hashes like its value, int or Fraction
            c = Poly.const(s, nvars)
            assert _model(c) == scalar
            assert c == Fraction(s) and Fraction(s) == c and hash(c) == hash(Fraction(s))
            assert zero == 0 and 0 == zero and hash(zero) == hash(0) and _model(zero) == {}
            for got in (zero + 0, 0 + zero, zero * 1, zero - 0):
                assert isinstance(got, Poly) and got.nvars == nvars and got == 0 and _model(got) == {}

        check()

    def test_equal_values_hash_equal(self):
        hypothesis = pytest.importorskip("hypothesis")
        st, scalars, cases = self._strategies()

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(cases, scalars)
        def check(case, s):
            nvars, ta, _ = case
            a = Poly(nvars, ta)
            # the same value built another way: reversed, with Fraction-typed coefficients
            b = Poly(nvars, [(e, Fraction(c)) for e, c in reversed(ta)])
            assert a == b and hash(a) == hash(b)
            # a scalar-valued Poly equals and hashes like its scalar, int or Fraction
            for value in (s, Fraction(s)):
                scalar = a - a + Poly.const(value, nvars)
                assert scalar == value and hash(scalar) == hash(value)
                assert scalar == Poly.const(value, nvars) and hash(scalar) == hash(Poly.const(value, nvars))

        check()


class TestPolyPackedLayout:
    """Each monomial is one packed int key, one 32-bit field per variable: exponents stay below
    2**31, so a field never carries into the next variable's."""

    TOP = 2**31 - 1

    def test_exponent_cap(self):
        top = self.TOP
        p = Poly(3, {(top, 0, 0): 1, (0, top, 0): -1, (0, 0, top): Fraction(1, 2)})
        assert p.terms == {(top, 0, 0): 1, (0, top, 0): -1, (0, 0, top): Fraction(1, 2)}
        assert p.total_degree() == top and str(p) == f"c1^{top} - c2^{top} + 1/2*c3^{top}"
        assert Poly.variable(0, 1) ** top == Poly(1, {(top,): 1})
        for bad in ((2**31, 0, 0), (0, 2**31, 0), (0, 0, 2**31), (1, 2**40, 1)):
            with pytest.raises(DomainError):
                Poly(3, {bad: 1})

    def test_product_past_the_cap_raises(self):
        x, y = Poly.variables(2)
        half = x ** (2**30)
        with pytest.raises(DomainError):
            half * half
        with pytest.raises(DomainError):
            x ** (2**31)
        with pytest.raises(DomainError):
            (half + y) * (half - 1)  # the many-term product checks its keys too
        assert half * x ** (2**30 - 1) == Poly(2, {(self.TOP, 0): 1})

    @pytest.mark.parametrize("nvars", [2, 3])
    def test_no_carry_into_the_neighbouring_variable(self, nvars):
        # a term 4 below the cap in each variable, times every monomial up to degree 6 in each:
        # a product reaching 2**31 in some variable raises, and any other matches the model,
        # so no exponent ever turns up in the variable next to it
        near = self.TOP - 3
        units = [tuple(int(j == i) for j in range(nvars)) for i in range(nvars)]
        a = Poly(nvars, [(tuple(near * u for u in unit), 1 + i) for i, unit in enumerate(units)])
        model = _reference(a.terms.items())
        for k in range(7):
            for i, unit in enumerate(units):
                shift = tuple(k * u for u in unit)
                for other in (Poly(nvars, {shift: 3}), Poly(nvars, {shift: 3, (0,) * nvars: -1, units[0]: 1})):
                    want = _ref_mul(model, _reference(other.terms.items()))
                    if max(max(e) for e in want) > self.TOP:
                        with pytest.raises(DomainError):
                            a * other
                    else:
                        assert _model(a * other) == want and _model(other * a) == want

    def test_terms_is_a_fresh_decoded_copy(self):
        x, y = Poly.variables(2)
        p = 3 * x * y**2 - 1
        terms = p.terms
        assert terms == {(1, 2): 3, (0, 0): -1} and terms is not p.terms
        terms[(5, 5)] = 7
        del terms[(0, 0)]
        terms[(1, 2)] = 0
        assert p.terms == {(1, 2): 3, (0, 0): -1} and p == 3 * x * y**2 - 1
        with pytest.raises(AttributeError):
            p.terms = terms


def test_library_ring_operations_never_revalidate(monkeypatch):
    from linrec import CoeffVector, RecurrenceSpec
    from linrec.oracle import char_poly_of_power
    from linrec.progression import gamma_coefficients
    from linrec.recurrence import seq_range

    v3, v4 = Poly.variables(3), Poly.variables(4)
    spec = RecurrenceSpec(CoeffVector(v3), (1, 2, 3))

    def calls():
        return (
            gamma_coefficients(v4, 3, cross_check=True).gamma,
            char_poly_of_power(v3, 4).c,
            seq_range(spec, 0, 16),
        )

    want = calls()

    def refuse(self, *args, **kwargs):
        raise AssertionError("Poly.__init__ ran inside a library ring operation")

    monkeypatch.setattr(Poly, "__init__", refuse)
    with pytest.raises(AssertionError):
        Poly(1, {(1,): 1})
    assert calls() == want


class TestDot:
    """dot(xs, ys, start) is sum(map(mul, xs, ys), start), fused over Poly data: same value, type and repr."""

    @staticmethod
    def _cases():
        st = pytest.importorskip("hypothesis.strategies")
        scalars = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3))

        @st.composite
        def cases(draw):
            nvars = draw(st.integers(1, 3))
            # exponents 0..2 in few terms, so products collide and cancel; an empty list is the zero Poly
            monomials = st.tuples(*[st.integers(0, 2)] * nvars)
            polys = st.lists(st.tuples(monomials, scalars), max_size=4).map(lambda t: Poly(nvars, t))
            # a few Polys and their negatives, so that whole products cancel and their keys come back later
            pool = draw(st.lists(polys, min_size=1, max_size=3))
            values = st.one_of(scalars, st.sampled_from(pool), st.sampled_from(pool).map(lambda p: -p))
            n = draw(st.integers(0, 6))
            xs, ys = (draw(st.lists(values, min_size=n, max_size=n)) for _ in range(2))
            return xs, ys, draw(st.sampled_from([0, Fraction(0), 3, Poly.const(0, nvars)]))

        return cases()

    def test_equals_the_chained_sum(self):
        hypothesis = pytest.importorskip("hypothesis")
        x, y = Poly.variables(2)

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(self._cases())
        # scalar products, a whole Fraction among them, before the first Poly product
        @hypothesis.example(([2, Fraction(1, 2), x + 1], [3, 2, y - x], 5))
        @hypothesis.example(([Fraction(3, 2), x], [Fraction(2, 3), Fraction(1, 2)], Fraction(0)))
        # products that cancel to zero, a zero Poly factor, and a key that comes back after another one
        @hypothesis.example(([x, x, Poly.const(0, 2), y, x], [y, -y, x, 1, y + 1], Poly.const(0, 2)))
        def check(case):
            xs, ys, start = case
            want = sum(map(mul, xs, ys), start)
            for got in (dot(xs, ys, start), _poly_dot(xs, ys, start)):
                assert type(got) is type(want) and got == want and repr(got) == repr(want)

        check()

    def test_domain_errors(self):
        x1 = Poly.variable(0, 1)
        x2 = Poly.variable(0, 2)
        bad = [
            ([x1], [x2], 0),  # mixed variable sets in one product
            ([x1, x2], [1, 1], 0),  # and across the sum
            ([x2], [1], Poly.const(0, 1)),  # and against the start
            ([x1], [1.5], 0),
            ([1.5], [x1], 0),
            ([x1, 2], [1, 0.5], 0),  # a float scalar product meeting the Poly total
            ([x1], [1], 0.5),  # a float start meeting the first Poly product
            ([x1], [None], 0),
            ([True], [x1], 0),
        ]
        for xs, ys, start in bad:
            with pytest.raises(DomainError):
                sum(map(mul, xs, ys), start)
            with pytest.raises(DomainError):
                dot(xs, ys, start)

    def test_exponent_cap(self):
        x, y = Poly.variables(2)
        half = x ** (2**30)
        # each product passes 2**31 - 1 and the sum cancels it away: the check still sees every product
        for a, b in ((half, half), (half + y, half - 1)):
            with pytest.raises(DomainError):
                sum(map(mul, [a, a], [b, -b]))
            with pytest.raises(DomainError):
                dot([a, a], [b, -b])
        # the fields' OR bound overflows but no product does: the exact check lets it through
        z = Poly.variable(0, 1)
        a, b = z ** (2**30) + z**3, z ** (2**30 - 4) + z
        assert dot([a], [b]) == a * b == Poly(1, {(2**31 - 4,): 1, (2**30 + 1,): 1, (2**30 - 1,): 1, (4,): 1})


def test_fused_sums_make_one_poly_each(monkeypatch):
    # a walk step and a Newton step are each one Poly, not a Poly per product and per partial sum
    from linrec import CoeffVector, RecurrenceSpec, kernel
    from linrec.progression import gamma_coefficients
    from linrec.recurrence import seq_range

    spec = RecurrenceSpec(CoeffVector(Poly.variables(3)), (1, 2, 3))
    want = seq_range(spec, 0, 40)
    made = []
    real_make = Poly._make
    monkeypatch.setattr(Poly, "_make", staticmethod(lambda nvars, terms: made.append(nvars) or real_make(nvars, terms)))
    assert seq_range(spec, 0, 40) == want
    assert len(made) == 38  # a_3..a_40

    per_dot = []
    real_dot = kernel._poly_dot

    def counting(*args):
        before = len(made)
        result = real_dot(*args)
        per_dot.append(len(made) - before)
        return result

    monkeypatch.setattr(kernel, "_poly_dot", counting)
    gamma_coefficients(Poly.variables(3), 5, cross_check=True)
    assert per_dot == [1] * 5  # the trace head's hat_1 and hat_2, then Newton's g_1, g_2 and g_3
