"""The jump-ahead term engine (x^n mod q) against the forward walk and companion-matrix powers."""

import functools
import random
from fractions import Fraction

import pytest

from linrec import CoeffVector, DomainError, Poly, RecurrenceSpec, cli, progression, recurrence
from linrec.lucas import lucas_transform
from linrec.oracle import char_poly_of_power, companion, mat_pow, mat_trace
from linrec.progression import gamma_coefficients, subseq_recurrence
from linrec.recurrence import _JUMP_CUTOFF, _jump_from, _stride_terms, seq_eval, seq_range
from linrec.sums import invert_sequence, partial_sum_closed, progression_sum
from support import by_matrix, matrix_reference, random_spec, squarings, walk_reference, window_products

C1, C2 = Poly.variables(2)
SPECS = {
    "int-d1": RecurrenceSpec(CoeffVector((-3,)), (2,)),
    "int-d3": RecurrenceSpec(CoeffVector((2, -1, 3)), (1, -2, 5)),
    "int-d5": RecurrenceSpec(CoeffVector((1, 0, -2, 0, 1)), (0, 1, 0, 0, 2)),
    "fraction-d1": RecurrenceSpec(CoeffVector((Fraction(-3, 2),)), (Fraction(1, 3),)),
    "fraction-d3": RecurrenceSpec(CoeffVector((Fraction(1, 2), -1, Fraction(2, 3))), (1, Fraction(-1, 2), 3)),
    "poly-d1": RecurrenceSpec(CoeffVector(Poly.variables(1)), (1,)),
    "poly-d2": RecurrenceSpec(CoeffVector((C1, C2)), (0, 1)),
    "poly-d2-mixed": RecurrenceSpec(CoeffVector((C1, C2)), (C1, 1)),
}
TRIB = RecurrenceSpec(CoeffVector((1, 1, 1)), (0, 0, 1))


def indices(name):
    """Indices on both sides of where the engine starts jumping, and far past it for scalars (Poly terms grow fast)."""
    near = [_JUMP_CUTOFF - 1, _JUMP_CUTOFF, _JUMP_CUTOFF + 1]
    if name.startswith("poly"):
        return near
    at = _jump_from(SPECS[name].order)
    return [at - 4, at - 1, at, at + 1] + near + [997, 1000, 1024]


@functools.cache
def walk(name):
    """The named spec's terms from a_0 by the forward walk, past every index tested."""
    return seq_range(SPECS[name], 0, _JUMP_CUTOFF + 8 if name.startswith("poly") else 1030)


# (m, r, count): unit and wide strides, walked (last index < cutoff) and jumped,
# single far terms (the half jump) at strides past 1, and a jumped chain whose
# first offset lies inside the head
STRIDES = [
    (1, 250, 9), (3, 250, 3), (7, 200, 9), (1, 260, 1), (250, 6, 2), (40, 3, 5),
    (2, 256, 1), (7, 257, 1), (300, 261, 1), (130, 1, 3),
]
FAR_STRIDES = [(3, 0, 90), (300, 5, 2), (1, 500, 3), (111, 400, 3)]


class TestJumpWalkMatrix:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_window_and_eval(self, name):
        spec = SPECS[name]
        terms = walk(name)
        for n in indices(name):
            assert seq_range(spec, n, n + 3) == terms[n : n + 4]
            assert seq_eval(spec, n) == terms[n] == by_matrix(spec, n)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_strides(self, name):
        spec = SPECS[name]
        c, head = spec.coeffs.c, spec.initial
        terms = walk(name)
        for m, r, count in STRIDES if name.startswith("poly") else STRIDES + FAR_STRIDES:
            got, want = _stride_terms(c, head, m, r, count), terms[r : r + count * m : m]
            assert got == want and list(map(type, got)) == list(map(type, want)), (m, r, count)

    def test_random_specs_far_out(self):
        rng = random.Random(71)
        for _ in range(15):
            spec = random_spec(rng, max_d=6)
            walk = seq_range(spec, 0, 1200)
            for n in (0, spec.order - 1, 255, 256, 257, 999, 1200):
                assert seq_eval(spec, n) == walk[n]

    def test_short_windows(self):
        assert seq_range(TRIB, 5, 7) == [4, 7, 13]
        assert seq_range(TRIB, 2000, 2010)[-1] == seq_eval(TRIB, 2010)
        for bad in ((-1, 0), (3, 1)):
            with pytest.raises(DomainError):
                seq_range(TRIB, *bad)

    def test_empty_request(self, mulmods):
        # a request for no terms returns at once, with no residue product even where a term would be jumped to
        c, head = TRIB.coeffs.c, TRIB.initial
        for r in (5, 10**4):
            assert _stride_terms(c, head, 1, r, 0) == []
        # order 1 asks for d - 1 = 0 trace terms: gamma is the sign formula's c_1^m alone
        assert gamma_coefficients((-2,), 1001).gamma == ((-2) ** 1001,)
        assert mulmods == []


def half_jump_specs():
    """Int specs of every order 1..8: random taps, and sparse ones (zero inner taps, c_d < 0)."""
    rng = random.Random(73)
    specs = []
    for d in range(1, 9):
        dense = [rng.randint(-2, 2) for _ in range(d - 1)] + [rng.choice((-2, -1, 1, 2))]
        sparse = [1] + [0] * (d - 2) + [-2] if d > 1 else [-2]
        for c in (dense, sparse):
            specs.append(RecurrenceSpec(CoeffVector(tuple(c)), tuple(rng.randint(-5, 5) for _ in range(d))))
    return specs


class TestHalfJump:
    """One far term: x^(n//2) mod q applied to a window of terms near n/2, not squared."""

    # both parities on each side of the first powers of two past the cutoff
    INDICES = [2**k + e for k in range(8, 12) for e in (-1, 0, 1)]

    def test_against_walk_and_matrix(self):
        for spec in half_jump_specs():
            terms = seq_range(spec, 0, self.INDICES[-1])
            for n in self.INDICES:
                assert seq_eval(spec, n) == terms[n] == by_matrix(spec, n), (spec, n)

    def test_product_count(self, mulmods):
        # one _mulmod per squaring of x^(n//2) mod q past its unit-vector start; the window and
        # the last step use none
        for spec in (TRIB, SPECS["int-d1"], SPECS["int-d5"], SPECS["fraction-d3"]):
            for n in (_JUMP_CUTOFF, _JUMP_CUTOFF + 1, 511, 512, 1000, 4097, 10**5):
                mulmods.clear()
                seq_eval(spec, n)
                assert len(mulmods) == squarings(n // 2, spec.order), (spec, n)
        mulmods.clear()
        seq_eval(RecurrenceSpec(CoeffVector((1,) * 8), (0,) * 7 + (1,)), 300)
        assert len(mulmods) == 5  # x^150 from x^(150 >> 5) = x^4: five squarings
        for m in (_JUMP_CUTOFF, 1025):
            mulmods.clear()
            gamma_coefficients((1, 1), m)
            assert len(mulmods) == squarings(m // 2, 2)

    def test_against_walk_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ints = st.integers(-3, 3)
        scalars = {"int": ints, "fraction": st.one_of(ints, st.builds(Fraction, ints, st.sampled_from([2, 3, 6])))}

        @st.composite
        def cases(draw):
            d = draw(st.integers(1, 8))
            scalar = scalars[draw(st.sampled_from(sorted(scalars)))]
            c = [draw(scalar) for _ in range(d - 1)] + [draw(scalar.filter(bool))]
            head = [draw(scalar) for _ in range(d)]
            # on both sides of where a single term starts jumping, and far past it
            n = draw(st.one_of(st.integers(_jump_from(d) - 8, _jump_from(d) + 8), st.integers(_JUMP_CUTOFF, 1500)))
            return RecurrenceSpec(CoeffVector(tuple(c)), tuple(head)), n

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            spec, n = case
            got, want = seq_eval(spec, n), recurrence._extend(spec.coeffs.c, list(spec.initial), n)[n]
            assert got == want and type(got) is type(want)

        check()


class TestRouteRule:
    """recurrence._walks is the one route rule: a single term or window of int or Fraction data jumps
    from _jump_from(d) on; Poly terms and stride chains walk below _JUMP_CUTOFF."""

    # (d, m, r, count, poly) -> walks, on both sides of each edge
    WALKS = [
        # a single term of int data (Fraction data runs as ints) at 8d + 24, at stride 1 and past it
        *[((d, m, _jump_from(d) - 1, 1, False), True) for d in (1, 3, 8) for m in (1, 5)],
        *[((d, m, _jump_from(d), 1, False), False) for d in (1, 3, 8) for m in (1, 5)],
        # a window at 8d + 24, counted at its d-th term however long it is
        *[((d, 1, _jump_from(d) - d, k, False), True) for d in (1, 3, 8) for k in (d, 2 * d + 5)],
        *[((d, 1, _jump_from(d) - d + 1, k, False), False) for d in (1, 3, 8) for k in (d, 2 * d + 5)],
        ((3, 1, _jump_from(3) - 2, 2, False), True), ((3, 1, _jump_from(3) - 1, 2, False), False),
        # Poly data at 256: a single term and a window
        ((2, 1, 255, 1, True), True), ((2, 1, 256, 1, True), False),
        ((2, 1, 254, 5, True), True), ((2, 1, 255, 5, True), False),
        ((8, 1, _jump_from(8), 1, True), True),
        # an int stride chain at 256, its last index counted, wherever its first lies
        ((3, 5, 0, 52, False), True), ((3, 5, 1, 52, False), False),
        ((3, 40, 15, 7, False), True), ((3, 40, 16, 7, False), False),
        ((3, 40, 0, 8, False), False), ((2, 300, 0, 2, False), False), ((2, 300, 0, 1, False), True),
        # a window that starts inside the head walks, even where its d-th term lies past 256
        ((200, 1, 199, 200, True), True), ((200, 1, 200, 200, True), False),
        ((3, 1, 2, 1000, False), True),
    ]

    @pytest.mark.parametrize("args, walks", WALKS)
    def test_walks_table(self, args, walks):
        assert recurrence._walks(*args) is walks

    def test_jumps_exactly_where_walks_says_property(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        (x,) = Poly.variables(1)
        ints = st.integers(-3, 3)
        scalars = {"int": ints, "fraction": st.one_of(ints, st.builds(Fraction, ints, st.sampled_from([2, 3, 6])))}
        jumps = []
        real = recurrence._xpow

        def counted(c, n):
            jumps.append(n)
            return real(c, n)

        monkeypatch.setattr(recurrence, "_xpow", counted)

        @st.composite
        def cases(draw):
            kind = draw(st.sampled_from(["int", "fraction", "poly"]))
            d = draw(st.integers(1, 3 if kind == "poly" else 8))
            scalar = scalars["int" if kind == "poly" else kind]
            values = [draw(scalar) for _ in range(2 * d - 1)] + [draw(scalar.filter(bool))]
            if kind == "poly":  # one value a Poly, in the head or the coefficients; cheap, so far jumps stay fast
                i = draw(st.integers(0, 2 * d - 1))
                values[i] = x if d == 1 and draw(st.booleans()) else Poly.const(values[i], 1)
            head, c = values[:d], values[d:]
            m = draw(st.sampled_from([1, 2, 5, 40]))
            at = _jump_from(d)
            r = draw(st.one_of(st.integers(0, d + 1), st.integers(at - d - 2, at + 2), st.integers(_JUMP_CUTOFF - d - 2, _JUMP_CUTOFF + 2)))
            # short runs across the window edges, and chains just short of 256 and just reaching it
            edge = max(-(-(_JUMP_CUTOFF - r) // m), 0) + 1
            count = draw(st.one_of(st.integers(1, 2 * d + 1), st.integers(max(edge - 1, 1), edge)))
            return tuple(c), tuple(head), m, r, count

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            c, head, m, r, count = case
            jumps.clear()
            got = recurrence._stride_heads(c, (head,), m, r, count)[0]
            assert bool(jumps) is not recurrence._walks(len(c), m, r, count, Poly in map(type, c + head))
            assert got == walk_reference(c, head, m, r, count)

        check()

    def test_product_count(self, mulmods):
        for spec in half_jump_specs() + [SPECS["fraction-d1"], SPECS["fraction-d3"]]:
            d, at = spec.order, _jump_from(spec.order)
            walked = seq_range(spec, 0, 100)
            for n, want in ((at - 1, 0), (at, squarings(at // 2, d)), (100, squarings(50, d))):
                mulmods.clear()
                assert seq_eval(spec, n) == walked[n]
                assert len(mulmods) == want, (spec, n)
            # the window's d-th term one below and at the limit: x^r mod q, a half jump at d = 1
            for r, want in ((at - d, 0), (at - d + 1, squarings(at // 2 if d == 1 else at - d + 1, d))):
                mulmods.clear()
                assert seq_range(spec, r, r + d - 1) == walked[r : r + d]
                assert len(mulmods) == want, (spec, r)
        mulmods.clear()
        for name in ("poly-d1", "poly-d2", "poly-d2-mixed"):
            seq_eval(SPECS[name], 200)
        for spec in (TRIB, SPECS["fraction-d3"]):
            _stride_terms(spec.coeffs.c, spec.initial, 5, 200, 12)  # a_200, ..., a_255
            gamma_coefficients(spec.coeffs.c, 85, cross_check=True)  # hat_85, hat_170, hat_255
        assert mulmods == []


class TestFarSlices:
    def test_subseq_initial_terms_far_offset(self):
        rng = random.Random(72)
        for _ in range(10):
            spec = random_spec(rng, max_d=5)
            m, r = rng.randint(1, 6), rng.randint(400, 700)
            walk = seq_range(spec, 0, r + m * spec.order)
            sub = subseq_recurrence(spec, m, r)
            assert sub.initial == tuple(walk[r + m * i] for i in range(spec.order))

    @pytest.mark.parametrize("cross_check", [False, True])
    def test_gamma_hats_across_cutoff(self, monkeypatch, cross_check):
        seen = []
        real = progression._gamma_from_hats

        def spy(cv, m, hats):
            seen.append(list(hats))
            return real(cv, m, hats)

        monkeypatch.setattr(progression, "_gamma_from_hats", spy)
        # at d = 2 without the cross-check gamma asks for hat_m alone: the single-term route
        for c in ((1, 1), (-3, 2), (Fraction(1, 2), 3), (1, 1, 1), (2, -1, 3), (1, 0, 1, -1)):
            depth = len(c) if cross_check else len(c) - 1
            for m in range(_JUMP_CUTOFF // depth - 1, _JUMP_CUTOFF // depth + 2):
                seen.clear()
                gv = gamma_coefficients(c, m, cross_check=cross_check)
                hats = lucas_transform(c, depth * m).terms
                assert seen == [[hats[i * m] for i in range(1, depth + 1)]]
                assert gv.coeffs == char_poly_of_power(c, m)


def unshared_slice(spec, m, r):
    """The slice recurrence with gamma's trace terms and the initial terms taken by two separate routes."""
    c = spec.coeffs.c
    return RecurrenceSpec(gamma_coefficients(c, m).coeffs, tuple(_stride_terms(c, spec.initial, m, r, spec.order)))


def value_types(spec):
    return [type(v) for v in spec.coeffs.c + spec.initial]


class TestSharedChain:
    """subseq_recurrence applies one chain x^m, ..., x^((d-1)m) mod q to the trace head and to a_r..a_(r+d-1)."""

    SPECS = [
        SPECS["int-d1"], SPECS["fraction-d1"],
        RecurrenceSpec(CoeffVector((1, 1)), (0, 1)),
        RecurrenceSpec(CoeffVector((Fraction(1, 2), 3)), (1, Fraction(2, 3))),
        TRIB, SPECS["int-d3"], SPECS["fraction-d3"], SPECS["int-d5"],
        RecurrenceSpec(CoeffVector((1,) * 6), (0,) * 5 + (1,)),
    ]

    def test_product_count(self, mulmods):
        # the window a_r..a_(r+d-1) walked or jumped as a window alone is; the chain jumped: x^m,
        # then d - 2 steps by it (a half jump at d = 2)
        for spec in self.SPECS:
            d = spec.order
            for m in {-(-_JUMP_CUTOFF // max(d - 1, 1)), 1000, 6002}:
                for r in (0, 39, _jump_from(d) - d, _jump_from(d) - d + 1, _JUMP_CUTOFF - d):
                    mulmods.clear()
                    subseq_recurrence(spec, m, r)
                    chain = 0 if d == 1 else squarings(m // 2, 2) if d == 2 else squarings(m, d) + d - 2
                    assert len(mulmods) == window_products(r, d, d) + chain, (spec, m, r)

    def test_far_window_product_count(self, mulmods):
        # the far window is x^300 applied to the head walked forward (8 calls; stepping x^300
        # by x would add d), then the chain: a half jump (x^150, 7 calls) at d = 2, x^300 and
        # one step at d = 3
        for c, head in (((1, 1), (0, 1)), ((1, 1, 1), (0, 0, 1))):
            mulmods.clear()
            subseq_recurrence(RecurrenceSpec(CoeffVector(c), head), 300, 300)
            assert len(mulmods) == {2: 8 + 7, 3: 8 + 8 + 1}[len(c)]

    def test_against_unshared_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ints = st.integers(-3, 3)
        scalars = {"int": ints, "fraction": st.one_of(ints, st.builds(Fraction, ints, st.sampled_from([2, 3, 6])))}

        @st.composite
        def cases(draw):
            d = draw(st.integers(1, 6))
            # the coefficients' kind and the head's kind are drawn apart, so mixed specs come up
            scalar = scalars[draw(st.sampled_from(sorted(scalars)))]
            head_scalar = scalars[draw(st.sampled_from(sorted(scalars)))]
            c = [draw(scalar) for _ in range(d - 1)] + [draw(scalar.filter(bool))]
            head = [draw(head_scalar) for _ in range(d)]
            m = draw(st.one_of(st.integers(1, 3), st.integers(60, 300)))
            r = draw(st.one_of(st.integers(0, 6), st.integers(_JUMP_CUTOFF - 8, _JUMP_CUTOFF + 8)))
            return RecurrenceSpec(CoeffVector(tuple(c)), tuple(head)), m, r

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            sub, want = subseq_recurrence(*case), unshared_slice(*case)
            assert sub == want and value_types(sub) == value_types(want)

        check()
        for r in (0, _JUMP_CUTOFF + 1):
            sub, want = subseq_recurrence(SPECS["poly-d2"], 2, r), unshared_slice(SPECS["poly-d2"], 2, r)
            assert sub == want and value_types(sub) == value_types(want)


class TestOneWindowRoute:
    """seq_range takes one route: x^n mod q gives a window's first d terms, a walk the rest."""

    def test_against_walk_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        (x,) = Poly.variables(1)
        ints = st.integers(-3, 3)
        scalars = {
            "int": ints,
            "fraction": st.one_of(ints, st.builds(Fraction, ints, st.sampled_from([2, 3, 6]))),
            "poly": st.one_of(ints, st.builds(lambda a, b: a + b * x, ints, ints)),
        }

        @st.composite
        def cases(draw):
            d = draw(st.integers(1, 5))
            # the coefficients' kind and the head's kind are drawn apart, so Poly or Fraction
            # coefficients over an int head, the usual symbolic spec, come up
            scalar = scalars[draw(st.sampled_from(sorted(scalars)))]
            head_scalar = scalars[draw(st.sampled_from(sorted(scalars)))]
            c = [draw(scalar) for _ in range(d - 1)] + [draw(scalar.filter(bool))]
            head = [draw(head_scalar) for _ in range(d)]
            # inside the head, on both sides of where an int or Fraction window starts jumping, and
            # on both sides of where a Poly one does
            at = _jump_from(d)
            n0 = draw(st.one_of(st.integers(0, 6), st.integers(at - 8, at + 8), st.integers(_JUMP_CUTOFF - 8, _JUMP_CUTOFF + 8)))
            return RecurrenceSpec(CoeffVector(tuple(c)), tuple(head)), n0, draw(st.sampled_from([1, d, d + 1, 40]))

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(cases())
        # zero Poly taps under an int head, which few draws reach
        @hypothesis.example((RecurrenceSpec(CoeffVector((0 * x, 1)), (0, 1)), _JUMP_CUTOFF, 3))
        def check(case):
            spec, n0, k = case
            want = recurrence._extend(spec.coeffs.c, list(spec.initial), n0 + k - 1)[n0 : n0 + k]
            got = seq_range(spec, n0, n0 + k - 1)
            assert got == want and list(map(type, got)) == list(map(type, want))

        check()

    def test_zero_poly_coefficients_give_polys(self):
        # a product by the zero Poly is a Poly on every route, as it is in the walk
        spec = RecurrenceSpec(CoeffVector((Poly(1), 1)), (0, 1))
        want = recurrence._extend(spec.coeffs.c, list(spec.initial), 302)[300:]
        got = [seq_range(spec, 300, 302), [seq_eval(spec, n) for n in (300, 301, 302)]]
        for terms in got:
            assert terms == want and all(type(t) is Poly for t in terms)
        # a chain from an offset inside the head returns the head's own value there
        (x,) = Poly.variables(1)
        assert list(map(type, _stride_terms((x, 1), (x, 1), 300, 1, 2))) == [int, Poly]

    def test_runs_inside_a_long_head_walk(self):
        # past the cutoff but inside the head, a window or single term is the head's own
        d = _JUMP_CUTOFF + 4
        c, head = (Poly(1),) * (d - 1) + (1,), tuple(range(d))
        spec = RecurrenceSpec(CoeffVector(c), head)
        want = recurrence._extend(c, list(head), d + 1)[_JUMP_CUTOFF:]
        got = seq_range(spec, _JUMP_CUTOFF, _JUMP_CUTOFF + 5)
        assert got == want and list(map(type, got)) == [int] * 4 + [Poly] * 2
        assert type(seq_eval(spec, _JUMP_CUTOFF + 1)) is int

    def test_long_windows_from_the_head(self):
        # a window whose first d terms lie below the cutoff walks, so the head's own values come back
        (x,) = Poly.variables(1)
        c = (0, x - 1)
        cases = [
            (seq_range(RecurrenceSpec(CoeffVector(c), (2, 0)), 0, 300), (2, 0)),
            (lucas_transform(c, 300).terms, (Poly.const(2, 1), 0)),  # hat_1 = 1*c_1, an int
        ]
        for got, head in cases:
            want = recurrence._extend(c, list(head), 300)
            assert list(got) == want and list(map(type, got)) == list(map(type, want))

    def test_shifted_takes_at_most_d_terms(self, monkeypatch):
        real = recurrence._shifted

        def guarded(c, residue, head, s, count, poly):
            assert count <= len(c), f"asked for {count} terms at order {len(c)}"
            return real(c, residue, head, s, count, poly)

        monkeypatch.setattr(recurrence, "_shifted", guarded)
        n, k = 10**5, 5000
        terms = seq_range(TRIB, n, n + k - 1)
        assert [terms[0], terms[k // 2], terms[-1]] == [seq_eval(TRIB, i) for i in (n, n + k // 2, n + k - 1)]
        for name in ("int-d5", "fraction-d3", "poly-d2"):
            assert seq_range(SPECS[name], _JUMP_CUTOFF, _JUMP_CUTOFF + 7) == walk(name)[_JUMP_CUTOFF : _JUMP_CUTOFF + 8]
        assert lucas_transform((1, 1), 600).terms[-1] == mat_trace(mat_pow(companion((1, 1)), 600))


class TestClosedFormsDoNotWalk:
    """A closed form must not walk to a far index: counted by refusing long walks."""

    @pytest.fixture
    def no_long_walks(self, monkeypatch):
        real = recurrence._extend

        def guarded(c, terms, upto, poly=False):
            if upto >= _JUMP_CUTOFF:
                raise AssertionError(f"walked to index {upto}")
            return real(c, terms, upto, poly)

        # every walk, lucas_transform's and invert_sequence's too, runs through this one name
        monkeypatch.setattr(recurrence, "_extend", guarded)

    def test_far_calls(self, no_long_walks):
        n = 10**5
        # sum_{j<=n} T_j = (T_{n+2} + T_n - 1) / 2 for this tribonacci start
        assert partial_sum_closed(TRIB, n) == (seq_eval(TRIB, n + 2) + seq_eval(TRIB, n) - 1) // 2
        assert progression_sum(TRIB, 1000, 7, 100) == partial_sum_closed(subseq_recurrence(TRIB, 1000, 7), 100)
        sub = subseq_recurrence(TRIB, n, 3)
        assert sub.initial == tuple(seq_eval(TRIB, n * i + 3) for i in range(3))
        assert gamma_coefficients((1, 1, 1), n).gamma[-1] == 1

    def test_guard_bites(self, no_long_walks):
        with pytest.raises(AssertionError):
            seq_range(TRIB, 0, _JUMP_CUTOFF)

    def test_verify(self, no_long_walks, capsys):
        argv = ["verify", "--catalog", "tribonacci", "--m", "5000", "--depth", "8"]
        assert cli.main(argv) == 0
        assert "result\tPASS" in capsys.readouterr().out


class TestRationalLift:
    """Rational scalar data runs the engine on b_n = e*D^n*a_n, in ints."""

    def test_against_walk_and_matrix(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # whole Fractions such as 4/2 among them; zero only where allowed
        fractions = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 4, 6]))
        ints = st.integers(-3, 3)

        @st.composite
        def cases(draw):
            d = draw(st.integers(1, 5))
            where = draw(st.sampled_from(["coeffs", "head", "both"]))
            scalar = fractions if where in ("coeffs", "both") else ints
            c = [draw(scalar) for _ in range(d - 1)]
            c.append(draw(scalar.filter(bool)))
            if draw(st.booleans()):  # zero inner coefficients
                c[: d - 1] = [0 * ci for ci in c[: d - 1]]
            scalar = fractions if where in ("head", "both") else ints
            head = [draw(scalar) for _ in range(d)]
            if draw(st.booleans()):  # an all-zero head
                head = [0 * a for a in head]
            if where == "head" and not any(isinstance(a, Fraction) for a in head):
                head[-1] = Fraction(head[-1])
            # (m, r, count) walked (last index below the cutoff) and jumped
            m = draw(st.one_of(st.integers(1, 3), st.integers(60, 130)))
            r = draw(st.one_of(st.integers(0, 6), st.integers(_JUMP_CUTOFF - 8, _JUMP_CUTOFF + 8)))
            return tuple(c), tuple(head), m, r, draw(st.integers(1, 4))

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            got = _stride_terms(*case)
            assert got == walk_reference(*case)
            assert got == matrix_reference(*case)

        check()

    def test_types(self):
        spec = RecurrenceSpec(CoeffVector((Fraction(1, 2), 1)), (0, Fraction(4, 2)))
        c, head = spec.coeffs.c, spec.initial
        # the initial terms come back as given, walked and jumped; every later term is a Fraction
        walked = _stride_terms(c, head, 1, 0, 5)
        assert walked[:2] == list(head) and [type(t) for t in walked] == [int] + [Fraction] * 4
        jumped = _stride_terms(c, head, 600, 0, 2)
        assert jumped[0] == 0 and [type(t) for t in jumped] == [int, Fraction]
        assert all(type(t) is Fraction for t in seq_range(spec, 600, 603))
        # integer data stays integer, walked and jumped
        for start in (0, 600):
            assert all(type(t) is int for t in seq_range(SPECS["int-d3"], start, start + 4))
            assert all(type(t) is int for t in _stride_terms((1, 1), (0, 1), 3, start, 4))


    def test_poly_with_a_fraction_is_not_lifted(self):
        c, head = (C1, C2), (Fraction(1, 2), 1)
        for m, r, count in [(1, 0, 5), (1, _JUMP_CUTOFF, 1)]:
            assert _stride_terms(c, head, m, r, count) == walk_reference(c, head, m, r, count)

    def test_each_head_keeps_its_types_property(self):
        # the read-off decides per head: an int head beside a Fraction head under int c stays int
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ints = st.integers(-3, 3)
        fractions = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3]))  # 4/2 among them

        @st.composite
        def cases(draw):
            d = draw(st.integers(1, 4))
            scalar = draw(st.sampled_from([ints, fractions]))
            c = [draw(scalar) for _ in range(d - 1)] + [draw(scalar.filter(bool))]
            kinds = draw(st.lists(st.sampled_from([ints, fractions]), min_size=1, max_size=2))
            heads = [[draw(kind) for _ in range(d)] for kind in kinds]
            if not any(isinstance(v, Fraction) for v in c + heads[-1]):
                heads[-1][-1] = Fraction(heads[-1][-1])
            route = draw(st.sampled_from(["walk", "half jump", "window", "stride chain"]))
            far = _jump_from(d) + draw(st.integers(0, 40))
            m, r, count = {
                "walk": (draw(st.integers(1, 3)), draw(st.integers(0, 6)), draw(st.integers(1, 4))),
                "half jump": (draw(st.integers(1, 3)), far, 1),
                "window": (1, far, draw(st.integers(2, 6))),
                "stride chain": (_JUMP_CUTOFF + draw(st.integers(0, 40)), draw(st.integers(0, 6)), draw(st.integers(2, 3))),
            }[route]
            return tuple(c), tuple(map(tuple, heads)), m, r, count, route

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(cases())
        @hypothesis.example(((1, 1), ((0, 1), (Fraction(4, 2), Fraction(1, 3))), 1, 0, 5, "walk"))
        @hypothesis.example(((2, -1), ((1, 3), (0, Fraction(1, 2))), 1, 300, 1, "half jump"))
        def check(case):
            c, heads, m, r, count, route = case
            assert recurrence._walks(len(c), m, r, count, False) is (route == "walk")
            for head, got in zip(heads, recurrence._stride_heads(c, heads, m, r, count)):
                want = walk_reference(c, head, m, r, count)
                assert got == want and list(map(type, got)) == list(map(type, want)), (head, route)

        check()

    @pytest.mark.parametrize("n", [5, 3000])
    def test_one_entry_per_request(self, monkeypatch, n):
        # the lift happens once per request: the engine is entered once for each, never again on lifted data
        entries = []
        real = recurrence._stride_heads

        def spy(*args):
            entries.append(args)
            return real(*args)

        monkeypatch.setattr(recurrence, "_stride_heads", spy)
        monkeypatch.setattr(progression, "_stride_heads", spy)
        spec = TestRationalSpecsStayIntegral.SPEC
        assert seq_eval(spec, n) == by_matrix(spec, n)
        assert len(entries) == 1
        entries.clear()
        sub = subseq_recurrence(spec, 7, n)
        requests = len(entries)
        assert sub.initial == tuple(seq_eval(spec, 7 * i + n) for i in range(spec.order))
        assert requests == 2  # the window a_n..a_(n+d-1), then the chain shared with the trace head


class TestRationalSpecsStayIntegral:
    """No Fraction from scalar data reaches the residue arithmetic or a walk step."""

    @pytest.fixture
    def no_fractions(self, monkeypatch):
        def has_fraction(*groups):
            return any(isinstance(v, Fraction) for group in groups for v in group)

        def guard(name, real):
            def guarded(*args):
                if has_fraction(*args):
                    raise AssertionError(f"a Fraction reached {name}")
                return real(*args)

            return guarded

        real_extend = recurrence._extend

        def guarded_extend(c, terms, upto, poly=False):
            if has_fraction(c, terms):
                raise AssertionError("a Fraction reached the forward walk")
            return real_extend(c, terms, upto, poly)

        monkeypatch.setattr(recurrence, "_mulmod", guard("_mulmod", recurrence._mulmod))
        monkeypatch.setattr(recurrence, "_reduce", guard("_reduce", recurrence._reduce))
        # every walk, lucas_transform's and invert_sequence's too, runs through this one name
        monkeypatch.setattr(recurrence, "_extend", guarded_extend)

    SPEC = RecurrenceSpec(CoeffVector((Fraction(5, 2), -1, 1)), (1, Fraction(1, 2), 3))

    @pytest.mark.parametrize("n", [0, 7, _JUMP_CUTOFF - 1, _JUMP_CUTOFF, 3000])
    def test_calls(self, no_fractions, n):
        spec = self.SPEC
        assert seq_eval(spec, n) == by_matrix(spec, n)
        assert partial_sum_closed(spec, n) == sum(seq_range(spec, 0, n))
        m = max(n // 2, 1)
        gv = gamma_coefficients(spec.coeffs, m)
        assert gv.coeffs == char_poly_of_power(spec.coeffs, m)
        for r in (3, 300):  # the slice's window walked and jumped
            sub = subseq_recurrence(spec, m, r)
            assert sub.initial == tuple(seq_eval(spec, m * i + r) for i in range(3))
        assert progression.verify_slice(spec, m, 3, depth=8).passed
        # windows, trace terms and the inverse sequence walk lifted too
        terms = seq_range(spec, 0, n)
        assert terms[-1] == by_matrix(spec, n)
        hats = lucas_transform(spec.coeffs, n).terms
        assert len(hats) == n + 1 and hats[-1] == mat_trace(mat_pow(companion(spec.coeffs), n))
        y = invert_sequence(spec.coeffs, n)
        inverse = RecurrenceSpec(spec.coeffs, (0, 0, 1))  # y_k = z_{k+2}
        assert len(y) == n + 1 and y[-1] == by_matrix(inverse, n + 2)

    def test_guard_bites(self, no_fractions):
        with pytest.raises(AssertionError):
            recurrence._xpow(self.SPEC.coeffs.c, 5)
        with pytest.raises(AssertionError):
            recurrence._extend(self.SPEC.coeffs.c, list(self.SPEC.initial), 10)
