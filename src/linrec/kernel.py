"""Exact arithmetic domains shared by every other module.

Three coefficient domains are supported, all exact:

  * ``int``            -- arbitrary-precision integers (the default domain)
  * ``Fraction``       -- exact rationals (stdlib ``fractions.Fraction``)
  * :class:`Poly`      -- sparse multivariate polynomials with integer
                          coefficients, a Fraction only where a term needs one

All three support ``+``, ``-``, ``*``, unary ``-`` and ``**`` with nonnegative
integer exponents, so the higher-level algorithms are written once against
that operator surface and run unchanged in numeric or symbolic mode.  The
other operand of a Poly must be an int, a Fraction or a Poly over the same
variables: a float, str, bool or None raises DomainError.  A Poly divides by
``/`` as :func:`exact_div` does, so only by a nonzero constant.  No floating
point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
import math
from operator import add


class DivisionNotExact(ArithmeticError):
    """A division that the caller asserted to be exact left a remainder.

    Raised by :func:`exact_div` and :func:`as_integer`.  Reaching this from
    library code signals an internal bug (a cancellation that mathematics
    guarantees did not happen), never bad user input.
    """


class DomainError(ValueError):
    """An argument lies outside an operation's documented domain."""


def _check_index(value, name: str, least: int = 0) -> None:
    """Reject an index argument (n, k, j, m, r, depth, upto, exponent) that is not an int >= least, or is a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise DomainError(f"expected an int {name} >= {least}, got {value!r}")


def _check_exact(values, what: str, error: type = DomainError) -> tuple:
    """values as a tuple, after rejecting (with error) any that is not exact: an int, Fraction or Poly, never a bool."""
    try:
        values = tuple(values)
    except TypeError:
        raise error(f"{what} must be a sequence of exact values, got {values!r}") from None
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction, Poly)):
            raise error(f"{what} must be exact (int, Fraction or Poly), got {v!r}")
    return values


#: Values usable as recurrence data in numeric mode.
Scalar = int | Fraction

#: Values usable as recurrence data in any mode.
RingElement = "int | Fraction | Poly"


def exact_div(a, n):
    """Divide ``a`` by a nonzero integer ``n``, requiring exactness.

    In the int domain the quotient must be an integer (DivisionNotExact
    otherwise).  Fraction and Poly values divide exactly by construction.
    A Fraction or constant Poly divisor is accepted for rational-coefficient
    callers; a non-constant Poly divisor, or a float or bool argument, raises DomainError.
    """
    _check_exact((a, n), "exact_div arguments")
    if n == 0:
        raise ZeroDivisionError("exact_div by zero")
    if isinstance(n, Poly):
        if n.total_degree() > 0:
            raise DomainError(f"exact_div needs a constant divisor, got the polynomial {n}")
        n = n([0] * n.nvars)  # its value, as an int or a Fraction
    if isinstance(a, Poly):
        return a * (Fraction(1) / Fraction(n))
    if isinstance(a, int) and isinstance(n, int):
        q, r = divmod(a, n)
        if r:
            raise DivisionNotExact(f"{a} is not divisible by {n}")
        return q
    return Fraction(a) / Fraction(n)


def as_integer(x) -> int:
    """Lower an exact value to int, raising DivisionNotExact if it is not one."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise DivisionNotExact(f"{x} is not an integer")
        return x.numerator
    raise DivisionNotExact(f"{x!r} is not an integer")


def ring_const(value: int, values) -> RingElement:
    """Inject the integer ``value`` into the domain that dominates ``values``: Poly beats Fraction beats int."""
    domain = int
    for v in values:
        if isinstance(v, Poly):
            return Poly.const(value, v.nvars)
        if isinstance(v, Fraction):
            domain = Fraction
    return domain(value)


def lower_like(value, exemplars):
    """Collapse a rational intermediate back into the exemplars' domain.

    When every exemplar is an int the cancellation must have been complete,
    so the value is lowered with :func:`as_integer`; a Poly result must have
    integer coefficients when every exemplar does (DivisionNotExact marks an
    internal bug).  Fraction results pass through unchanged.
    """
    if isinstance(value, Poly):
        if not value.has_integer_coefficients() and all(
            isinstance(e, int) or (isinstance(e, Poly) and e.has_integer_coefficients())
            for e in exemplars
        ):
            raise DivisionNotExact(f"expected integer coefficients, got {value}")
        return value
    if all(isinstance(e, int) for e in exemplars):
        return as_integer(value)
    return value


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials


class Poly:
    """Sparse multivariate polynomial with integer coefficients where it can.

    Terms are stored as a dict mapping exponent tuples (one entry per
    variable) to nonzero coefficients in one canonical form: an ``int``, or a
    ``Fraction`` only when its denominator is not 1.  The zero polynomial is
    the empty dict.  The public constructor validates and canonicalises its
    input; the ring operations build their results through the trusted
    :meth:`_make`, which checks nothing.  Instances are treated as immutable:
    every operation returns a fresh Poly.  Serialization and printing walk
    the terms in graded lexicographic order, largest first, so output is
    deterministic.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        _check_nvars(nvars)
        clean: dict[tuple[int, ...], int | Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        try:
            items = [(tuple(exps), coeff) for exps, coeff in items]
        except (TypeError, ValueError):
            raise DomainError(f"Poly terms must be (exponents, coefficient) pairs, got {terms!r:.80}") from None
        for exps, coeff in items:
            if len(exps) != nvars or not all(
                isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps
            ):
                raise DomainError(f"bad exponent vector {exps!r} for nvars={nvars}")
            clean[exps] = clean.get(exps, 0) + _coefficient(coeff)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", _settle(clean))

    @staticmethod
    def _make(nvars: int, terms: dict) -> "Poly":
        """Trusted constructor: ``terms`` is already canonical and owned by the result."""
        p = object.__new__(Poly)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value, nvars: int) -> "Poly":
        _check_nvars(nvars)
        value = _coefficient(value)
        return cls._make(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        _check_nvars(nvars)
        _check_index(i, "i")
        if i >= nvars:
            raise DomainError(f"variable index {i} out of range for nvars={nvars}")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._make(nvars, {exps: 1})

    @classmethod
    def variables(cls, nvars: int) -> tuple["Poly", ...]:
        """All ``nvars`` coordinate polynomials, in order."""
        _check_nvars(nvars)
        return tuple(cls.variable(i, nvars) for i in range(nvars))

    # -- structure ---------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def constant_value(self) -> int | Fraction:
        """The coefficient of the constant term (0 if absent)."""
        return self.terms.get((0,) * self.nvars, 0)

    def has_integer_coefficients(self) -> bool:
        return not any(isinstance(c, Fraction) for c in self.terms.values())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        """Terms in graded-lex order, highest first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        """other as a Poly over self's variables; DomainError for anything outside the ring."""
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise DomainError("mixing polynomials over different variable sets")
            return other
        return Poly.const(other, self.nvars)

    def __add__(self, other):
        other = self._coerce(other)
        if not other.terms:
            return self
        terms = dict(self.terms)
        get = terms.get
        for exps, c in other.terms.items():
            terms[exps] = get(exps, 0) + c
        return Poly._make(self.nvars, _settle(terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            if not c:
                return Poly._make(self.nvars, {})
            return Poly._make(self.nvars, _settle({e: k * c for e, k in self.terms.items()}))
        other = self._coerce(other)
        terms: dict[tuple[int, ...], int | Fraction] = {}
        get = terms.get
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                terms[e] = get(e, 0) + c1 * c2
        return Poly._make(self.nvars, _settle(terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return exact_div(self, other)

    def __rtruediv__(self, other):
        return exact_div(self._coerce(other), self)

    def __pow__(self, exponent: int):
        _check_index(exponent, "exponent")
        result = Poly.const(1, self.nvars)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not self.terms:
                return other == 0
            return self.total_degree() == 0 and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.total_degree() <= 0:  # equal to a scalar, so hash like one
            return hash(self.constant_value())
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- evaluation and display --------------------------------------------

    def __call__(self, values):
        """Substitute exact values for the variables.

        Values must be ints or Fractions.  Returns an int when the result is
        integral, a Fraction otherwise.  The substitution is a ring
        homomorphism.
        """
        values = tuple(map(_coefficient, _check_exact(values, "Poly evaluation values")))
        if len(values) != self.nvars:
            raise DomainError(f"expected {self.nvars} values, got {len(values)}")
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v**e
            total += term
        return _coefficient(total)

    def _monomial_str(self, exps) -> str:
        parts = []
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(f"c{i + 1}")
            elif e > 1:
                parts.append(f"c{i + 1}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            mono = self._monomial_str(exps)
            mag = abs(coeff)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"


def _check_nvars(nvars) -> None:
    if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 1:
        raise DomainError(f"Poly needs at least one variable, got nvars={nvars!r}")


def _coefficient(value) -> int | Fraction:
    """An exact scalar in canonical form: an int, or a Fraction that is not whole."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return _lower(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise DomainError(f"Poly takes int or Fraction values, got {value!r}")


def _lower(value: Fraction) -> int | Fraction:
    """A Fraction in canonical form: its numerator when it is whole."""
    return value.numerator if value.denominator == 1 else value


def _clear_denominators(values) -> tuple[int, list]:
    """(den, ints) with values[i] == ints[i] / den, den the lcm of the denominators of int and Fraction values."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _settle(terms: dict, keys=None) -> dict:
    """Put a fresh term dict in canonical form, in place, and return it.

    Zeros are dropped and whole Fractions lowered to int; this is the one
    place the rule is applied to stored terms.  ``keys`` limits the pass to
    the entries an operation touched (all of them by default).
    """
    zeros = []
    for exps in terms if keys is None else keys:
        c = terms[exps]
        if not c:
            zeros.append(exps)
        elif type(c) is not int:
            terms[exps] = _lower(c)
    for exps in zeros:
        del terms[exps]
    return terms


# ---------------------------------------------------------------------------
# Serialization: every exact value has a deterministic text form.


def scalar_to_str(x: Scalar) -> str:
    """Render an exact scalar: decimal for integers (whole Fractions too), ``p/q`` otherwise."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return str(x)
    raise DomainError(f"not an exact scalar: {x!r}")


def scalar_from_str(text: str) -> Scalar:
    """Parse a decimal integer or a ``p/q`` rational with q != 0.  Inverse of scalar_to_str."""
    try:
        num, slash, den = text.strip().partition("/")
        return _lower(Fraction(int(num), int(den))) if slash else int(num)
    except (AttributeError, ValueError, ZeroDivisionError):
        raise DomainError(f"expected a decimal integer or p/q with q != 0, got {text!r}") from None


def value_to_json(x) -> str | dict:
    """JSON payload for any ring element; numbers are decimal strings."""
    if isinstance(x, Poly):
        return {
            "nvars": x.nvars,
            "terms": [
                {"exponents": list(exps), "coefficient": scalar_to_str(coeff)}
                for exps, coeff in x.sorted_terms()
            ],
        }
    return scalar_to_str(x)


def value_from_json(payload) -> RingElement:
    """Inverse of value_to_json."""
    if isinstance(payload, str):
        return scalar_from_str(payload)
    try:
        terms = [(rec["exponents"], scalar_from_str(rec["coefficient"])) for rec in payload["terms"]]
        return Poly(payload["nvars"], terms)
    except (TypeError, KeyError, IndexError):
        raise DomainError(f"expected a decimal string or a Poly payload, got {payload!r:.80}") from None
