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
``/`` as :func:`exact_div` does, so only by a nonzero constant, and has no
order: ``abs``, ``<``, ``<=``, ``>`` and ``>=`` raise DomainError, as do a
Poly exponent (``2 ** p``) and a modular power (``pow(p, 2, 5)``).  A Poly
packs each monomial into one int key, caps every exponent at 2**31 - 1, and
hands out its terms only as a decoded copy (:attr:`Poly.terms`).  No floating
point is used anywhere.

A walk step, a Newton step, a matrix entry and a closed sum's weights are
:func:`dot`, which equals ``sum(map(mul, xs, ys), start)`` in value, type and
Poly term order.  The residue products of ``recurrence._mulmod`` and
``_reduce`` (``+=``) and ``oracle.fit_recurrence``'s integer check are not.
Poly arithmetic is :meth:`Poly._factor`, the other operand's term dict, and
:func:`_accumulate`, the one loop that adds a product of term dicts into a
third: ``+``, ``-``, ``*`` and :func:`dot` all run it.

The library's result values (coefficient vectors, specs, gamma vectors,
reports, closed forms, catalog entries) are immutable :class:`Record`
subclasses, not dataclasses, so importing linrec loads no ``dataclasses``.
Each states its fields once, as class annotations, and ``Record.__init__``
binds them; only a record that checks its arguments (a coefficient vector,
a spec, a characteristic polynomial) writes its own ``__init__``.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from fractions import Fraction
from functools import cache, reduce
import math
from operator import attrgetter, mul, or_


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
    """values as a tuple, after rejecting (with error) any that is not exact: an int, Fraction or Poly, never a bool.

    A set or a mapping is rejected too: it has no order to read terms or
    coefficients in, and iterating a mapping gives its keys, not its values.
    """
    kind = type(values)  # a tuple or a list, the common arguments, skips the ABC test
    if kind is not tuple:
        if kind is not list and isinstance(values, (Set, Mapping)):
            raise error(f"{what} must be an ordered sequence, got the unordered {kind.__name__} {values!r}")
        try:
            values = tuple(values)
        except TypeError:
            raise error(f"{what} must be a sequence of exact values, got {values!r}") from None
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Poly, Fraction)):
            raise error(f"{what} must be exact (int, Fraction or Poly), got {v!r}")
    return values


class Record:
    """Base of the library's result values: immutable records of named fields.

    A subclass lists its fields as class annotations, in order, and the base
    binds them: positional and then keyword arguments fill the fields in that
    order, and a missing, unknown, repeated or surplus field raises TypeError.
    A subclass that checks its arguments defines ``__init__`` instead and
    writes each checked field once into ``self.__dict__``.  Two records are
    equal when their class and their fields are; a record hashes by its
    fields, prints as ``Name(field=value, ...)`` and matches a positional
    ``case`` pattern field by field.  Assigning or deleting an attribute
    raises AttributeError.  The fields live in ``__dict__``, so pickle and
    ``copy`` need no hooks; a copy with changes is a constructor call.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if not names:  # a subclass that lists no fields keeps its parent's
            return
        values = attrgetter(*names)

        def __hash__(self):  # a closure, not a class lookup: as fast as a dataclass hash of one field
            return hash(values(self))

        cls.__match_args__ = names
        cls._names = frozenset(names)
        cls.__hash__ = __hash__

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if len(args) == len(names) and not kwargs:  # every field by position: the fast path
            fields = zip(names, args)
        elif not args and kwargs.keys() == self._names:  # every field by keyword
            fields = kwargs
        elif len(args) < len(names) and kwargs.keys() == self._names.difference(names[: len(args)]):
            fields = dict(zip(names, args), **kwargs)
        else:  # a surplus positional, or a missing, unknown or repeated field
            raise TypeError(
                f"{self.__class__.__name__}() needs each field of {names} once: "
                f"got {len(args)} by position and {tuple(kwargs)} by keyword"
            )
        self.__dict__.update(fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")


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
        n = n.constant_value()  # its value, as an int or a Fraction
    if isinstance(a, Poly):
        return a * (Fraction(1) / Fraction(n))
    if isinstance(a, int) and isinstance(n, int):
        q, r = divmod(a, n)
        if r:
            raise DivisionNotExact(f"{a} is not divisible by {n}")
        return q
    return Fraction(a) / Fraction(n)


def as_integer(x) -> int:
    """Lower an exact value to int, raising DivisionNotExact if it is not one and DomainError for a bool."""
    if isinstance(x, bool):
        raise DomainError(f"expected an exact value, got the bool {x!r}")
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

#: Bits per variable in a packed monomial key; every exponent stays below _EXP_CAP.
_FIELD = 32
_FIELD_MASK = (1 << _FIELD) - 1
_EXP_CAP = 1 << (_FIELD - 1)


@cache
def _guard(nvars: int) -> int:
    """The top bit of each of nvars fields: a product key has one set only where an exponent reached _EXP_CAP."""
    return sum(_EXP_CAP << (_FIELD * i) for i in range(nvars))


class Poly:
    """Sparse multivariate polynomial with integer coefficients where it can.

    Each monomial is packed into one int key, sum of e_i * 2**(32*i), so a
    product of monomials is one int addition and the constant monomial is key
    0.  An exponent must be below 2**31: the constructor rejects a larger one,
    and a product whose exponent would reach 2**31 raises DomainError, so a
    carry never spills into the next variable.  The private dict maps keys to
    nonzero coefficients in one canonical form: an ``int``, or a ``Fraction``
    only when its denominator is not 1.  The zero polynomial is the empty
    dict.  :attr:`terms` decodes it to a fresh dict keyed by exponent tuples.
    The public constructor validates and canonicalises its input; the ring
    operations build their results through the trusted :meth:`_make`, which
    checks nothing.  Instances are immutable, so ``p + 0`` and ``p * 1``
    return ``p`` itself.  Serialization and printing walk the terms in graded
    lexicographic order, largest first, so output is deterministic.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=()):
        _check_nvars(nvars)
        clean: dict[int, int | Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        try:
            items = [(tuple(exps), coeff) for exps, coeff in items]
        except (TypeError, ValueError):
            raise DomainError(f"Poly terms must be (exponents, coefficient) pairs, got {terms!r:.80}") from None
        for exps, coeff in items:
            if len(exps) != nvars or not all(
                isinstance(e, int) and not isinstance(e, bool) and 0 <= e < _EXP_CAP for e in exps
            ):
                raise DomainError(f"bad exponent vector {exps!r} for nvars={nvars}: need ints in 0..2**31 - 1")
            key = sum(e << s for e, s in zip(exps, range(0, _FIELD * nvars, _FIELD)))
            clean[key] = clean.get(key, 0) + _coefficient(coeff)
        _set_nvars(self, nvars)
        _set_terms(self, _settle(clean))

    @staticmethod
    def _make(nvars: int, terms: dict) -> "Poly":
        """Trusted constructor: ``terms`` is already canonical, packed and owned by the result."""
        p = _new(Poly)
        _set_nvars(p, nvars)
        _set_terms(p, terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value, nvars: int) -> "Poly":
        _check_nvars(nvars)
        value = _coefficient(value)
        return cls._make(nvars, {0: value} if value else {})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        _check_nvars(nvars)
        _check_index(i, "i")
        if i >= nvars:
            raise DomainError(f"variable index {i} out of range for nvars={nvars}")
        return cls._make(nvars, {1 << (_FIELD * i): 1})

    @classmethod
    def variables(cls, nvars: int) -> tuple["Poly", ...]:
        """All ``nvars`` coordinate polynomials, in order."""
        _check_nvars(nvars)
        return tuple(cls.variable(i, nvars) for i in range(nvars))

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], int | Fraction]:
        """A fresh dict mapping exponent tuples (one entry per variable) to the nonzero coefficients."""
        shifts = range(0, _FIELD * self.nvars, _FIELD)
        return {tuple((key >> s) & _FIELD_MASK for s in shifts): c for key, c in self._terms.items()}

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def constant_value(self) -> int | Fraction:
        """The coefficient of the constant term (0 if absent)."""
        return self._terms.get(0, 0)

    def has_integer_coefficients(self) -> bool:
        return not any(isinstance(c, Fraction) for c in self._terms.values())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        """Terms in graded-lex order, highest first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        """other as a Poly over self's variables; DomainError, from :meth:`_factor`, for anything outside the ring."""
        return Poly._make(self.nvars, self._factor(other))

    def _factor(self, other) -> dict:
        """other's term dict, to add to self or multiply it by; DomainError for anything outside the ring."""
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise DomainError("mixing polynomials over different variable sets")
            return other._terms
        c = other if type(other) is int else _coefficient(other)
        return {0: c} if c else {}

    def __add__(self, other):
        right = self._factor(other)
        return Poly._make(self.nvars, _accumulate(dict(self._terms), right, _ONE, 0)) if right else self

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.nvars, {key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        right = self._factor(other)
        return Poly._make(self.nvars, _accumulate(dict(self._terms), right, _MINUS_ONE, 0)) if right else self

    def __rsub__(self, other):
        # -self + other: self's terms are negated first, so they keep their order ahead of other's
        terms = _accumulate({}, self._terms, _MINUS_ONE, 0)
        return Poly._make(self.nvars, _accumulate(terms, self._factor(other), _ONE, 0))

    def __mul__(self, other):
        right = self._factor(other)
        if right == _ONE:
            return self
        if self._terms == _ONE and isinstance(other, Poly):
            return other
        return Poly._make(self.nvars, _accumulate({}, self._terms, right, _guard(self.nvars)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return exact_div(self, other)

    def __rtruediv__(self, other):
        return exact_div(self._coerce(other), self)

    def __pow__(self, exponent: int, modulo=None):
        if modulo is not None:
            raise DomainError("a Poly has no modular power")
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

    def __rpow__(self, base, modulo=None):
        raise DomainError("a Poly is not an exponent")

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            terms = self._terms
            if not terms:
                return other == 0
            return len(terms) == 1 and terms.get(0) == other
        return NotImplemented

    def __hash__(self):
        terms = self._terms
        if terms.keys() <= {0}:  # zero or a constant: equal to a scalar, so hash like one
            return hash(terms.get(0, 0))
        return hash((self.nvars, frozenset(terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def _unordered(self, *args):
        raise DomainError("a Poly has no order or absolute value")

    __lt__ = __le__ = __gt__ = __ge__ = __abs__ = _unordered

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
        if not self._terms:
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


# The slots' own setters, which bypass Poly.__setattr__.
_new = object.__new__
_set_nvars = Poly.nvars.__set__
_set_terms = Poly._terms.__set__


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


def _settle(terms: dict) -> dict:
    """Put a fresh term dict in canonical form, in place, and return it.

    Zeros are dropped and whole Fractions lowered to int.  A dict built a
    product at a time settles here at the end; the one-term loop of
    :func:`_accumulate`, behind ``+``, ``-`` and :func:`_add_scalar`, settles
    each key as it lands instead.
    """
    zeros = []
    for key, c in terms.items():
        if not c:
            zeros.append(key)
        elif type(c) is not int:
            terms[key] = _lower(c)
    for key in zeros:
        del terms[key]
    return terms


#: The term dicts of the constants 1 and -1.
_ONE = {0: 1}
_MINUS_ONE = {0: -1}


def _accumulate(terms: dict, a: dict, b: dict, guard: int) -> dict:
    """terms plus the product of the term dicts a and b, settled: terms itself, or a new dict if it was empty.

    The one term loop: :meth:`Poly.__mul__` runs it on an empty dict,
    :func:`dot` on its running sum, and ``+`` and ``-`` on a copy of the
    left side's terms with b the one-term ``_ONE`` or ``_MINUS_ONE`` and
    guard 0, since adding moves no key.  Keys are added in the order a*b
    builds them, a outer and b inner, or the longer side in order when the
    other has one term.  A key is dropped or lowered only once no later pair
    of the product can reach it, so the dict holds its keys in the order
    that adding the finished product to terms, key by key, would give.
    Every key the product generates passes the exponent-cap check against
    guard, the :func:`_guard` of the number of variables, a key that cancels
    too.
    """
    big, small = (a, b) if len(a) >= len(b) else (b, a)
    if len(small) <= 1:  # no two of its products share a key, so each settles as it lands
        if not small:
            return terms
        ((k0, c0),) = small.items()
        # each field of a key is at most that field of the OR of its side's keys, so a clear bound clears them all
        if k0 and (reduce(or_, big, 0) + k0) & guard and reduce(or_, map(k0.__add__, big), 0) & guard:
            raise DomainError("a product exponent exceeds 2**31 - 1")
        if not terms:
            if c0 == 1:  # big's coefficients as they are: no product, nothing to settle
                return {key + k0: c for key, c in big.items()} if k0 else dict(big)
            return _settle({key + k0: c * c0 for key, c in big.items()})
        get = terms.get
        for key, c in big.items():
            key += k0
            c = get(key, 0) + c * c0
            if type(c) is not int:
                c = _lower(c)
            if c:
                terms[key] = c
            else:
                del terms[key]
        return terms
    if (reduce(or_, a, 0) + reduce(or_, b, 0)) & guard and reduce(or_, (k + j for k in a for j in b), 0) & guard:
        raise DomainError("a product exponent exceeds 2**31 - 1")
    get = terms.get
    right = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in right:
            key = k1 + k2
            terms[key] = get(key, 0) + c1 * c2
    return _settle(terms)


def _add_scalar(terms: dict, value) -> dict:
    """terms plus an exact scalar, as ``Poly + value`` adds it: terms itself, or a new dict if it was empty.

    A value outside int and Fraction raises DomainError.
    """
    c = value if type(value) is int else _coefficient(value)
    return _accumulate(terms, {0: c}, _ONE, 0) if c else terms


def dot(xs, ys, start=0):
    """The sum of products start + xs[0]*ys[0] + xs[1]*ys[1] + ..., over the shorter of xs and ys.

    It equals ``sum(map(mul, xs, ys), start)`` in value and type, and for a
    Poly also in term order, so its repr is the same.  Int and Fraction data
    take that C-level sum itself.  Where a Poly takes part the sum is fused:
    every product is added straight into one owned term dict, and one Poly
    is made at the end, with no Poly per product or per partial sum.  A
    scalar running total joins after the first Poly product, as ``int +
    Poly`` does.  A float, str, bool or None that meets a Poly, or Polys over
    different variable sets, raise DomainError, and so does a product
    exponent past the cap.
    """
    return _dot_for(Poly in map(type, (start, *xs, *ys)))(xs, ys, start)


def _dot_for(poly: bool):
    """:func:`dot` with its route decided once by a caller that knows whether a Poly takes part."""
    return _poly_dot if poly else _scalar_dot


def _scalar_dot(xs, ys, start=0):
    """:func:`dot` on the C-level route."""
    return sum(map(mul, xs, ys), start)


def _poly_dot(xs, ys, start=0):
    """:func:`dot` on the fused route; exact on any data, and the fast route where a Poly takes part."""
    terms = None  # the running sum's term dict, from the first Poly product on
    total = start  # the running sum while it is a scalar
    if isinstance(start, Poly):
        nvars, guard, terms = start.nvars, _guard(start.nvars), dict(start._terms)
    for x, y in zip(xs, ys):
        if isinstance(x, Poly):
            p, other = x, y
        elif isinstance(y, Poly):  # scalar * Poly is Poly.__rmul__, which runs over y's terms
            p, other = y, x
        elif terms is None:
            total = total + x * y
            continue
        else:
            terms = _add_scalar(terms, x * y)
            continue
        factor = p._factor(other)
        if terms is None:
            nvars, guard = p.nvars, _guard(p.nvars)
            terms = _add_scalar(_accumulate({}, p._terms, factor, guard), total)
        elif p.nvars != nvars:
            raise DomainError("mixing polynomials over different variable sets")
        else:
            terms = _accumulate(terms, p._terms, factor, guard)
    return total if terms is None else Poly._make(nvars, terms)


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
    except (AttributeError, TypeError, ValueError, ZeroDivisionError):
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
