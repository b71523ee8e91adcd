"""Shared helpers for the test suite: reproducible random recurrence specs, residue-product counts and reference routes."""

from __future__ import annotations

import random

from linrec import CoeffVector, RecurrenceSpec, recurrence
from linrec.oracle import companion, mat_pow
from linrec.recurrence import _jump_from


def random_coeffs(rng: random.Random, max_d: int = 5, bound: int = 3) -> tuple:
    """Random integer coefficients c_1..c_d with |c_i| <= bound and c_d != 0."""
    d = rng.randint(1, max_d)
    c = [rng.randint(-bound, bound) for _ in range(d - 1)]
    c.append(rng.choice([v for v in range(-bound, bound + 1) if v]))
    return tuple(c)


def random_spec(rng: random.Random, max_d: int = 5, bound: int = 3, init_bound: int = 5) -> RecurrenceSpec:
    coeffs = CoeffVector(random_coeffs(rng, max_d, bound))
    initial = tuple(rng.randint(-init_bound, init_bound) for _ in range(coeffs.d))
    return RecurrenceSpec(coeffs, initial)


def squarings(n: int, d: int) -> int:
    """The _mulmod calls x^n mod q takes at order d: one per bit of n after the leading bits that stay below x^d."""
    return max(n.bit_length() - d.bit_length() + 1, 0)


def window_products(r: int, k: int, d: int) -> int:
    """The _mulmod calls the window a_r..a_(r+k-1) of int or Fraction data at order d takes.

    None where the engine walks: the window starts inside the head, or its last jumped index
    a_(r+min(k,d)-1) lies below _jump_from(d).  Else x^(r//2) mod q for one term, x^r mod q for more.
    """
    if r < d or r + min(k, d) - 1 < _jump_from(d):
        return 0
    return squarings(r // 2 if k == 1 else r, d)


def by_matrix(spec, n):
    """a_n read off the last row of the n-th companion power."""
    row = mat_pow(companion(spec.coeffs), n)[-1]
    return sum(p * s for p, s in zip(row, reversed(spec.initial)))


def walk_reference(c, head, m, r, count):
    """The stride by a forward walk from a_0 in the data's own domain."""
    last = r + (count - 1) * m
    return recurrence._extend(c, list(head), max(last, len(head) - 1))[r : last + 1 : m]


def matrix_reference(c, head, m, r, count):
    """The stride off the last rows of companion-matrix powers."""
    spec = RecurrenceSpec(CoeffVector(c), tuple(head))
    return [head[i] if i < len(head) else by_matrix(spec, i) for i in range(r, r + count * m, m)]
