"""Shared helpers for the test suite: reproducible random recurrence specs."""

from __future__ import annotations

import random

from linrec import CoeffVector, RecurrenceSpec


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
