"""Shared helpers for the test suite: reproducible random recurrence specs and residue-product counts."""

from __future__ import annotations

import random

from linrec import CoeffVector, RecurrenceSpec
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
