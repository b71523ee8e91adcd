"""Catalog of named sequences with frozen golden prefixes.

Fixed entries live in ``catalog.json`` next to this module: name, optional
OEIS id, coefficients, initial terms, and a frozen prefix that regeneration
must reproduce exactly.  Trace-sequence entries name their base entry via
``hat_of``, so a check can tie the two together.  The parameterized
families k_fibonacci(k), k_lucas(k), d_step_fibonacci(d) and d_step_lucas(d)
are generated on demand within documented parameter bounds.
"""

from __future__ import annotations

import functools
from importlib import resources
import json
import re

from .kernel import Record, scalar_from_str
from .recurrence import CoeffVector, RecurrenceSpec, seq_range


class UnknownName(ValueError):
    """The catalog has no entry (and no family) under the requested name."""


class CatalogEntry(Record):
    """A named sequence: its recurrence and its first terms as the catalog records them.

    oeis is the OEIS number where known; hat_of names the entry whose trace
    sequence this one is, or is None; prefix holds the stored terms a_0, a_1, ...
    """

    name: str
    oeis: str | None
    spec: RecurrenceSpec
    prefix: tuple
    hat_of: str | None
    notes: str


_PREFIX_LEN = 20
_MAX_K = 100
_MAX_D = 20


@functools.cache
def _load_fixed() -> dict[str, CatalogEntry]:
    """The fixed entries of catalog.json, read once per process; callers do not mutate it."""
    raw = resources.files(__package__).joinpath("catalog.json").read_text("utf-8")
    entries = {}
    for rec in json.loads(raw)["entries"]:
        spec = RecurrenceSpec(tuple(map(scalar_from_str, rec["coeffs"])), tuple(map(scalar_from_str, rec["initial"])))
        entries[rec["name"]] = CatalogEntry(
            name=rec["name"],
            oeis=rec["oeis"],
            spec=spec,
            prefix=tuple(scalar_from_str(s) for s in rec["prefix"]),
            hat_of=rec["hat_of"],
            notes=rec["notes"],
        )
    return entries


_FAMILY = re.compile(r"^([a-z_]+)\((\d+)\)$")


def _family_entry(family: str, value: int) -> CatalogEntry:
    if family in ("k_fibonacci", "k_lucas"):
        if not 1 <= value <= _MAX_K:
            raise UnknownName(f"{family} parameter must be in 1..{_MAX_K}, got {value}")
        coeffs = CoeffVector((value, 1))
        if family == "k_fibonacci":
            initial, hat_of = (0, 1), None
            notes = f"order-2 recurrence a_n = {value}*a_(n-1) + a_(n-2) seeded 0, 1"
        else:
            initial, hat_of = (2, value), f"k_fibonacci({value})"
            notes = f"trace sequence of k_fibonacci({value})"
    elif family in ("d_step_fibonacci", "d_step_lucas"):
        if not 2 <= value <= _MAX_D:
            raise UnknownName(f"{family} parameter must be in 2..{_MAX_D}, got {value}")
        coeffs = CoeffVector((1,) * value)
        if family == "d_step_fibonacci":
            initial, hat_of = (0,) * (value - 1) + (1,), None
            notes = f"sum of the previous {value} terms, seeded by {value - 1} zeros and a one"
        else:
            initial = (value,) + tuple(2**j - 1 for j in range(1, value))
            hat_of = f"d_step_fibonacci({value})"
            notes = f"trace sequence of d_step_fibonacci({value})"
    else:
        raise UnknownName(f"unknown sequence family {family!r}")
    spec = RecurrenceSpec(coeffs, initial)
    prefix = tuple(seq_range(spec, 0, _PREFIX_LEN - 1))
    return CatalogEntry(
        name=f"{family}({value})", oeis=None, spec=spec, prefix=prefix,
        hat_of=hat_of, notes=notes,
    )


def catalog_get(name: str) -> CatalogEntry:
    """Look up a fixed entry or instantiate a parameterized family."""
    if not isinstance(name, str):
        raise UnknownName(f"catalog names are strings, got {name!r}")
    name = name.strip()
    fixed = _load_fixed()
    if name in fixed:
        return fixed[name]
    match = _FAMILY.match(name)
    if match:
        return _family_entry(match.group(1), int(match.group(2)))
    raise UnknownName(f"no catalog entry named {name!r}")


def catalog_names() -> list[str]:
    """All fixed entry names plus the parameterized family templates."""
    return sorted(_load_fixed()) + [
        "k_fibonacci(k)",
        "k_lucas(k)",
        "d_step_fibonacci(d)",
        "d_step_lucas(d)",
    ]
