"""Compare every caller of the term engine and the result records across two checkouts of linrec.

    python tests/cross_version.py OLD_SRC NEW_SRC

runs itself once per source tree, in a fresh interpreter with that tree
first on sys.path, and records for each case its outcome, its stored form
and the number of residue products (``recurrence._mulmod`` calls) it made.
The outcome is the type of the result and its value, every Poly in it
compared by its sorted terms, or the exception's type and message; the
stored form is the type and ``repr`` of the result, in which a Poly lists
its terms in stored order.  It then prints the cases that differ, each with
its class, and a count for each class:

* outcome: the outcomes differ (type, value or exception);
* more / fewer residue products: only the residue-product count differs;
* term order only: only a Poly's stored term order differs.

It exits 1 if any case differs.

The cases are ``partial_sum_closed``, ``progression_sum``, ``seq_eval``,
``seq_range`` windows of d and 3d terms, ``gamma_coefficients`` with and
without ``cross_check``, ``subseq_recurrence``, ``verify_slice``,
``lucas_transform`` and ``invert_sequence`` on int, Fraction (in the
coefficients, the initial terms or both) and constant-q(1) Poly specs at
d = 1..8.  Indices, offsets and strides sit on both sides of each edge of
the engine's route rule, ``recurrence._walks``: a single term or window's
8d + 24 for int and Fraction data and 256 for Poly data, and a stride
chain's last index 256; and on both sides of ``sums._HALF_JUMP_FROM``, plus
a few far n.
Before them come the result records: the type and ``repr`` of one record
of each class from a fixed set of calls, with each record's record fields,
then for every pair of them whether they are ``==`` and whether their hashes
are equal.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
import json
import os
import random
import subprocess
import sys


def specs():
    """(label, spec, poly) for every spec compared; poly marks data the engine walks to 256."""
    from linrec import CoeffVector, Poly, RecurrenceSpec

    rng = random.Random(27)
    out = []
    for d in range(1, 9):
        for trial in range(3):
            c = [rng.randint(-3, 3) for _ in range(d - 1)] + [rng.choice((-2, -1, 1, 2, 3))]
            if 1 - sum(c) == 0:
                c[-1] += 1 if c[-1] != -1 else 2
            head = [rng.randint(-5, 5) for _ in range(d)]
            out.append((f"int d={d} #{trial}", RecurrenceSpec(CoeffVector(tuple(c)), tuple(head)), False))
            cf = tuple(Fraction(x, rng.randint(1, 4)) or Fraction(1, 3) for x in c)
            if 1 - sum(cf) == 0:
                cf = cf[:-1] + (cf[-1] + 1,)
            hf = tuple(Fraction(x, rng.randint(1, 3)) for x in head)
            out.append((f"fraction d={d} #{trial}", RecurrenceSpec(CoeffVector(cf), hf), False))
            out.append((f"fraction-head d={d} #{trial}", RecurrenceSpec(CoeffVector(tuple(c)), hf), False))
            out.append((f"fraction-coeffs d={d} #{trial}", RecurrenceSpec(CoeffVector(cf), tuple(head)), False))
        # constant Poly data, and one variable spec whose q(1) is still a constant
        nv = 2
        c = [rng.randint(-2, 2) for _ in range(d - 1)] + [rng.choice((-1, 1, 2))]
        if 1 - sum(c) == 0:
            c[-1] += 1
        out.append((
            f"const-poly d={d}",
            RecurrenceSpec(CoeffVector(tuple(Poly.const(x, nv) for x in c)), tuple(range(d))),
            True,
        ))
        if 1 < d <= 4:
            x = Poly.variable(0, 1)
            cp = (x,) + (1,) * (d - 2) + (4 - d - x,)  # q(1) = -1
            out.append((f"poly d={d}", RecurrenceSpec(CoeffVector(cp), (0,) * (d - 1) + (1,)), True))
    return out


def term_edge(d: int, poly: bool) -> int:
    """The least last index from which a single term or window of order d is jumped: 256 for Poly data, else 8d + 24."""
    return 256 if poly else 8 * d + 24


def indices(d: int, poly: bool, far: bool) -> list:
    """n on both sides of the sum and term edges at order d."""
    from linrec.sums import _HALF_JUMP_FROM

    edge = term_edge(d, poly)
    ns = {0, d - 1, d, edge - d - 1, edge - d, edge - 1, edge, edge + 1,
          _HALF_JUMP_FROM - d - 1, _HALF_JUMP_FROM - d, _HALF_JUMP_FROM - d + 1, _HALF_JUMP_FROM}
    if far:
        ns |= {511, 1000, 4097}
    return sorted(n for n in ns if n >= 0)


def strides(d: int, poly: bool) -> list:
    """m on both sides of the single-term edge and, at depth d - 1 and d, of the stride chain's edge at last index 256."""
    edge = term_edge(d, poly)
    ms = {1, 2, 3, edge - 1, edge, edge + 1}
    for depth in (d - 1, d):
        if depth > 1:
            ms |= {255 // depth, -(-256 // depth)}
    return sorted(ms)


def slices(d: int, poly: bool) -> list:
    """(m, r, depth) for verify_slice: windows with r on both sides of the edge, and chains of 2d terms about index 256."""
    edge = term_edge(d, poly)
    depth = 2 * d
    out = [(1, r, depth) for r in (0, edge - d, edge - d + 1)]
    for r in (0, 1):
        m = (255 - r) // (depth - 1)
        out += [(m, r, depth), (m + 1, r, depth)]
    return out


def records() -> list:
    """(label, record) for one record of each result class and the records they hold."""
    from linrec import (
        Poly, RecurrenceSpec, catalog_get, char_poly, gamma_coefficients, lucas_transform, partial_sum_form,
        subseq_recurrence, verify_slice,
    )
    from linrec.oracle import companion

    spec = RecurrenceSpec((1, 0, 1), (1, 1, 1))
    x = Poly.variable(0, 1)
    calls = [
        ("gamma_coefficients", gamma_coefficients((1, 0, 1), 3)),
        ("gamma_coefficients poly", gamma_coefficients((x, 1), 2)),
        ("subseq_recurrence", subseq_recurrence(spec, 3, 2)),
        ("verify_slice", verify_slice(spec, 3, 2, 12)),
        ("lucas_transform", lucas_transform((1, 1), 8)),
        ("partial_sum_form", partial_sum_form(RecurrenceSpec((Fraction(1, 2), 3), (1, Fraction(2, 3))))),
        ("char_poly", char_poly(companion((1, 1, 1)))),
        ("catalog fixed", catalog_get("fibonacci")),
        ("catalog family", catalog_get("k_fibonacci(1)")),
    ]
    out = []
    for label, record in calls:
        out.append((label, record))
        out += [(f"{label}.{name}", value) for name, value in vars(record).items() if hasattr(value, "__match_args__")]
    return out


def canonical(value):
    """value with each Poly replaced by its sorted terms and each record by its fields, so stored term order drops out."""
    from linrec import Poly

    if isinstance(value, Poly):
        return ("Poly", value.nvars, value.sorted_terms())
    if isinstance(value, (tuple, list)):
        return type(value)(map(canonical, value))
    if hasattr(value, "__match_args__"):  # a result record
        return (type(value).__name__, *map(canonical, vars(value).values()))
    return value


def emit(key: str, value, mulmods=None) -> None:
    """Print one case as JSON: [key, outcome, stored form, residue products]."""
    kind = type(value).__name__
    print(json.dumps([key, f"{kind} {canonical(value)!r}", f"{kind} {value!r}", mulmods]))


def dump_records() -> None:
    labelled = records()
    for label, record in labelled:
        emit(f"record {label}", record)
    for i, (a, x) in enumerate(labelled):
        for b, y in labelled[i + 1:]:
            emit(f"relation {a} / {b}", f"== {x == y}, hash equal {hash(x) == hash(y)}")


def dump() -> None:
    from linrec import (
        gamma_coefficients, invert_sequence, lucas_transform, partial_sum_closed, progression_sum, recurrence, seq_eval,
        seq_range, subseq_recurrence, verify_slice,
    )

    dump_records()

    calls = []
    real = recurrence._mulmod

    def counted(a, b, c):
        calls.append(1)
        return real(a, b, c)

    recurrence._mulmod = counted

    def show(label, fn, *args, **kwargs):
        calls.clear()
        key = f"{label} {fn.__name__}{args[1:]}{kwargs or ''}"
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # the exception is part of the outcome compared
            raised = f"raises {type(exc).__name__}: {exc}"
            print(json.dumps([key, raised, raised, len(calls)]))
        else:
            emit(key, value, len(calls))

    for label, spec, poly in specs():
        symbolic = label.startswith("poly")
        for n in indices(spec.order, poly, not symbolic):
            show(label, partial_sum_closed, spec, n)
            show(label, seq_eval, spec, n)
        for m, r in ((1, 0), (2, 1), (3, 0), (5, 4)):
            if symbolic and m > 2:
                continue
            for n in indices(spec.order, poly, False):
                show(label, progression_sum, spec, m, r, n)
        d = spec.order
        for n in indices(d, poly, False):
            for width in (d, 3 * d):
                show(label, seq_range, spec, n, n + width - 1)
            show(label, lucas_transform, spec.coeffs, n)
            show(label, invert_sequence, spec.coeffs, n)
        edge = term_edge(d, poly)
        for m in strides(d, poly):
            show(label, gamma_coefficients, spec.coeffs, m)
            show(label, gamma_coefficients, spec.coeffs, m, cross_check=True)
            for r in (0, edge - d, edge - d + 1):
                show(label, subseq_recurrence, spec, m, r)
        for m, r, depth in slices(d, poly):
            show(label, verify_slice, spec, m, r, depth)


def run(src: str) -> list:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, __file__, "--dump"], env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


CLASSES = ("outcome", "more residue products", "fewer residue products", "term order only")


def classify(old: list, new: list) -> str | None:
    """The class of the difference between one case's two records, or None when they agree."""
    (key, outcome, stored, mulmods), (new_key, new_outcome, new_stored, new_mulmods) = old, new
    if key != new_key or outcome != new_outcome:
        return "outcome"
    if mulmods != new_mulmods:
        return "more residue products" if new_mulmods > mulmods else "fewer residue products"
    return None if stored == new_stored else "term order only"


def clip(text: str) -> str:
    return text if len(text) <= 200 else f"{text[:150]} ... {text[-40:]}"


def main(argv) -> int:
    if argv[1:] == ["--dump"]:
        dump()
        return 0
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = run(argv[1]), run(argv[2])
    differ = [(kind, a, b) for a, b in zip(old, new) if (kind := classify(a, b))]
    for kind, a, b in differ[:20]:
        field = {"outcome": 1, "term order only": 2}.get(kind, 3)  # the field that differs
        print(f"[{kind}] {a[0]}\n- {clip(str(a[field]))}\n+ {clip(str(b[field]))}")
    counts = Counter(kind for kind, _, _ in differ)
    print(f"{len(old)} and {len(new)} cases, {len(differ)} differ: " + ", ".join(f"{kind} {counts[kind]}" for kind in CLASSES))
    return 1 if differ or len(old) != len(new) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
