"""Compare closed sums and single terms across two checkouts of linrec.

    python tests/cross_version.py OLD_SRC NEW_SRC

runs itself once per source tree, in a fresh interpreter with that tree
first on sys.path, and prints one line per case: the type and ``repr`` of
the result (a Poly's repr lists its terms in stored order), or the
exception's type and message, and the number of residue products
(``recurrence._mulmod`` calls) the case made.  It then reports the cases
whose lines differ and exits 1 if any do.

The cases are ``partial_sum_closed``, ``progression_sum`` and ``seq_eval``
on int, Fraction and constant-q(1) Poly specs at d = 1..8, with n on both
sides of the engine's walk-or-jump edge (8d + 24 for int and Fraction data,
256 for Poly data) and of ``sums._HALF_JUMP_FROM``, plus a few far n.
"""

from __future__ import annotations

from fractions import Fraction
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


def indices(d: int, poly: bool, far: bool) -> list:
    """n on both sides of the sum and term edges at order d."""
    from linrec.sums import _HALF_JUMP_FROM

    edge = 256 if poly else 8 * d + 24
    ns = {0, d - 1, d, edge - d - 1, edge - d, edge - 1, edge, edge + 1,
          _HALF_JUMP_FROM - d - 1, _HALF_JUMP_FROM - d, _HALF_JUMP_FROM - d + 1, _HALF_JUMP_FROM}
    if far:
        ns |= {511, 1000, 4097}
    return sorted(n for n in ns if n >= 0)


def dump() -> None:
    from linrec import partial_sum_closed, progression_sum, recurrence, seq_eval

    calls = []
    real = recurrence._mulmod

    def counted(a, b, c):
        calls.append(1)
        return real(a, b, c)

    recurrence._mulmod = counted

    def show(label, fn, *args):
        calls.clear()
        try:
            value = fn(*args)
            result = f"{type(value).__name__} {value!r}"
        except Exception as exc:  # the exception is part of the outcome compared
            result = f"raises {type(exc).__name__}: {exc}"
        print(f"{label} {fn.__name__}{args[1:]} -> {result} [{len(calls)} mulmods]")

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


def run(src: str) -> list:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, __file__, "--dump"], env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def main(argv) -> int:
    if argv[1:] == ["--dump"]:
        dump()
        return 0
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = run(argv[1]), run(argv[2])
    differ = [(a, b) for a, b in zip(old, new) if a != b]
    for a, b in differ[:20]:
        print(f"- {a[:150]} ... {a[-40:]}\n+ {b[:150]} ... {b[-40:]}")
    print(f"{len(old)} and {len(new)} cases, {len(differ)} differ")
    return 1 if differ or len(old) != len(new) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
