"""The four workloads: seeded inputs, the calls made on them, and their checks.

Each workload is a fixed batch of :class:`Op`.  An op's ``call`` makes one
library or CLI call, looking the function up on its module at call time so
that the tracer's wrappers are seen; ``check`` validates the result with
:mod:`check`, which does not import linrec, or with a property the method
must have.  Sizes are fixed per slot; the seed picks coefficients, initial
terms, offsets and check points, so that every seed gives a batch of about
the same cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import linrec
import linrec.cli
from linrec import CoeffVector, Poly, RecurrenceSpec

import check as ck

rec = linrec.recurrence
prog = linrec.progression
sums = linrec.sums
oracle = linrec.oracle
lucas = linrec.lucas
cli = linrec.cli


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    cli: bool = False  # the call returns (exit code, stdout text)


# ---------------------------------------------------------------------------
# seeded specs


def _size(x) -> int:
    if isinstance(x, Fraction):
        return abs(x.numerator).bit_length() + x.denominator.bit_length()
    return abs(x).bit_length()


def growth(c: tuple) -> float:
    """Bits per index of the fundamental solution (0, ..., 0, 1) of c."""
    unit = (0,) * (len(c) - 1) + (1,)
    n = 512
    return (_size(ck.term(c, unit, 2 * n)) - _size(ck.term(c, unit, n))) / n


def _coeffs(rng: random.Random, d: int, rational: bool) -> tuple:
    c = [rng.choice((-1, 1, 2)) for _ in range(d - 1)] + [rng.choice((-2, -1, 1, 2))]
    if rational:
        c[0] = Fraction(rng.choice((1, 3, 5)), rng.choice((2, 3)))
    return tuple(c)


def draw_spec(rng: random.Random, d: int, *, rational=False, stride=None, lo=0.6, hi=1.3):
    """Coefficients and initial terms whose terms grow lo..hi bits per index.

    With ``stride`` the divisors q(1) of the spec and of its stride-m slices
    are nonzero, so every closed sum asked for exists.
    """
    while True:
        c = _coeffs(rng, d, rational)
        init = tuple(rng.randint(-3, 3) for _ in range(d))
        if not any(init) or 1 - sum(c) == 0:
            continue
        if stride is not None and 1 - sum(ck.slice_coeffs(c, stride)) == 0:
            continue
        g = growth(c)
        if lo <= g <= hi:
            return c, init, g


#: draw_spec arguments for a spec with one rational coefficient.
RATIONAL = {"rational": True, "lo": 1.0, "hi": 4.0}

#: Growth (bits per index) of the specs the large slots draw, by order d, for
#: integer and for rational specs: each sits where many coefficient vectors
#: grow within GROWTH_TOL of it, so that the seed still picks among them.
GROWTH = {2: 0.694, 3: 0.865, 4: 1.03, 5: 1.03, 6: 1.03, 7: 1.03, 8: 1.14}
RATIONAL_GROWTH = {2: 3.74, 3: 3.65}
GROWTH_TOL = 0.03


def draw_sized(rng: random.Random, d: int, *, rational=False, stride=None) -> tuple:
    """A spec whose growth is within GROWTH_TOL of the slot's fixed growth g0.

    The large slots size their calls from g0, not from the spec drawn, so a
    slot asks for the same index or stride and about the same work on every
    seed: the seed picks coefficients and initial terms, not the slot's cost.
    """
    g0 = (RATIONAL_GROWTH if rational else GROWTH)[d]
    c, init, _ = draw_spec(rng, d, rational=rational, stride=stride,
                           lo=g0 * (1 - GROWTH_TOL), hi=g0 * (1 + GROWTH_TOL))
    return c, init, g0


def _spec(c, init) -> RecurrenceSpec:
    return RecurrenceSpec(CoeffVector(c), init)


def _offsets(rng: random.Random, m: int) -> tuple:
    return (0, rng.randrange(1, m + 3))


# ---------------------------------------------------------------------------
# direct library calls


def op_seq_eval(c, init, n) -> Op:
    spec = _spec(c, init)
    want = ck.term(c, init, n)
    return Op(f"seq_eval d={len(c)} n={n}", lambda: rec.seq_eval(spec, n), lambda got: got == want)


def op_seq_range(c, init, n0, n1) -> Op:
    spec = _spec(c, init)
    want = ck.walk(c, init, n1)[n0:]
    return Op(
        f"seq_range d={len(c)} {n0}..{n1}",
        lambda: rec.seq_range(spec, n0, n1),
        lambda got: list(got) == want,
    )


def op_partial_sum(c, init, n) -> Op:
    spec = _spec(c, init)
    want = ck.slice_sum(c, init, 1, 0, n)
    return Op(
        f"partial_sum_closed d={len(c)} n={n}",
        lambda: sums.partial_sum_closed(spec, n),
        lambda got: got == want,
    )


def op_progression_sum(c, init, m, r, n) -> Op:
    spec = _spec(c, init)
    want = ck.slice_sum(c, init, m, r, n)
    return Op(
        f"progression_sum d={len(c)} m={m} r={r} n={n}",
        lambda: sums.progression_sum(spec, m, r, n),
        lambda got: got == want,
    )


def op_gamma(rng, c, init, m) -> Op:
    offsets = _offsets(rng, m)
    return Op(
        f"gamma_coefficients d={len(c)} m={m}",
        lambda: prog.gamma_coefficients(c, m),
        lambda got: got.m == m and ck.slice_ok(tuple(got.gamma), c, init, m, offsets),
    )


def op_subseq(rng, c, init, m, r) -> Op:
    spec = _spec(c, init)
    d = len(c)
    head = tuple(ck.slice_terms(c, init, m, r, d))
    offsets = (r, r + rng.randrange(1, m + 3))

    def ok(got) -> bool:
        return tuple(got.initial) == head and ck.slice_ok(
            tuple(got.coeffs.c), c, init, m, offsets
        )

    return Op(f"subseq_recurrence d={d} m={m} r={r}", lambda: prog.subseq_recurrence(spec, m, r), ok)


def op_lucas(c, upto) -> Op:
    want = ck.hats(c, upto)
    return Op(
        f"lucas_transform d={len(c)} upto={upto}",
        lambda: lucas.lucas_transform(c, upto),
        lambda got: list(got.terms) == want,
    )


# ---------------------------------------------------------------------------
# symbolic calls, checked by specialising at seeded integer points


def _points(rng: random.Random, d: int, count=2) -> list:
    return [tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(d)) for _ in range(count)]


def _symbolic_slice_ok(gamma, d: int, m: int, points) -> bool:
    """Specialised slice coefficients match the numeric route at every point,
    and g_d is exactly the monomial (-1)^((d+1)(m+1)) c_d^m."""
    polys = [ck.poly_of(g) if not isinstance(g, (int, Fraction)) else {(0,) * d: Fraction(g)}
             for g in gamma]
    if len(polys) != d:
        return False
    last = {(0,) * (d - 1) + (m,): Fraction((-1) ** ((d + 1) * (m + 1)))}
    if polys[-1] != last:
        return False
    return all(
        tuple(ck.poly_at(p, point) for p in polys) == ck.slice_coeffs(point, m)
        for point in points
    )


def op_symbolic_gamma(rng, d, m) -> Op:
    points = _points(rng, d)
    variables = Poly.variables(d)
    return Op(
        f"gamma_coefficients symbolic d={d} m={m}",
        lambda: prog.gamma_coefficients(variables, m, cross_check=True),
        lambda got: _symbolic_slice_ok(got.gamma, d, m, points),
    )


def op_symbolic_charpoly(rng, d, m) -> Op:
    points = _points(rng, d)
    variables = Poly.variables(d)
    return Op(
        f"char_poly_of_power symbolic d={d} m={m}",
        lambda: oracle.char_poly_of_power(variables, m),
        lambda got: _symbolic_slice_ok(got.c, d, m, points),
    )


def op_symbolic_range(rng, d, n) -> Op:
    points = _points(rng, d)
    # positive initial terms: mixed signs cancel monomials, and cost would vary with the seed
    init = tuple(rng.choice((1, 2)) for _ in range(d))
    spec = RecurrenceSpec(CoeffVector(Poly.variables(d)), init)
    wants = [ck.walk(point, init, n) for point in points]

    def ok(got) -> bool:
        polys = [{(0,) * d: Fraction(t)} if isinstance(t, (int, Fraction)) else ck.poly_of(t)
                 for t in got]
        return len(polys) == n + 1 and all(
            [ck.poly_at(p, point) for p in polys] == want for point, want in zip(points, wants)
        )

    return Op(f"seq_range symbolic d={d} 0..{n}", lambda: rec.seq_range(spec, 0, n), ok)


# ---------------------------------------------------------------------------
# CLI calls, made in process; stdout is captured and parsed back


def run_cli(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


#: Catalog entries and families the CLI calls name, as coefficients and initial terms.
CATALOG = {
    "fibonacci": ((1, 1), (0, 1)),
    "lucas": ((1, 1), (2, 1)),
    "tribonacci": ((1, 1, 1), (0, 0, 1)),
    "tribonacci_hat": ((1, 1, 1), (3, 1, 3)),
    "padovan": ((0, 1, 1), (1, 0, 0)),
    "perrin": ((0, 1, 1), (3, 0, 2)),
    "narayana": ((1, 0, 1), (1, 1, 1)),
    "narayana_hat": ((1, 0, 1), (3, 1, 1)),
    "convolved_fibonacci": ((2, 1, -2, -1), (0, 0, 1, 2)),
    "k_fibonacci(3)": ((3, 1), (0, 1)),
    "k_lucas(2)": ((2, 1), (2, 2)),
    "d_step_fibonacci(4)": ((1, 1, 1, 1), (0, 0, 0, 1)),
    "d_step_lucas(5)": ((1,) * 5, (5, 1, 3, 7, 15)),
}
FIXED_CATALOG = [name for name in CATALOG if "(" not in name]


def _spec_args(source) -> tuple:
    """CLI spec flags plus the (c, init) they stand for."""
    if isinstance(source, str):
        return ["--catalog", source], CATALOG[source]
    c, init = source
    return [f"--coeffs={_csv(c)}", f"--init={_csv(init)}"], (c, init)


def _parse_lines(text: str) -> list:
    return [line.split("\t") for line in text.splitlines()]


def op_cli_eval(source, n=None, span=None, as_json=False) -> Op:
    flags, (c, init) = _spec_args(source)
    if n is not None:
        argv = ["eval", *flags, "--n", str(n)]
        want = [ck.term(c, init, n)]
    else:
        lo, hi = span
        argv = ["eval", *flags, "--range", f"{lo}..{hi}"]
        want = ck.walk(c, init, hi)[lo:]
    argv += ["--json"] if as_json else []

    def ok(got) -> bool:
        code, text = got
        if code != 0:
            return False
        if as_json:
            doc = json.loads(text)
            values = [doc["value"]] if n is not None else doc["terms"]
            return [ck.scalar(v) for v in values] == want
        rows = _parse_lines(text)
        if n is not None:
            return [ck.scalar(rows[0][0])] == want and len(rows) == 1
        return [int(r[0]) for r in rows] == list(range(lo, hi + 1)) and [
            ck.scalar(r[1]) for r in rows
        ] == want

    return Op(" ".join(argv), lambda: run_cli(argv), ok, cli=True)


def op_cli_lucas(c, upto, as_json=False) -> Op:
    argv = ["lucas", f"--coeffs={_csv(c)}", "--N", str(upto)] + (["--json"] if as_json else [])
    want = ck.hats(c, upto)

    def ok(got) -> bool:
        code, text = got
        if code != 0:
            return False
        if as_json:
            values = json.loads(text)["terms"]
        else:
            values = [r[1] for r in _parse_lines(text)]
        return [ck.scalar(v) for v in values] == want

    return Op(" ".join(argv), lambda: run_cli(argv), ok, cli=True)


def op_cli_gamma(rng, c, init, m, as_json=False) -> Op:
    argv = ["gamma", f"--coeffs={_csv(c)}", "--m", str(m)] + (["--json"] if as_json else [])
    offsets = _offsets(rng, m)

    def ok(got) -> bool:
        code, text = got
        if code != 0:
            return False
        if as_json:
            values = json.loads(text)["gamma"]
        else:
            values = [r[1] for r in _parse_lines(text)]
        return ck.slice_ok(tuple(ck.scalar(v) for v in values), c, init, m, offsets)

    return Op(" ".join(argv), lambda: run_cli(argv), ok, cli=True)


def op_cli_symbolic_gamma(rng, d, m) -> Op:
    argv = ["gamma", "--symbolic", "--d", str(d), "--m", str(m), "--json"]
    points = _points(rng, d)

    def ok(got) -> bool:
        code, text = got
        return code == 0 and _symbolic_slice_ok(json.loads(text)["gamma"], d, m, points)

    return Op(" ".join(argv), lambda: run_cli(argv), ok, cli=True)


def op_cli_sum(source, n, as_json=False) -> Op:
    flags, (c, init) = _spec_args(source)
    argv = ["sum", *flags, "--n", str(n)] + (["--json"] if as_json else [])
    want = ck.slice_sum(c, init, 1, 0, n)
    divisor = 1 - sum(c)

    def ok(got) -> bool:
        code, text = got
        if code != 0:
            return False
        if as_json:
            doc = json.loads(text)
            return ck.scalar(doc["sum"]) == want and ck.scalar(doc["divisor"]) == divisor
        rows = dict(r[:2] for r in _parse_lines(text))
        return ck.scalar(rows["sum"]) == want and ck.scalar(rows["divisor"]) == divisor

    return Op(" ".join(argv), lambda: run_cli(argv), ok, cli=True)


def op_cli_subsum(rng, source, m, r, n, as_json=False) -> Op:
    flags, (c, init) = _spec_args(source)
    argv = ["subsum", *flags, "--m", str(m), "--r", str(r), "--n", str(n)]
    argv += ["--json"] if as_json else []
    want = ck.slice_sum(c, init, m, r, n)
    offsets = _offsets(rng, m)

    def ok(got) -> bool:
        code, text = got
        if code != 0:
            return False
        if as_json:
            doc = json.loads(text)
            total, gamma = doc["sum"], doc["gamma"]
        else:
            rows = dict(r[:2] for r in _parse_lines(text))
            total, gamma = rows["sum"], rows["gamma"].split(" ")
        g = tuple(ck.scalar(v) for v in gamma)
        return ck.scalar(total) == want and ck.slice_ok(g, c, init, m, offsets)

    return Op(" ".join(argv), lambda: run_cli(argv), ok, cli=True)


def _report_ok(report: dict, c, init, offsets) -> bool:
    m = report["m"]
    g = tuple(ck.scalar(v) for v in report["gamma"])
    return (
        report["result"] == "PASS"
        and report["charpoly"] == "agree"
        and report["violations"] == []
        and report["fit"] in ("agree", "underdetermined")
        and ck.slice_ok(g, c, init, m, offsets)
    )


def op_cli_verify(rng, source, m, r, as_json=False) -> Op:
    flags, (c, init) = _spec_args(source)
    argv = ["verify", *flags, "--m", str(m), "--r", str(r)] + (["--json"] if as_json else [])
    offsets = _offsets(rng, m)

    def ok(got) -> bool:
        code, text = got
        if code != 0:
            return False
        if as_json:
            (report,) = json.loads(text)["reports"]
            return _report_ok(report, c, init, offsets)
        rows = dict(r[:2] for r in _parse_lines(text))
        g = tuple(ck.scalar(v) for v in rows["gamma"].split(" "))
        return (
            rows["result"] == "PASS"
            and rows["charpoly"] == "agree"
            and rows["recurrence"].startswith("ok")
            and ck.slice_ok(g, c, init, m, offsets)
        )

    return Op(" ".join(argv), lambda: run_cli(argv), ok, cli=True)


def op_cli_verify_all(rng, m) -> Op:
    argv = ["verify", "--all-catalog", "--m", str(m), "--json"]
    offsets = _offsets(rng, m)

    def ok(got) -> bool:
        code, text = got
        if code != 0:
            return False
        reports = {rep["name"]: rep for rep in json.loads(text)["reports"]}
        return set(FIXED_CATALOG) <= set(reports) and all(
            _report_ok(rep, *CATALOG[name], offsets) if name in CATALOG
            else rep["result"] == "PASS"
            for name, rep in reports.items()
        )

    return Op(" ".join(argv), lambda: run_cli(argv), ok, cli=True)


def op_cli_catalog(as_json=False) -> Op:
    argv = ["catalog"] + (["--json"] if as_json else [])

    def ok(got) -> bool:
        code, text = got
        if code != 0:
            return False
        if not as_json:
            rows = {r[0]: r for r in _parse_lines(text)}
            return all(
                rows[name][2] == str(len(CATALOG[name][0]))
                and rows[name][3] == _csv(CATALOG[name][0])
                for name in FIXED_CATALOG
            )
        entries = {e["name"]: e for e in json.loads(text)["entries"] if not e.get("family")}
        if not set(FIXED_CATALOG) <= set(entries):
            return False
        for e in entries.values():
            c = tuple(ck.scalar(v) for v in e["coeffs"])
            init = tuple(ck.scalar(v) for v in e["initial"])
            prefix = [ck.scalar(v) for v in e["prefix"]]
            if prefix != ck.walk(c, init, len(prefix) - 1):
                return False
            if e["hat_of"] is not None:
                base = tuple(ck.scalar(v) for v in entries[e["hat_of"]]["coeffs"])
                if prefix != ck.hats(base, len(prefix) - 1):
                    return False
        return True

    return Op(" ".join(argv), lambda: run_cli(argv), ok, cli=True)


# ---------------------------------------------------------------------------
# the batches
#
# Each large slot fixes its order d and its size, and draws a spec whose
# growth g (bits per index) is within 3% of the slot's GROWTH, so that its
# cost is the same on every seed.  Two cost models set the sizes.  A jump
# (seq_eval's matrix power) costs about a fixed number of products at the
# result's size, so the slot fixes the bits of the result: n = bits / g.  A
# forward walk of n terms does about d*n products of numbers up to n*g bits,
# so the slot fixes work = d * n^2 * g.
#
# No call takes much over 15 ms on a calm host: on a shared host a call's
# fastest repeat is only steady if the call fits in the short calm spells
# between other tenants' bursts (README.md, "Timing estimator").

#: Bit size of a_n asked of far_terms' seq_eval slots, by order d.
EVAL_BITS = {2: 60_000, 3: 25_000, 4: 16_000, 5: 10_000, 6: 8_000, 7: 6_000, 8: 5_000}


def walk_length(work: float, d: int, g: float) -> int:
    """Terms a forward walk of order d may take for about ``work`` bit-steps."""
    return round((work / (d * g)) ** 0.5)


def draw_jump(rng: random.Random, d: int, bits: int, rational=False) -> tuple:
    """A spec and the slot's index n, at which a_n has about ``bits`` bits.

    Specs whose x^n mod q has a coefficient far smaller than the others are
    drawn again: their matrix power holds zeros or small entries (a factor
    x^2 + 1 at n = 0 mod 4, say) and costs much less than the slot's size.
    """
    while True:
        c, init, g = draw_sized(rng, d, rational=rational)
        n = round(bits / g)
        sizes = [_size(r) for r in ck.xpow_mod(n, c)]
        if min(sizes) >= 0.9 * max(sizes):
            return c, init, n


def far_terms(rng: random.Random) -> list:
    ops = []
    for d in (2, 2, 3, 3, 4, 4, 5, 6, 7, 8):
        ops.append(op_seq_eval(*draw_jump(rng, d, EVAL_BITS[d])))
    for d, bits in ((2, 3_000), (3, 2_000)):
        ops.append(op_seq_eval(*draw_jump(rng, d, bits, rational=True)))
    for d in (2, 3, 4, 5, 6, 8):
        c, init, g = draw_sized(rng, d)
        ops.append(op_partial_sum(c, init, walk_length(1e8, d, g)))
    c, init, g = draw_sized(rng, 2, rational=True)
    ops.append(op_partial_sum(c, init, walk_length(2e6, 2, g)))
    for d, m in ((2, 2), (3, 3), (4, 5), (5, 6), (6, 8)):
        c, init, g = draw_sized(rng, d, stride=m)
        ops.append(op_progression_sum(c, init, m, rng.randrange(m), walk_length(1e8, d, m * g)))
    return ops


def wide_strides(rng: random.Random) -> list:
    ops = []

    def draw(d, work=5e7, rational=False, summed=False):
        """A spec and a stride whose trace walk of (d-1)*m terms costs about ``work``."""
        while True:
            c, init, g = draw_sized(rng, d, rational=rational)
            m = max(1, round(walk_length(work, d, g) / (d - 1)))
            if not summed or 1 - sum(ck.slice_coeffs(c, m)) != 0:
                return c, init, m

    for d in (2, 3, 4, 5, 6):
        ops.append(op_gamma(rng, *draw(d, work=1.2e8)))
    for d in (2, 3):
        ops.append(op_gamma(rng, *draw(d, work=3e6, rational=True)))
    # r < 64 lengthens the base walk of (d-1)*m + r terms by at most 3%
    for d in (2, 3, 4, 6):
        c, init, m = draw(d)
        ops.append(op_subseq(rng, c, init, m, rng.randrange(64)))
    for d in (2, 3, 4, 6):
        c, init, m = draw(d, summed=True)
        ops.append(op_progression_sum(c, init, m, rng.randrange(64), 8))
    return ops


#: (d, m) pairs of the symbolic slice calls.
SYMBOLIC_GRID = [(d, m) for d in (2, 3) for m in range(2, 7)] + [(4, 2), (4, 3), (5, 2)]


def symbolic(rng: random.Random) -> list:
    ops = [op_symbolic_gamma(rng, d, m) for d, m in SYMBOLIC_GRID]
    ops += [op_symbolic_charpoly(rng, d, m) for d, m in SYMBOLIC_GRID if d < 5]
    ops += [op_symbolic_range(rng, d, n) for d, n in ((2, 34), (3, 16), (4, 12))]
    return ops


def strata(rng: random.Random, k: int, lo: int, hi: int) -> list:
    """k sizes in lo..hi-1, one drawn from each of k equal slices of the range,
    so that the batch's spread of sizes is the same for every seed."""
    return [lo + int((i + rng.random()) * (hi - lo) / k) for i in range(k)]


def small_calls(rng: random.Random) -> list:
    ops = []
    for i, n in enumerate(strata(rng, 24, 0, 256)):
        c, init, _ = draw_spec(rng, 1 + i % 6, **(RATIONAL if i % 8 == 7 else {}))
        ops.append(op_seq_eval(c, init, n))
    sizes = zip(strata(rng, 8, 20, 256), strata(rng, 8, 0, 256), strata(rng, 8, 0, 32))
    for i, (n1, n, k) in enumerate(sizes):
        d, m = 2 + i % 5, 1 + i
        c, init, _ = draw_spec(rng, d)
        ops.append(op_seq_range(c, init, rng.randrange(n1), n1))
        c, init, _ = draw_spec(rng, d, **(RATIONAL if i == 7 else {}))
        ops.append(op_partial_sum(c, init, n))
        c, init, _ = draw_spec(rng, d, stride=m)
        ops.append(op_progression_sum(c, init, m, rng.randrange(m), k * 8 // m))
        c, init, _ = draw_spec(rng, d)
        ops.append(op_gamma(rng, c, init, m))
        c, init, _ = draw_spec(rng, d)
        ops.append(op_subseq(rng, c, init, 9 - m, rng.randrange(2 * (9 - m))))
    for d, upto in zip((2, 4, 6), strata(rng, 3, 64, 256)):
        c, _, _ = draw_spec(rng, d)
        ops.append(op_lucas(c, upto))

    names = list(CATALOG)

    def source(i, m=None):
        """A catalog name for odd i, inline coefficients for even i."""
        if i % 2:
            ok = [n for n in names if m is None or 1 - sum(ck.slice_coeffs(CATALOG[n][0], m))]
            return rng.choice(ok)
        c, init, _ = draw_spec(rng, 2 + i % 5, stride=m)
        return c, init

    for i, n in enumerate(strata(rng, 6, 0, 256)):
        ops.append(op_cli_eval(source(i), n=n, as_json=i % 3 == 0))
    for i, width in enumerate(strata(rng, 3, 0, 150)):
        lo = rng.randrange(100)
        ops.append(op_cli_eval(source(i), span=(lo, lo + width), as_json=i == 1))
    for i, upto in enumerate(strata(rng, 3, 32, 128)):
        c, init, _ = draw_spec(rng, 2 + 2 * i)
        ops.append(op_cli_lucas(c, upto, as_json=i == 1))
        ops.append(op_cli_gamma(rng, c, init, 2 + 3 * i, as_json=i != 1))
    for d, m in ((2, 5), (3, 4), (4, 3)):
        ops.append(op_cli_symbolic_gamma(rng, d, m))
    for i, n in enumerate(strata(rng, 4, 0, 256)):
        ops.append(op_cli_sum(source(i), n, as_json=i % 2 == 0))
    for i, k in enumerate(strata(rng, 4, 0, 25)):
        m = 1 + 2 * i
        ops.append(op_cli_subsum(rng, source(i, m), m, rng.randrange(m), k * 8 // m,
                                 as_json=i < 2))
    for i in range(4):
        ops.append(op_cli_verify(rng, source(i), 1 + i, rng.randrange(4), as_json=i % 2 == 1))
    ops.append(op_cli_verify_all(rng, 3))
    ops.append(op_cli_catalog())
    ops.append(op_cli_catalog(as_json=True))
    return ops


WORKLOADS = {
    "far_terms": far_terms,
    "wide_strides": wide_strides,
    "symbolic": symbolic,
    "small_calls": small_calls,
}


def build(name: str, seed: int) -> list:
    """The workload's batch for this seed; the same seed gives the same batch."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
