"""Command-line front end.

Subcommands: eval, lucas, gamma, sum, subsum, verify, catalog.  stdout
carries data only (tab-delimited lines, or one JSON object with --json, all
numbers as decimal strings); diagnostics go to stderr.  Exit codes: 0 ok,
1 verification failure, 2 parse error, 3 domain error, 4 degenerate divisor.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .bell import SizeLimit
from .kernel import (
    DomainError,
    Poly,
    scalar_from_str,
    scalar_to_str,
    value_to_json,
)
from .lucas import UnknownFamily, lucas_transform
from .oracle import UNDERDETERMINED, NoSolution, char_poly_of_power, fit_recurrence, verify_recurrence
from .progression import gamma_coefficients, subseq_recurrence
from .recurrence import CoeffVector, InvalidCoeffs, RecurrenceSpec, _stride_terms, seq_eval, seq_range
from .sequences import UnknownName, catalog_get, catalog_names
from .sums import DegenerateDivisor, partial_sum_closed, partial_sum_form

_MAX_DEPTH = 10_000
_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")
_NEGATIVE = re.compile(r"^-\d")


def _fmt(value) -> str:
    """One deterministic text form for any exact value."""
    if isinstance(value, Poly):
        return str(value)
    return scalar_to_str(value)


def _scalars(parser: argparse.ArgumentParser, text: str, what: str) -> tuple:
    try:
        return tuple(scalar_from_str(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError):
        parser.error(f"cannot parse {what} {text!r}: expected comma-separated integers or p/q")


def _coeff_vector(parser: argparse.ArgumentParser, args) -> CoeffVector:
    """Coefficients from --coeffs, --catalog, or --symbolic/--d."""
    if getattr(args, "symbolic", False):
        if args.coeffs not in (None, "c"):
            parser.error("--symbolic takes coefficients as variables; use --d (and at most --coeffs c)")
        if args.d is None:
            parser.error("--symbolic needs --d to fix the order")
        if args.d < 1:
            parser.error("--d must be at least 1")
        return CoeffVector(Poly.variables(args.d))
    if args.catalog is not None:
        return catalog_get(args.catalog).spec.coeffs
    if args.coeffs is None:
        parser.error("need --coeffs or --catalog")
    try:
        return CoeffVector(_scalars(parser, args.coeffs, "--coeffs"))
    except InvalidCoeffs as exc:
        parser.error(str(exc))


def _spec(parser: argparse.ArgumentParser, args) -> RecurrenceSpec:
    """Full spec from --coeffs/--init or --catalog."""
    if args.catalog is not None:
        if args.init is not None:
            parser.error("--init only applies to inline --coeffs")
        return catalog_get(args.catalog).spec
    if args.coeffs is None:
        parser.error("need --coeffs with --init, or --catalog")
    if args.init is None:
        parser.error("inline --coeffs needs matching --init")
    try:
        return RecurrenceSpec(
            CoeffVector(_scalars(parser, args.coeffs, "--coeffs")),
            _scalars(parser, args.init, "--init"),
        )
    except InvalidCoeffs as exc:
        parser.error(str(exc))


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(parser, args) -> int:
    spec = _spec(parser, args)
    if (args.n is None) == (args.range is None):
        parser.error("eval needs exactly one of --n or --range")
    if args.n is not None:
        value = seq_eval(spec, args.n)
        _emit(args, [_fmt(value)], {"command": "eval", "n": args.n, "value": value_to_json(value)})
        return 0
    match = _RANGE.match(args.range)
    if not match:
        parser.error(f"cannot parse --range {args.range!r}: expected A..B")
    lo, hi = int(match.group(1)), int(match.group(2))
    terms = seq_range(spec, lo, hi)
    _emit(
        args,
        [f"{lo + i}\t{_fmt(t)}" for i, t in enumerate(terms)],
        {"command": "eval", "from": lo, "to": hi, "terms": [value_to_json(t) for t in terms]},
    )
    return 0


def _cmd_lucas(parser, args) -> int:
    coeffs = _coeff_vector(parser, args)
    if args.N is None:
        parser.error("lucas needs --N")
    terms = lucas_transform(coeffs, args.N).terms
    _emit(
        args,
        [f"{n}\t{_fmt(t)}" for n, t in enumerate(terms)],
        {"command": "lucas", "N": args.N, "terms": [value_to_json(t) for t in terms]},
    )
    return 0


def _cmd_gamma(parser, args) -> int:
    coeffs = _coeff_vector(parser, args)
    if args.m is None:
        parser.error("gamma needs --m")
    gv = gamma_coefficients(coeffs, args.m)
    _emit(
        args,
        [f"{k}\t{_fmt(g)}" for k, g in enumerate(gv.gamma, start=1)],
        {
            "command": "gamma",
            "m": gv.m,
            "d": gv.d,
            "gamma": [value_to_json(g) for g in gv.gamma],
        },
    )
    return 0


def _sum_lines(prefix_pairs, form, value) -> list[str]:
    lines = [f"sum\t{_fmt(value)}"]
    lines += [f"{name}\t{text}" for name, text in prefix_pairs]
    lines += [
        f"divisor\t{_fmt(form.divisor)}",
        "weights\t" + " ".join(_fmt(w) for w in form.weights),
        f"constant\t{_fmt(form.constant)}",
    ]
    return lines


def _cmd_sum(parser, args) -> int:
    spec = _spec(parser, args)
    if args.n is None:
        parser.error("sum needs --n")
    form = partial_sum_form(spec)
    value = partial_sum_closed(spec, args.n)
    _emit(
        args,
        _sum_lines([], form, value),
        {
            "command": "sum",
            "n": args.n,
            "sum": value_to_json(value),
            "divisor": value_to_json(form.divisor),
            "weights": [value_to_json(w) for w in form.weights],
            "constant": value_to_json(form.constant),
        },
    )
    return 0


def _cmd_subsum(parser, args) -> int:
    spec = _spec(parser, args)
    if args.m is None or args.n is None:
        parser.error("subsum needs --m and --n")
    sub = subseq_recurrence(spec, args.m, args.r)
    form = partial_sum_form(sub)
    value = partial_sum_closed(sub, args.n)
    gamma_text = " ".join(_fmt(g) for g in sub.coeffs.c)
    _emit(
        args,
        _sum_lines([("gamma", gamma_text)], form, value),
        {
            "command": "subsum",
            "m": args.m,
            "r": args.r,
            "n": args.n,
            "sum": value_to_json(value),
            "gamma": [value_to_json(g) for g in sub.coeffs.c],
            "divisor": value_to_json(form.divisor),
            "weights": [value_to_json(w) for w in form.weights],
            "constant": value_to_json(form.constant),
        },
    )
    return 0


def _verify_one(name: str, spec: RecurrenceSpec, m: int, r: int, depth: int) -> dict:
    """Four-way agreement: Bell route, charpoly route, direct check, re-fit."""
    gv = gamma_coefficients(spec.coeffs, m, cross_check=True)
    oracle_coeffs = char_poly_of_power(spec.coeffs, m)
    charpoly_agree = gv.coeffs == oracle_coeffs
    d = spec.order
    sub_terms = _stride_terms(spec.coeffs.c, spec.initial, m, r, depth)
    violations = verify_recurrence(sub_terms, gv.coeffs) if depth > d else []
    if depth >= 2 * d:
        try:
            fitted = fit_recurrence(sub_terms, d)
        except NoSolution:
            fitted = None
        if fitted is UNDERDETERMINED:
            fit_state = "underdetermined"
        elif fitted is None:
            fit_state = "mismatch"
        else:
            fit_state = "agree" if fitted == gv.coeffs else "mismatch"
    else:
        fit_state = "skipped"
    passed = charpoly_agree and not violations and fit_state != "mismatch"
    return {
        "name": name,
        "m": m,
        "r": r,
        "depth": depth,
        "gamma": [value_to_json(g) for g in gv.gamma],
        "charpoly": "agree" if charpoly_agree else "mismatch",
        "violations": violations,
        "fit": fit_state,
        "result": "PASS" if passed else "FAIL",
    }


def _verify_lines(report: dict) -> list[str]:
    check = "ok" if not report["violations"] else "violations at " + ",".join(
        str(n) for n in report["violations"]
    )
    return [
        f"name\t{report['name']}",
        f"gamma\t" + " ".join(
            v if isinstance(v, str) else json.dumps(v) for v in report["gamma"]
        ),
        f"charpoly\t{report['charpoly']}",
        f"recurrence\t{check} ({report['depth']} terms)",
        f"fit\t{report['fit']}",
        f"result\t{report['result']}",
    ]


def _cmd_verify(parser, args) -> int:
    if args.m is None:
        parser.error("verify needs --m")
    if not 1 <= args.depth <= _MAX_DEPTH:
        parser.error(f"--depth must be in 1..{_MAX_DEPTH}")
    if args.all_catalog:
        if args.coeffs or args.catalog or args.init:
            parser.error("--all-catalog replaces --coeffs/--init/--catalog")
        reports = []
        for name in catalog_names():
            if "(" in name:  # family templates are not concrete entries
                continue
            entry = catalog_get(name)
            reports.append(_verify_one(name, entry.spec, args.m, args.r, args.depth))
        lines = []
        for rep in reports:
            lines.extend(_verify_lines(rep))
        _emit(args, lines, {"command": "verify", "reports": reports})
        return 0 if all(r["result"] == "PASS" for r in reports) else 1
    spec = _spec(parser, args)
    name = args.catalog if args.catalog is not None else "inline"
    report = _verify_one(name, spec, args.m, args.r, args.depth)
    _emit(args, _verify_lines(report), {"command": "verify", "reports": [report]})
    return 0 if report["result"] == "PASS" else 1


def _cmd_catalog(parser, args) -> int:
    lines = []
    records = []
    for name in catalog_names():
        if "(" in name:
            lines.append(f"{name}\t-\t-\t(family)")
            records.append({"name": name, "family": True})
            continue
        entry = catalog_get(name)
        coeffs = ",".join(_fmt(c) for c in entry.spec.coeffs.c)
        lines.append(f"{name}\t{entry.oeis or '-'}\t{entry.spec.order}\t{coeffs}")
        records.append(
            {
                "name": entry.name,
                "oeis": entry.oeis,
                "order": entry.spec.order,
                "coeffs": [value_to_json(c) for c in entry.spec.coeffs.c],
                "initial": [value_to_json(a) for a in entry.spec.initial],
                "prefix": [value_to_json(p) for p in entry.prefix],
                "hat_of": entry.hat_of,
                "notes": entry.notes,
            }
        )
    _emit(args, lines, {"command": "catalog", "entries": records})
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_spec_flags(sub: argparse.ArgumentParser, init: bool = True) -> None:
    sub.add_argument("--coeffs", help="comma-separated coefficients c1..cd (ints or p/q)")
    if init:
        sub.add_argument("--init", help="comma-separated initial terms a0..a(d-1)")
    sub.add_argument("--catalog", help="use a catalog entry instead of inline values")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="linrec",
        description="Exact linear-recurrence toolkit: terms, trace sequences, "
        "subsequence recurrences, and closed-form partial sums.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate sequence terms")
    _add_spec_flags(p)
    p.add_argument("--n", type=int, help="single term index")
    p.add_argument("--range", help="inclusive index range A..B")
    p.set_defaults(handler=_cmd_eval)

    p = subs.add_parser("lucas", help="trace sequence of the coefficients")
    _add_spec_flags(p, init=False)
    p.add_argument("--N", type=int, help="last index to print")
    p.set_defaults(handler=_cmd_lucas)

    p = subs.add_parser("gamma", help="subsequence recurrence coefficients for stride m")
    _add_spec_flags(p, init=False)
    p.add_argument("--m", type=int, help="stride")
    p.add_argument("--symbolic", action="store_true", help="treat c1..cd as variables")
    p.add_argument("--d", type=int, help="order (with --symbolic)")
    p.set_defaults(handler=_cmd_gamma)

    p = subs.add_parser("sum", help="closed-form partial sum of the sequence")
    _add_spec_flags(p)
    p.add_argument("--n", type=int, help="sum over indices 0..n")
    p.set_defaults(handler=_cmd_sum)

    p = subs.add_parser("subsum", help="closed-form partial sum along a progression")
    _add_spec_flags(p)
    p.add_argument("--m", type=int, help="stride")
    p.add_argument("--r", type=int, default=0, help="offset (default 0)")
    p.add_argument("--n", type=int, help="sum over subsequence indices 0..n")
    p.set_defaults(handler=_cmd_subsum)

    p = subs.add_parser("verify", help="cross-check the subsequence recurrence four ways")
    _add_spec_flags(p)
    p.add_argument("--m", type=int, help="stride")
    p.add_argument("--r", type=int, default=0, help="offset (default 0)")
    p.add_argument("--depth", type=int, default=40, help="subsequence terms to check (default 40)")
    p.add_argument("--all-catalog", action="store_true", help="verify every fixed catalog entry")
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("catalog", help="list the registered sequences")
    p.set_defaults(handler=_cmd_catalog)

    for sub in subs.choices.values():
        sub.add_argument("--json", action="store_true", help="one JSON object on stdout")

    return parser


def _glue_lists(argv: list[str]) -> list[str]:
    """Rewrite ``--coeffs -1,2`` as ``--coeffs=-1,2``: argparse reads a bare -1,2 as an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--coeffs", "--init") and _NEGATIVE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    # exact terms grow huge; printing them is the point, so drop the
    # interpreter's int-to-str digit guard for this process
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(_glue_lists(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.handler(parser, args)
    except DegenerateDivisor as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, InvalidCoeffs, UnknownName, UnknownFamily, SizeLimit, NoSolution) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
