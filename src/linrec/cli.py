"""Command-line front end.

Subcommands: eval, lucas, gamma, sum, subsum, verify, catalog.  stdout
carries data only (tab-delimited lines, or one JSON object with --json, all
numbers as decimal strings); diagnostics go to stderr.  Exit codes: 0 ok,
1 verification failure, 2 parse error, 3 domain error, 4 degenerate divisor.

The parser holds the parse rules: the flags each subcommand requires, one
source per call, and the conversion of --coeffs, --init and --range, so a
malformed call exits 2 before any work.  The library holds the range rules:
an argument outside its domain raises DomainError, which exits 3.

Each subcommand builds one record of the library's results and prints it
once.  Every ring value in it is converted once, when the record is built:
to its JSON payload with --json, else to its text form.  The JSON output is
the record itself; the text lines are read off that same record.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .kernel import DomainError, Poly, _check_index, scalar_from_str, scalar_to_str, value_to_json
from .lucas import lucas_transform
from .progression import SliceReport, gamma_coefficients, subseq_recurrence, verify_slice
from .recurrence import CoeffVector, InvalidCoeffs, RecurrenceSpec, seq_eval, seq_range
from .sequences import UnknownName, catalog_get, catalog_names
from .sums import DegenerateDivisor, _check_divisor, partial_sum_closed, partial_sum_form

_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")
_NEGATIVE = re.compile(r"^-\d")


def _fmt(value) -> str:
    """One deterministic text form for any exact value."""
    if isinstance(value, Poly):
        return str(value)
    return scalar_to_str(value)


def _scalars(text: str) -> tuple:
    """--init, and --coeffs before its own check: comma-separated integers or p/q."""
    try:
        return tuple(scalar_from_str(tok) for tok in text.split(","))
    except ValueError:  # scalar_from_str's DomainError
        raise argparse.ArgumentTypeError(
            f"cannot parse {text!r}: expected comma-separated integers or p/q"
        ) from None


def _coeffs(text: str) -> CoeffVector:
    """--coeffs: a checked coefficient vector c1..cd."""
    try:
        return CoeffVector(_scalars(text))
    except InvalidCoeffs as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _index_range(text: str) -> tuple[int, int]:
    """--range: an inclusive index range A..B."""
    match = _RANGE.match(text)
    if not match:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}: expected A..B")
    return int(match.group(1)), int(match.group(2))


def _coeff_vector(args) -> CoeffVector:
    """Coefficients from --coeffs or --catalog."""
    if args.catalog is not None:
        return catalog_get(args.catalog).spec.coeffs
    return args.coeffs


def _spec(args) -> RecurrenceSpec:
    """Full spec from --coeffs/--init or --catalog."""
    if args.catalog is not None:
        return catalog_get(args.catalog).spec
    if args.init is None:
        args.parser.error("inline --coeffs needs matching --init")
    try:
        return RecurrenceSpec(args.coeffs, args.init)
    except InvalidCoeffs as exc:
        args.parser.error(str(exc))


def _print_record(args, record: dict, lines) -> None:
    """Print the record: as one JSON object with --json, else as the text lines read off it."""
    print(json.dumps(record) if args.json else "\n".join(lines(record)))


def _render(args):
    """The one conversion each ring value gets: its JSON payload with --json, else its text."""
    return value_to_json if args.json else _fmt


def _indexed(values, start: int) -> list[str]:
    return [f"{i}\t{v}" for i, v in enumerate(values, start)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    spec = _spec(args)
    render = _render(args)
    if args.n is not None:
        record = {"command": "eval", "n": args.n, "value": render(seq_eval(spec, args.n))}
        _print_record(args, record, lambda rec: [rec["value"]])
        return 0
    lo, hi = args.range
    terms = [render(t) for t in seq_range(spec, lo, hi)]
    record = {"command": "eval", "from": lo, "to": hi, "terms": terms}
    _print_record(args, record, lambda rec: _indexed(rec["terms"], rec["from"]))
    return 0


def _cmd_lucas(args) -> int:
    coeffs = _coeff_vector(args)
    render = _render(args)
    terms = [render(t) for t in lucas_transform(coeffs, args.N).terms]
    record = {"command": "lucas", "N": args.N, "terms": terms}
    _print_record(args, record, lambda rec: _indexed(rec["terms"], 0))
    return 0


def _cmd_gamma(args) -> int:
    if args.symbolic != (args.d is not None):
        args.parser.error("--symbolic needs --d to fix the order, and --d needs --symbolic")
    coeffs = CoeffVector(Poly.variables(args.d)) if args.symbolic else _coeff_vector(args)
    gv = gamma_coefficients(coeffs, args.m)
    render = _render(args)
    record = {"command": "gamma", "m": gv.m, "d": gv.d, "gamma": [render(g) for g in gv.gamma]}
    _print_record(args, record, lambda rec: _indexed(rec["gamma"], 1))
    return 0


def _sum_record(args, spec: RecurrenceSpec, head: dict) -> dict:
    """The closed partial sum of spec over 0..--n and its form, after the head fields.

    The form comes first, so a degenerate spec exits 4 before --n is
    checked; subsum also lists its slice's gamma.
    """
    render = _render(args)
    form = partial_sum_form(spec)
    record = {**head, "n": args.n, "sum": render(partial_sum_closed(spec, args.n))}
    if head["command"] == "subsum":
        record["gamma"] = [render(g) for g in spec.coeffs.c]
    record["divisor"] = render(form.divisor)
    record["weights"] = [render(w) for w in form.weights]
    record["constant"] = render(form.constant)
    return record


def _sum_lines(record: dict) -> list[str]:
    return [
        f"{key}\t{' '.join(value) if isinstance(value, list) else value}"
        for key, value in record.items()
        if key in ("sum", "gamma", "divisor", "weights", "constant")
    ]


def _cmd_sum(args) -> int:
    spec = _spec(args)
    _print_record(args, _sum_record(args, spec, {"command": "sum"}), _sum_lines)
    return 0


def _cmd_subsum(args) -> int:
    spec = _spec(args)
    # as in progression_sum: the indices, then the base q(1), whose zero makes the slice's zero: exit 4 before the slice
    _check_index(args.r, "r")
    _check_index(args.m, "m", 1)
    _check_divisor(spec.coeffs.c)
    sub = subseq_recurrence(spec, args.m, args.r)
    record = _sum_record(args, sub, {"command": "subsum", "m": args.m, "r": args.r})
    _print_record(args, record, _sum_lines)
    return 0


def _verify_record(name: str, report: SliceReport, render) -> dict:
    return {
        "name": name,
        "m": report.m,
        "r": report.r,
        "depth": report.depth,
        "gamma": [render(g) for g in report.gamma.gamma],
        "charpoly": "agree" if report.charpoly_agree else "mismatch",
        "violations": list(report.violations),
        "fit": report.fit,
        "result": "PASS" if report.passed else "FAIL",
    }


def _verify_lines(record: dict) -> list[str]:
    lines = []
    for report in record["reports"]:
        check = "ok" if not report["violations"] else "violations at " + ",".join(
            str(n) for n in report["violations"]
        )
        lines += [
            f"name\t{report['name']}",
            f"gamma\t{' '.join(report['gamma'])}",
            f"charpoly\t{report['charpoly']}",
            f"recurrence\t{check} ({report['depth']} terms)",
            f"fit\t{report['fit']}",
            f"result\t{report['result']}",
        ]
    return lines


def _cmd_verify(args) -> int:
    if args.all_catalog:
        # family templates are not concrete entries
        specs = [(name, catalog_get(name).spec) for name in catalog_names() if "(" not in name]
    else:
        specs = [(args.catalog if args.catalog is not None else "inline", _spec(args))]
    render = _render(args)
    reports = [
        _verify_record(name, verify_slice(spec, args.m, args.r, args.depth), render) for name, spec in specs
    ]
    _print_record(args, {"command": "verify", "reports": reports}, _verify_lines)
    return 0 if all(report["result"] == "PASS" for report in reports) else 1


def _catalog_lines(record: dict) -> list[str]:
    return [
        f"{e['name']}\t-\t-\t(family)"
        if e.get("family")
        else f"{e['name']}\t{e['oeis'] or '-'}\t{e['order']}\t{','.join(e['coeffs'])}"
        for e in record["entries"]
    ]


def _cmd_catalog(args) -> int:
    render = _render(args)
    records = []
    for name in catalog_names():
        if "(" in name:
            records.append({"name": name, "family": True})
            continue
        entry = catalog_get(name)
        records.append(
            {
                "name": entry.name,
                "oeis": entry.oeis,
                "order": entry.spec.order,
                "coeffs": [render(c) for c in entry.spec.coeffs.c],
                "initial": [render(a) for a in entry.spec.initial],
                "prefix": [render(p) for p in entry.prefix],
                "hat_of": entry.hat_of,
                "notes": entry.notes,
            }
        )
    _print_record(args, {"command": "catalog", "entries": records}, _catalog_lines)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_spec_flags(sub: argparse.ArgumentParser, init: bool = True, other: tuple = ()) -> None:
    """The required source group, --coeffs | --catalog plus an optional (flag, help) switch; then --init."""
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--coeffs", type=_coeffs, help="comma-separated coefficients c1..cd (ints or p/q)")
    source.add_argument("--catalog", help="use a catalog entry instead of inline values")
    if other:
        source.add_argument(other[0], action="store_true", help=other[1])
    if init:
        sub.add_argument("--init", type=_scalars, help="comma-separated initial terms a0..a(d-1)")


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
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=int, help="single term index")
    which.add_argument("--range", type=_index_range, help="inclusive index range A..B")
    p.set_defaults(handler=_cmd_eval)

    p = subs.add_parser("lucas", help="trace sequence of the coefficients")
    _add_spec_flags(p, init=False)
    p.add_argument("--N", type=int, required=True, help="last index to print")
    p.set_defaults(handler=_cmd_lucas)

    p = subs.add_parser("gamma", help="subsequence recurrence coefficients for stride m")
    _add_spec_flags(p, init=False, other=("--symbolic", "treat c1..cd as variables"))
    p.add_argument("--m", type=int, required=True, help="stride")
    p.add_argument("--d", type=int, help="order (with --symbolic)")
    p.set_defaults(handler=_cmd_gamma)

    p = subs.add_parser("sum", help="closed-form partial sum of the sequence")
    _add_spec_flags(p)
    p.add_argument("--n", type=int, required=True, help="sum over indices 0..n")
    p.set_defaults(handler=_cmd_sum)

    p = subs.add_parser("subsum", help="closed-form partial sum along a progression")
    _add_spec_flags(p)
    p.add_argument("--m", type=int, required=True, help="stride")
    p.add_argument("--r", type=int, default=0, help="offset (default 0)")
    p.add_argument("--n", type=int, required=True, help="sum over subsequence indices 0..n")
    p.set_defaults(handler=_cmd_subsum)

    p = subs.add_parser("verify", help="cross-check the subsequence recurrence four ways")
    _add_spec_flags(p, other=("--all-catalog", "verify every fixed catalog entry"))
    p.add_argument("--m", type=int, required=True, help="stride")
    p.add_argument("--r", type=int, default=0, help="offset (default 0)")
    p.add_argument("--depth", type=int, default=40, help="subsequence terms to check (default 40)")
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("catalog", help="list the registered sequences")
    p.set_defaults(handler=_cmd_catalog)

    for sub in subs.choices.values():
        sub.add_argument("--json", action="store_true", help="one JSON object on stdout")
        sub.set_defaults(parser=sub)  # errors found after parsing report against the subcommand

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
    args = build_parser().parse_args(_glue_lists(sys.argv[1:] if argv is None else list(argv)))
    if getattr(args, "init", None) is not None and args.coeffs is None:
        args.parser.error("--init only applies to inline --coeffs")
    try:
        return args.handler(args)
    except DegenerateDivisor as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, InvalidCoeffs, UnknownName) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
