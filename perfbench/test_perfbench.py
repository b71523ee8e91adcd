"""Tests of the benchmark's own checks: each rejects a corrupted result.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import ast
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
sys.set_int_max_str_digits(0)

import linrec  # noqa: E402
from linrec import CoeffVector, GammaVector, Poly, RecurrenceSpec  # noqa: E402

import check as ck  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _rng(seed=7):
    import random

    return random.Random(seed)


def _drop_term(p):
    """The polynomial with its first term left out."""
    return Poly(p.nvars, dict(list(p.terms.items())[1:]))


def _bump_gamma(gv: GammaVector, k=0) -> GammaVector:
    g = list(gv.gamma)
    g[k] = g[k] + 1
    return GammaVector(m=gv.m, coeffs=CoeffVector(tuple(g)))


def test_checker_does_not_import_linrec():
    tree = ast.parse((HERE / "check.py").read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "linrec"]


@pytest.mark.parametrize("seed", range(40))
def test_checker_routes_agree_with_each_other(seed):
    rng = _rng(seed)
    d = rng.randint(1, 5)
    c = tuple(rng.choice((-2, -1, 0, 1, 2, Fraction(1, 2))) for _ in range(d - 1)) + (
        rng.choice((-1, 1, 2, Fraction(3, 2))),
    )
    init = tuple(rng.randint(-3, 3) for _ in range(d))
    n, m, r = rng.randint(0, 60), rng.randint(1, 7), rng.randint(0, 5)
    walked = ck.walk(c, init, m * n + r + 2 * d * m)
    assert ck.term(c, init, n) == walked[n]
    assert ck.slice_terms(c, init, m, r, 2 * d) == walked[r::m][: 2 * d]
    assert ck.slice_sum(c, init, m, r, n) == sum(walked[r : m * n + r + 1 : m])
    g = ck.slice_coeffs(c, m)
    assert g[-1] == ck.trailing(c, m)
    assert ck.annihilates(g, walked[r::m])


@pytest.mark.parametrize("name", ["far_terms", "wide_strides"])
def test_large_slots_cost_the_same_on_every_seed(name):
    """The seed picks specs and offsets, never a large slot's index or stride."""

    def sizes(seed):
        return [re.sub(r" r=\d+", "", op.label) for op in wl.build(name, seed)]

    assert sizes(1) == sizes(2) == sizes(3)
    for d, g0 in wl.GROWTH.items():
        c, _, g = wl.draw_sized(_rng(d), d)
        assert g == g0 and abs(wl.growth(c) / g0 - 1) <= wl.GROWTH_TOL


def test_term_off_by_one_is_rejected():
    rng = _rng()
    c, init, g = wl.draw_spec(rng, 3)
    op = wl.op_seq_eval(c, init, 5000)
    good = op.call()
    assert op.check(good) and not op.check(good + 1)
    op = wl.op_seq_range(c, init, 10, 200)
    terms = op.call()
    assert op.check(terms)
    terms[57] += 1
    assert not op.check(terms)
    op = wl.op_partial_sum(c, init, 300)
    assert op.check(op.call()) and not op.check(op.call() - 1)
    op = wl.op_cli_eval((c, init), span=(3, 40), as_json=True)
    code, text = op.call()
    assert op.check((code, text))
    corrupted = text.replace(f'"{ck.term(c, init, 20)}"', f'"{ck.term(c, init, 20) + 1}"')
    assert corrupted != text and not op.check((code, corrupted))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_gamma_off_by_one_is_rejected(k):
    rng = _rng(k)
    c, init, _ = wl.draw_spec(rng, 3)
    op = wl.op_gamma(rng, c, init, 1500)
    gv = op.call()
    assert op.check(gv) and not op.check(_bump_gamma(gv, k))
    op = wl.op_subseq(rng, c, init, 40, 3)
    spec = op.call()
    g = list(spec.coeffs.c)
    g[k] += 1
    assert op.check(spec) and not op.check(RecurrenceSpec(CoeffVector(tuple(g)), spec.initial))
    op = wl.op_symbolic_gamma(rng, 3, 4)
    gv = op.call()
    assert op.check(gv) and not op.check(_bump_gamma(gv, k))


def test_cli_gamma_off_by_one_is_rejected():
    rng = _rng()
    c, init, _ = wl.draw_spec(rng, 2)
    op = wl.op_cli_gamma(rng, c, init, 6, as_json=False)
    code, text = op.call()
    assert op.check((code, text))
    first, _, rest = text.partition("\n")
    k, value = first.split("\t")
    assert not op.check((code, f"{k}\t{int(value) + 1}\n{rest}"))


def test_dropped_poly_term_is_rejected():
    rng = _rng()
    for op in (wl.op_symbolic_gamma(rng, 4, 3), wl.op_symbolic_charpoly(rng, 4, 3)):
        got = op.call()
        assert op.check(got)
        polys = list(got.gamma if isinstance(got, GammaVector) else got.c)
        for k in range(len(polys) - 1):  # g_d is one monomial; dropping it leaves no recurrence
            corrupted = polys.copy()
            corrupted[k] = _drop_term(corrupted[k])
            vector = CoeffVector(tuple(corrupted))
            assert not op.check(GammaVector(m=3, coeffs=vector) if isinstance(got, GammaVector)
                                else vector)
    op = wl.op_symbolic_range(rng, 2, 12)
    terms = op.call()
    assert op.check(terms)
    terms[9] = _drop_term(terms[9])
    assert not op.check(terms)


def test_same_seed_same_inputs():
    for name in wl.WORKLOADS:
        labels = [op.label for op in wl.build(name, 11)]
        assert labels == [op.label for op in wl.build(name, 11)]
    assert [op.label for op in wl.build("far_terms", 11)] != [
        op.label for op in wl.build("far_terms", 12)
    ]


def test_corrupted_results_count_as_failed(monkeypatch):
    ops = wl.build("small_calls", 3)
    clean = run.Tally(ops)
    clean.round(clean.new_times())
    assert clean.attempted == len(ops) and clean.failed == 0

    real = linrec.progression.gamma_coefficients

    def off_by_one(coeffs, m, **kwargs):
        return _bump_gamma(real(coeffs, m, **kwargs))

    for module in (linrec.progression, linrec.cli):
        monkeypatch.setattr(module, "gamma_coefficients", off_by_one)
    bad = run.Tally(ops)
    bad.round(bad.new_times())
    assert bad.attempted == len(ops)
    # most corrupted outputs are caught by a check; a few make a later step raise
    assert 0 < bad.wrong <= bad.failed < len(ops)


def test_tracer_sees_imported_names_and_restores_them():
    from spans import Tracer

    spec = RecurrenceSpec(CoeffVector((1, 1, 1)), (0, 0, 1))
    originals = (linrec.recurrence.seq_range, linrec.sums.seq_range, Poly.__mul__)
    tracer = Tracer()
    tracer.install(linrec)
    try:
        start = time.perf_counter_ns()
        linrec.sums.partial_sum_closed(spec, 50)
        linrec.progression.gamma_coefficients(Poly.variables(2), 3)
        wall = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    assert (linrec.recurrence.seq_range, linrec.sums.seq_range, Poly.__mul__) == originals
    assert tracer.calls["recurrence.seq_range"] == 1  # reached through sums' own import
    assert tracer.counts["recurrence.seq_range.terms"] == 51
    assert tracer.calls["kernel.Poly.mul"] > 0 and tracer.counts["kernel.Poly.terms_out"] > 0
    assert all(ns >= 0 for ns in tracer.self_ns.values())
    # counted in both caller and callee, nested spans would push the sum past the wall time
    assert tracer.total_self_s() * 1e9 <= wall
