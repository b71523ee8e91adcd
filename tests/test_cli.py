import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import linrec
from linrec import cli
from linrec.kernel import scalar_from_str
from linrec.lucas import lucas_transform
from linrec.progression import gamma_coefficients
from linrec.recurrence import seq_eval


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEval:
    def test_single(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--coeffs", "1,1", "--init", "0,1", "--n", "10")
        assert code == 0
        assert out.strip() == "55"

    def test_range(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--catalog", "tribonacci", "--range", "0..5")
        assert code == 0
        lines = [tuple(l.split("\t")) for l in out.strip().splitlines()]
        assert lines == [("0", "0"), ("1", "0"), ("2", "1"), ("3", "1"), ("4", "2"), ("5", "4")]

    def test_json(self, capsys):
        from linrec import CoeffVector, RecurrenceSpec

        code, out, _ = run_cli(capsys, "eval", "--coeffs", "1,1", "--init", "0,1", "--n", "80", "--json")
        blob = json.loads(out)
        assert code == 0
        fib = RecurrenceSpec(CoeffVector((1, 1)), (0, 1))
        assert scalar_from_str(blob["value"]) == seq_eval(fib, 80)
        assert blob["value"] == "23416728348467685"

    def test_rational_input(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--coeffs", "1/2,1/2", "--init", "0,1", "--n", "4")
        assert code == 0
        assert out.strip() == "5/8"

    def test_negative_lists(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--coeffs", "-1,2", "--init", "0,1", "--n", "5")
        assert code == 0
        assert out == "11\n"
        code, out, _ = run_cli(capsys, "eval", "--coeffs", "1,1", "--init", "-1/2,1", "--n", "2")
        assert code == 0
        assert out == "1/2\n"

    def test_catalog_family(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--catalog", "k_fibonacci(2)", "--n", "6")
        assert code == 0
        assert out.strip() == "70"


class TestLucas:
    def test_terms(self, capsys):
        code, out, _ = run_cli(capsys, "lucas", "--coeffs", "1,1,1", "--N", "13")
        assert code == 0
        values = [int(l.split("\t")[1]) for l in out.strip().splitlines()]
        assert tuple(values) == lucas_transform((1, 1, 1), 13).terms

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "lucas", "--coeffs", "2,1,-2,-1", "--N", "10", "--json")
        blob = json.loads(out)
        got = tuple(scalar_from_str(v) for v in blob["terms"])
        assert got == lucas_transform((2, 1, -2, -1), 10).terms


class TestGamma:
    def test_numeric(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--coeffs", "2,1,-2,-1", "--m", "3")
        assert code == 0
        got = tuple(int(l.split("\t")[1]) for l in out.strip().splitlines())
        assert got == (8, -14, -8, -1)

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--catalog", "narayana", "--m", "3", "--json")
        blob = json.loads(out)
        assert [scalar_from_str(v) for v in blob["gamma"]] == [4, -3, 1]

    def test_symbolic(self, capsys):
        from linrec import Poly

        code, out, _ = run_cli(capsys, "gamma", "--symbolic", "--d", "2", "--m", "3")
        assert code == 0
        lines = out.strip().splitlines()
        want = gamma_coefficients(tuple(Poly.variables(2)), 3).gamma
        assert lines[0].split("\t")[1] == str(want[0])
        assert lines[1].split("\t")[1] == str(want[1])

    def test_symbolic_json(self, capsys):
        from linrec import Poly
        from linrec.kernel import value_from_json

        code, out, _ = run_cli(capsys, "gamma", "--symbolic", "--d", "3", "--m", "2", "--json")
        blob = json.loads(out)
        got = tuple(value_from_json(v) for v in blob["gamma"])
        assert got == gamma_coefficients(tuple(Poly.variables(3)), 2).gamma


class TestSums:
    def test_sum(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--catalog", "fibonacci", "--n", "10")
        assert code == 0
        rows = dict(l.split("\t", 1) for l in out.strip().splitlines())
        assert rows["sum"] == "143"
        assert rows["divisor"] == "-1"
        assert rows["weights"] == "0 -1"
        assert rows["constant"] == "1"

    def test_subsum(self, capsys):
        code, out, _ = run_cli(capsys, "subsum", "--catalog", "tribonacci", "--m", "5", "--r", "2", "--n", "6")
        rows = dict(l.split("\t", 1) for l in out.strip().splitlines())
        assert rows["sum"] == "56481308"
        assert rows["gamma"] == "21 1 1"
        assert rows["divisor"] == "-22"
        assert rows["weights"] == "21 20 -1"
        assert rows["constant"] == "-7"

    def test_subsum_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "subsum", "--catalog", "tribonacci", "--m", "5", "--r", "2", "--n", "6", "--json"
        )
        blob = json.loads(out)
        assert blob["sum"] == "56481308"
        assert blob["gamma"] == ["21", "1", "1"]

    def test_degenerate_exit_four(self, capsys):
        # the form is built before n is checked, so a degenerate spec exits 4 whatever n is
        for n in ("5", "-1"):
            code, out, err = run_cli(capsys, "sum", "--coeffs", "2,-1", "--init", "0,1", f"--n={n}")
            assert code == 4
            assert out == ""
            assert err.strip()

    def test_degenerate_subsequence(self, capsys):
        code, _, err = run_cli(capsys, "subsum", "--coeffs", "1,-1", "--init", "1,2", "--m", "6", "--r", "0", "--n", "5")
        assert code == 4
        assert err.strip()

    def test_degenerate_base_exits_before_the_slice(self, capsys, monkeypatch):
        # q(1) = 0 for the base is checked first, as progression_sum does: the slice is never built
        built = []
        real = cli.subseq_recurrence
        monkeypatch.setattr(cli, "subseq_recurrence", lambda *a: built.append(a) or real(*a))
        code, out, err = run_cli(capsys, "subsum", "--coeffs", "2,-1", "--init", "0,1", "--m", "3", "--n", "5")
        assert (code, out, built) == (4, "", [])
        assert err == "error: q(1) = 0 for these coefficients; sum the terms directly instead\n"
        # a bad index still exits 3 before the divisor, and a base with q(1) != 0 reaches its slice's own divisor
        code, _, err = run_cli(capsys, "subsum", "--coeffs", "2,-1", "--init", "0,1", "--m", "0", "--n", "5")
        assert (code, err, built) == (3, "error: expected an int m >= 1, got 0\n", [])
        code, out, err = run_cli(capsys, "subsum", "--coeffs", "1,-1", "--init", "0,1", "--m", "6", "--n", "5")
        assert (code, out, len(built)) == (4, "", 1)
        assert err == "error: q(1) = 0 for these coefficients; sum the terms directly instead\n"


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--catalog", "narayana", "--m", "3")
        assert code == 0
        rows = dict(l.split("\t", 1) for l in out.strip().splitlines())
        assert rows["result"] == "PASS"
        assert rows["charpoly"] == "agree"
        assert rows["fit"] == "agree"

    def test_all_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all-catalog", "--m", "2", "--depth", "30")
        assert code == 0
        results = [l.split("\t")[1] for l in out.strip().splitlines() if l.startswith("result")]
        assert results and all(r == "PASS" for r in results)

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--coeffs", "1,0,1", "--init", "1,1,1", "--m", "3", "--json")
        blob = json.loads(out)
        report = blob["reports"][0]
        assert report["result"] == "PASS"
        assert report["violations"] == []
        assert [scalar_from_str(v) for v in report["gamma"]] == [4, -3, 1]


# stdout of every subcommand, text and --json; each case was recorded before
# a change to how the CLI computes or prints it, and must not move
GOLDENS = json.loads((Path(__file__).parent / "cli_goldens.json").read_text())


class TestGoldens:
    @pytest.mark.parametrize("case", sorted(GOLDENS))
    @pytest.mark.parametrize("form", ["text", "json"])
    def test_stdout_unchanged(self, capsys, case, form):
        golden = GOLDENS[case]
        code, out, _ = run_cli(capsys, *golden["argv"], *(["--json"] if form == "json" else []))
        assert code == 0
        assert out == golden[form]


class TestOneConversionPerValue:
    """Each printed value is turned into decimal once, in text and in --json."""

    @pytest.mark.parametrize(
        "argv, values",
        [
            pytest.param(["eval", "--catalog", "tribonacci", "--n", "500"], 1, id="eval_n"),
            pytest.param(["eval", "--coeffs=1/2,1", "--init=0,1", "--range", "10..30"], 21, id="eval_range"),
            pytest.param(["lucas", "--coeffs", "1,1,1", "--N", "20"], 21, id="lucas"),
            pytest.param(["gamma", "--catalog", "padovan", "--m", "7"], 3, id="gamma"),
            # sum, divisor, three weights, constant
            pytest.param(["sum", "--catalog", "tribonacci", "--n", "40"], 6, id="sum"),
            # the same plus the slice's three gamma
            pytest.param(["subsum", "--catalog", "tribonacci", "--m", "5", "--r", "2", "--n", "6"], 9, id="subsum"),
        ],
    )
    @pytest.mark.parametrize("form", ["text", "json"])
    def test_numeric(self, capsys, monkeypatch, argv, values, form):
        calls = self._count(monkeypatch)
        code, _, _ = run_cli(capsys, *argv, *(["--json"] if form == "json" else []))
        assert code == 0
        assert len(calls) == values

    def test_symbolic_gamma(self, capsys, monkeypatch):
        # text prints each Poly once; --json converts each of its coefficients once
        from linrec import Poly

        gamma = gamma_coefficients(tuple(Poly.variables(2)), 3).gamma
        calls = self._count(monkeypatch)
        run_cli(capsys, "gamma", "--symbolic", "--d", "2", "--m", "3")
        assert [type(v) for v in calls] == [Poly] * len(gamma)
        calls.clear()
        run_cli(capsys, "gamma", "--symbolic", "--d", "2", "--m", "3", "--json")
        assert len(calls) == sum(len(g.terms) for g in gamma)

    @staticmethod
    def _count(monkeypatch) -> list:
        """Record every scalar_to_str and Poly.__str__ call, where the CLI and kernel look them up."""
        from linrec import Poly, kernel

        calls = []
        to_str, poly_str = kernel.scalar_to_str, Poly.__str__

        def counted_scalar(x):
            calls.append(x)
            return to_str(x)

        def counted_poly(self):
            calls.append(self)
            return poly_str(self)

        monkeypatch.setattr(kernel, "scalar_to_str", counted_scalar)
        monkeypatch.setattr(cli, "scalar_to_str", counted_scalar)
        monkeypatch.setattr(Poly, "__str__", counted_poly)
        return calls


class TestEntryPoint:
    """The installed entry point and ``python -m linrec.cli`` print what main prints."""

    @staticmethod
    def _module(*argv):
        env = dict(os.environ)
        src = str(Path(linrec.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "linrec.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )

    def test_module_matches_main(self, capsys):
        # ~5200 digits: past the interpreter's default int-to-str limit of 4300
        argv = ["eval", "--catalog", "fibonacci", "--n", "25000"]
        proc = self._module(*argv)
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(out) > 5000
        assert proc.stdout == out

    def test_module_nonzero_exit(self):
        proc = self._module("eval", "--catalog", "nope", "--n", "3")
        assert proc.returncode == 3
        assert proc.stdout == "" and proc.stderr.startswith("error:")

    def test_run_exits_with_main_code(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["linrec", "eval", "--catalog", "nope", "--n", "3"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 3
        monkeypatch.setattr(sys, "argv", ["linrec", "eval", "--catalog", "fibonacci", "--n", "10"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0
        assert capsys.readouterr().out == "55\n"


class TestCatalogCmd:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        names = [l.split("\t")[0] for l in out.strip().splitlines()]
        assert "fibonacci" in names and "k_fibonacci(k)" in names

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--json")
        blob = json.loads(out)
        entry = next(e for e in blob["entries"] if e["name"] == "lucas")
        assert entry["oeis"] == "A000032"
        assert entry["coeffs"] == ["1", "1"]


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--coeffs", "1,1", "--init", "0,1"])  # no --n/--range
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_range_string(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--coeffs", "1,1", "--init", "0,1", "--range", "5"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_trailing_zero_coeff(self, capsys):
        # malformed coefficient vectors are caught while parsing arguments
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--coeffs", "1,0", "--init", "0,1", "--n", "3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.strip()

    def test_unknown_catalog_name(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--catalog", "nope", "--n", "3")
        assert code == 3
        assert err.strip()

    def test_negative_r(self, capsys):
        code, _, err = run_cli(capsys, "subsum", "--catalog", "fibonacci", "--m", "2", "--r", "-1", "--n", "4")
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["--catalog", "fibonacci", "--m", "3", "--r=-1"],
            ["--catalog", "tribonacci", "--m", "100", "--r=-7", "--depth", "6"],
        ],
    )
    def test_verify_negative_r(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 3
        assert out == ""
        assert "r >= 0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sum", "--catalog", "fibonacci", "--n=-1"],
            ["subsum", "--catalog", "fibonacci", "--m", "2", "--n=-1"],
        ],
        ids=["sum", "subsum"],
    )
    def test_negative_n(self, capsys, argv):
        # partial_sum_closed checks n; the CLI maps its DomainError to exit 3
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "n >= 0" in err

    @pytest.mark.parametrize("depth", ["0", "20000"])
    def test_verify_depth_out_of_range(self, capsys, depth):
        code, out, err = run_cli(capsys, "verify", "--catalog", "fibonacci", "--m", "2", "--depth", depth)
        assert code == 3
        assert out == ""
        assert "depth" in err

    def test_symbolic_requires_d(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gamma", "--symbolic", "--m", "3"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_gamma_needs_some_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gamma", "--m", "3"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_stdout_stays_clean_on_error(self, capsys):
        code, out, err = run_cli(capsys, "gamma", "--catalog", "nope", "--m", "2")
        assert code == 3
        assert out == ""
        assert err.strip()

    @pytest.mark.parametrize("d", ["--d=0", "--d=-2"])
    def test_symbolic_order_below_one(self, capsys, d):
        code, out, err = run_cli(capsys, "gamma", "--symbolic", d, "--m", "3")
        assert code == 3
        assert out == ""
        assert "variable" in err

    # one call per parse rule: each breaks only that rule
    PARSE_RULES = {
        "eval-two-sources": ["eval", "--coeffs", "1,1", "--catalog", "fibonacci", "--n", "5"],
        "sum-two-sources": ["sum", "--coeffs", "1,1", "--catalog", "fibonacci", "--n", "5"],
        "lucas-two-sources": ["lucas", "--coeffs", "1,1", "--catalog", "fibonacci", "--N", "5"],
        "gamma-two-sources": ["gamma", "--coeffs", "1,1", "--catalog", "fibonacci", "--m", "3"],
        "verify-two-sources": ["verify", "--coeffs", "1,1", "--catalog", "fibonacci", "--m", "3"],
        "symbolic-with-coeffs": ["gamma", "--symbolic", "--d", "2", "--coeffs", "1,1", "--m", "3"],
        "all-catalog-with-catalog": ["verify", "--all-catalog", "--catalog", "fibonacci", "--m", "2"],
        "n-with-range": ["eval", "--catalog", "fibonacci", "--n", "3", "--range", "0..3"],
        "eval-no-source": ["eval", "--n", "3"],
        "lucas-no-source": ["lucas", "--N", "3"],
        "sum-no-source": ["sum", "--n", "3"],
        "subsum-no-source": ["subsum", "--m", "2", "--n", "3"],
        "verify-no-source": ["verify", "--m", "2"],
        "lucas-no-N": ["lucas", "--catalog", "fibonacci"],
        "gamma-no-m": ["gamma", "--catalog", "fibonacci"],
        "sum-no-n": ["sum", "--catalog", "fibonacci"],
        "subsum-no-m": ["subsum", "--catalog", "fibonacci", "--n", "3"],
        "subsum-no-n": ["subsum", "--catalog", "fibonacci", "--m", "2"],
        "verify-no-m": ["verify", "--catalog", "fibonacci"],
        "d-without-symbolic": ["gamma", "--catalog", "fibonacci", "--d", "2", "--m", "3"],
        "init-with-catalog": ["sum", "--catalog", "fibonacci", "--init", "0,1", "--n", "3"],
        "init-with-all-catalog": ["verify", "--all-catalog", "--init", "0,1", "--m", "2"],
        "coeffs-without-init": ["sum", "--coeffs", "1,1", "--n", "3"],
        "init-length": ["sum", "--coeffs", "1,1", "--init", "0", "--n", "3"],
        "unparsable-init": ["sum", "--coeffs", "1,1", "--init", "0,x", "--n", "3"],
    }

    @pytest.mark.parametrize("rule", sorted(PARSE_RULES))
    def test_parse_rule_exits_two(self, capsys, rule):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.PARSE_RULES[rule])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.strip()

    # the rules checked after parsing report against the subcommand, as argparse's own do
    POST_PARSE_RULES = {
        "coeffs-without-init": ["sum", "--coeffs", "1,1", "--n", "3"],
        "init-length": ["sum", "--coeffs", "1,1", "--init", "0,1,2", "--n", "3"],
        "d-without-symbolic": ["gamma", "--catalog", "fibonacci", "--d", "2", "--m", "3"],
        "init-with-catalog": ["sum", "--catalog", "fibonacci", "--init", "0,1", "--n", "3"],
    }

    @pytest.mark.parametrize("rule", sorted(POST_PARSE_RULES))
    def test_post_parse_error_names_the_subcommand(self, capsys, rule):
        argv = self.POST_PARSE_RULES[rule]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"usage: linrec {argv[0]} " in err
        assert f"linrec {argv[0]}: error:" in err


class TestHelp:
    # the usage line shows each required source group, which it can only when the group's flags are adjacent
    SOURCES = {
        "": None,
        "eval": "(--coeffs COEFFS | --catalog CATALOG)",
        "lucas": "(--coeffs COEFFS | --catalog CATALOG)",
        "gamma": "(--coeffs COEFFS | --catalog CATALOG | --symbolic)",
        "sum": "(--coeffs COEFFS | --catalog CATALOG)",
        "subsum": "(--coeffs COEFFS | --catalog CATALOG)",
        "verify": "(--coeffs COEFFS | --catalog CATALOG | --all-catalog)",
        "catalog": None,
    }

    @pytest.mark.parametrize("command", sorted(SOURCES))
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert out.startswith("usage: linrec")
        assert self.SOURCES[command] is None or self.SOURCES[command] in out
