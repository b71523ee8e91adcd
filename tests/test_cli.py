import json
from pathlib import Path

import pytest

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

    def test_symbolic_golden_stdout(self, capsys):
        # byte-for-byte output of the Fraction-coefficient Poly kernel
        code, out, _ = run_cli(capsys, "gamma", "--symbolic", "--d", "3", "--m", "4")
        assert code == 0
        assert out == (
            "1\tc1^4 + 4*c1^2*c2 + 4*c1*c3 + 2*c2^2\n"
            "2\t-2*c1^2*c3^2 + 4*c1*c2^2*c3 - c2^4 + 4*c2*c3^2\n"
            "3\tc3^4\n"
        )
        code, out, _ = run_cli(capsys, "gamma", "--symbolic", "--d", "3", "--m", "4", "--json")
        assert code == 0
        assert out == (
            '{"command": "gamma", "m": 4, "d": 3, "gamma": ['
            '{"nvars": 3, "terms": [{"exponents": [4, 0, 0], "coefficient": "1"}, '
            '{"exponents": [2, 1, 0], "coefficient": "4"}, {"exponents": [1, 0, 1], "coefficient": "4"}, '
            '{"exponents": [0, 2, 0], "coefficient": "2"}]}, '
            '{"nvars": 3, "terms": [{"exponents": [2, 0, 2], "coefficient": "-2"}, '
            '{"exponents": [1, 2, 1], "coefficient": "4"}, {"exponents": [0, 4, 0], "coefficient": "-1"}, '
            '{"exponents": [0, 1, 2], "coefficient": "4"}]}, '
            '{"nvars": 3, "terms": [{"exponents": [0, 0, 4], "coefficient": "1"}]}]}\n'
        )


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
        code, out, err = run_cli(capsys, "sum", "--coeffs", "2,-1", "--init", "0,1", "--n", "5")
        assert code == 4
        assert out == ""
        assert err.strip()

    def test_degenerate_subsequence(self, capsys):
        code, _, err = run_cli(capsys, "subsum", "--coeffs", "1,-1", "--init", "1,2", "--m", "6", "--r", "0", "--n", "5")
        assert code == 4
        assert err.strip()


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


# `linrec verify` stdout, text and --json, recorded before verification moved into the library
VERIFY_GOLDENS = json.loads((Path(__file__).parent / "verify_goldens.json").read_text())


class TestVerifyGoldens:
    @pytest.mark.parametrize("case", sorted(VERIFY_GOLDENS))
    @pytest.mark.parametrize("form", ["text", "json"])
    def test_stdout_unchanged(self, capsys, case, form):
        golden = VERIFY_GOLDENS[case]
        code, out, _ = run_cli(capsys, *golden["argv"], *(["--json"] if form == "json" else []))
        assert code == 0
        assert out == golden[form]


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
