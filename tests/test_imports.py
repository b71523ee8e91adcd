"""Every name a module of the package imports is used in that module, and README accounts for every export."""

import ast
import doctest
import json
from pathlib import Path
import re
import subprocess
import sys

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "linrec"
README = TESTS.parent / "README.md"
# __init__.py imports to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (other than from __future__) that no expression in source reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_unused_imports():
    source = "from __future__ import annotations\nimport os.path\nimport math\nfrom a import b as c, d\nc(math.pi)\n"
    assert unused_imports(source) == ["d", "os"]


def test_modules_found():
    assert {"kernel.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES + [TESTS / "witnesses.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def names_read(source: str) -> set[str]:
    """Every name source reads, binds, imports or takes as an attribute."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name for a in node.names} | {a.name for a in node.names}
    return names


def test_names_read_sees_imports_and_attributes():
    source = "from .recurrence import _extend as walk\nimport linrec\nlinrec.recurrence._stride_terms\n"
    assert {"_extend", "walk", "_stride_terms"} <= names_read(source)


def test_one_walker():
    # the forward walk runs only inside the term engine: no other module names it
    naming = [p.name for p in sorted(SRC.glob("*.py")) if "_extend" in names_read(p.read_text())]
    assert naming == ["recurrence.py"]


def test_one_route_rule():
    # the engine's cutoffs are read only inside the engine: every other module asks recurrence._walks
    naming = [p.name for p in sorted(SRC.glob("*.py")) if {"_jump_from", "_JUMP_CUTOFF"} & names_read(p.read_text())]
    assert naming == ["recurrence.py"]


def test_one_lift():
    # the engine's ring is picked in one place: in recurrence.py only _lift names Fraction or clears denominators,
    # so the engine itself holds routes only and never re-enters itself on lifted data
    tree = ast.parse((SRC / "recurrence.py").read_text())
    naming = [
        getattr(node, "name", None)
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        and {"Fraction", "_clear_denominators"} & names_read(ast.unparse(node))
    ]
    assert naming == ["_lift"]
    (engine,) = (node for node in tree.body if getattr(node, "name", None) == "_stride_heads")
    assert "_stride_heads" not in {getattr(node.func, "id", None) for node in ast.walk(engine) if isinstance(node, ast.Call)}


def test_one_record_constructor():
    # Record.__init__ binds the fields a record annotates: only the records that check their arguments write their own
    checking = sorted(
        node.name
        for p in sorted(SRC.glob("*.py"))
        for node in ast.parse(p.read_text()).body
        if isinstance(node, ast.ClassDef)
        and "Record" in {getattr(base, "id", None) for base in node.bases}
        and any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in node.body)
    )
    assert checking == ["CharPoly", "CoeffVector", "RecurrenceSpec"]


def test_gamma_off_the_bell_table():
    # gamma and the trace terms take Newton's step; the Bell table is their witness in the tests, not a route
    naming = [p.name for p in sorted(SRC.glob("*.py")) if {"bell_table", "_bell_row_sum"} & names_read(p.read_text())]
    assert naming == []


def test_one_dot_product():
    # every sum of products runs through the kernel's dot: no other module defines one, and oracle's _dot stays gone
    defining = {
        p.name
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.FunctionDef) and "dot" in node.name.lower()
    }
    assert defining == {"kernel.py"}
    assert "_dot" not in names_read((SRC / "oracle.py").read_text())


def term_adders(source: str) -> list[str]:
    """Each function (Class.method for a method) with a loop that adds a coefficient into a dict read through get."""

    def adds_through_get(node) -> bool:
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Add)
            and any(
                isinstance(side, ast.Call) and getattr(side.func, "id", getattr(side.func, "attr", None)) == "get"
                for side in (node.left, node.right)
            )
        )

    loops = (ast.For, ast.While, ast.DictComp, ast.ListComp, ast.SetComp, ast.GeneratorExp)
    tree = ast.parse(source)
    functions = [(f"{c.name}.", c.body) for c in tree.body if isinstance(c, ast.ClassDef)] + [("", tree.body)]
    return sorted(
        prefix + fn.name
        for prefix, body in functions
        for fn in body
        if isinstance(fn, ast.FunctionDef)
        and any(adds_through_get(n) for loop in ast.walk(fn) if isinstance(loop, loops) for n in ast.walk(loop))
    )


def test_term_adders_found():
    source = (
        "class P:\n    def add(self, t):\n        for k, c in t.items():\n            t[k] = t.get(k, 0) + c\n"
        "def once(t, c):\n    t[0] = t.get(0, 0) + c\n"
        "def comp(t, u):\n    return {k: c + get(k, 0) for k, c in u.items()}\n"
    )
    assert term_adders(source) == ["P.add", "comp"]


def test_one_term_loop():
    # Poly's + and - run the product loop with a one-term factor, so only it and the validating
    # constructor add coefficients into a term dict, and _settle always settles a whole dict
    source = (SRC / "kernel.py").read_text()
    assert term_adders(source) == ["Poly.__init__", "_accumulate"]
    (settle,) = (f for f in ast.parse(source).body if isinstance(f, ast.FunctionDef) and f.name == "_settle")
    assert [a.arg for a in settle.args.args] == ["terms"] and not settle.args.defaults


def test_one_term_layout():
    # Poly's packed term dict is private: only kernel.py reads it, everything else goes through .terms
    naming = [p.name for p in sorted(SRC.glob("*.py")) if "_terms" in names_read(p.read_text())]
    assert naming == ["kernel.py"]


def truth_tests(source: str, functions) -> list[str]:
    """Each if, while, conditional expression or comprehension filter in the named functions
    whose test reads a value's truth rather than a comparison such as ``a is b``."""

    def reads_truth(test) -> bool:
        if isinstance(test, ast.BoolOp):
            return any(map(reads_truth, test.values))
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return reads_truth(test.operand)
        return not isinstance(test, ast.Compare)

    hits = []
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and fn.name in functions:
            for node in ast.walk(fn):
                if isinstance(node, ast.comprehension):
                    tests = node.ifs
                elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
                    tests = [node.test]
                else:
                    continue
                hits += [f"{fn.name}: {ast.unparse(t)}" for t in tests if reads_truth(t)]
    return sorted(hits)


def test_truth_tests_found():
    source = (
        "def f(a, b):\n    if a is b or not a == 1:\n        pass\n    if a:\n        pass\n"
        "    return [x for x in a if x and x > 0], (1 if b else 2)\n"
        "def g(a):\n    if a:\n        pass\n"
    )
    assert truth_tests(source, {"f"}) == ["f: a", "f: b", "f: x and x > 0"]


def test_residue_arithmetic_tests_no_value():
    # x^n mod q is built from ring operations only, so every route carries the data's ring:
    # a zero test would skip a product by the zero Poly and leave an int where the walk has a Poly
    source = (SRC / "recurrence.py").read_text()
    assert truth_tests(source, {"_reduce", "_mulmod", "_xpow"}) == []


def test_exports_are_exactly_the_imports():
    # a name deleted from a module cannot linger in __all__, and no re-export goes unlisted
    import linrec

    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(linrec.__all__) == sorted(imported)
    assert all(hasattr(linrec, name) for name in linrec.__all__)


# the paper's witnesses that live in tests/witnesses.py, not in the package
WITNESSES = {
    "InvertSumCheck",
    "SizeLimit",
    "bell_partial",
    "bell_table",
    "bell_truncated3",
    "catalog_selfcheck",
    "invert_partial_sum",
    "k_lucas_number",
    "lambda_decompose",
    "lucas_transform_bell_prefix",
    "narayana_hat_number",
    "perrin_number",
    "set_partition_oracle",
    "tribonacci_hat_number",
}

LOADED_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import linrec, linrec.cli
linrec.catalog_get("fibonacci")
print(json.dumps({"added": sorted(set(sys.modules) - before), "all": linrec.__all__}))
"""


def fresh_import() -> dict:
    """What a fresh interpreter adds to sys.modules by importing linrec and its CLI and reading the catalog."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", LOADED_CODE, str(SRC.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(done.stdout)


def test_witnesses_stay_out_of_the_package():
    # a fresh interpreter that imports the library and its CLI loads no Bell module and exports no witness
    loaded = fresh_import()
    loaded["modules"] = [m for m in loaded["added"] if m.startswith("linrec")]
    assert "linrec.cli" in loaded["modules"]
    assert "linrec.bell" not in loaded["modules"]
    assert not WITNESSES & set(loaded["all"])


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")
    import linrec

    with open(TESTS.parent / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == linrec.__version__


def test_every_export_in_readme():
    import linrec

    text = README.read_text()
    assert [name for name in linrec.__all__ if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", text)] == []


def test_readme_quick_start_runs():
    # the quick start's 12 prompts, run against the package as it stands
    done = doctest.testfile(str(README), module_relative=False)
    assert (done.failed, done.attempted) == (0, 12)


def test_one_window_call():
    # seq_range is the one public run of terms: the seq_window wrapper stays deleted
    import linrec
    from linrec import recurrence

    assert "seq_window" not in linrec.__all__ and not hasattr(recurrence, "seq_window")
    assert [p.name for p in [README, *sorted(SRC.glob("*.py"))] if "seq_window" in p.read_text()] == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of every module source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_found():
    source = "import os.path\nfrom dataclasses import dataclass\nfrom .kernel import Poly\n"
    assert imported_modules(source) == {"os", "dataclasses"}


def test_small_import_footprint():
    # the result classes are plain records: starting linrec loads neither dataclasses nor the inspect it pulls in
    assert [p.name for p in sorted(SRC.glob("*.py")) if "dataclasses" in imported_modules(p.read_text())] == []
    assert {"dataclasses", "inspect"} & set(fresh_import()["added"]) == set()
