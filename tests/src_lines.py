"""Count the raw and code lines of two checkouts of linrec's package, module by module.

    python tests/src_lines.py OLD_SRC NEW_SRC

reads every ``linrec/*.py`` under each source tree (the directory that holds
the ``linrec`` package, as given to ``PYTHONPATH``) and prints, for each
module and in total, its raw lines and its code lines in both trees and the
change.  A code line holds some token that is not a comment, and is not part
of a docstring (the string that opens a module, class or function body);
blank lines hold no token.  So a net-lines figure keeps code apart from prose.
"""

from __future__ import annotations

import ast
import io
from pathlib import Path
import sys
import tokenize

PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers each docstring in tree spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines |= set(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    prose = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in PROSE:
            code |= set(range(tok.start[0], tok.end[0] + 1)) - prose
    return len(source.splitlines()), len(code)


def counts(src: str) -> dict[str, tuple[int, int]]:
    return {p.name: count(p.read_text()) for p in sorted(Path(src, "linrec").glob("*.py"))}


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = counts(argv[1]), counts(argv[2])
    rows = [(name, old.get(name, (0, 0)), new.get(name, (0, 0))) for name in sorted(old.keys() | new.keys())]
    rows.append(("total", tuple(map(sum, zip(*old.values()))), tuple(map(sum, zip(*new.values())))))
    print(f"{'module':<16}{'raw old':>9}{'new':>7}{'change':>8}{'code old':>10}{'new':>7}{'change':>8}")
    for name, (raw0, code0), (raw1, code1) in rows:
        print(f"{name:<16}{raw0:>9}{raw1:>7}{raw1 - raw0:>+8}{code0:>10}{code1:>7}{code1 - code0:>+8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
