"""Compare the start-up cost of two checkouts of linrec.

    python tests/import_cost.py OLD_SRC NEW_SRC [N]

runs the benchmark's own set-up probe (``SETUP_CODE`` in
``perfbench/run.py``, read from that file, not copied) in N fresh ``-I``
interpreters per source tree, alternating which tree goes first (N is at
least 2 and defaults to 30).  The probe prints the seconds it takes to
import linrec and its CLI and read one catalog entry.  For each tree the
script prints the median and quartiles of those times, then the modules
that the same import adds to a fresh interpreter, and the modules only one
tree's import loads.
"""

from __future__ import annotations

import ast
from pathlib import Path
import statistics
import subprocess
import sys

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

ADDED_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import linrec, linrec.cli
linrec.catalog_get("fibonacci")
print(" ".join(sorted(set(sys.modules) - before)))
"""


def setup_code() -> str:
    """The string perfbench/run.py assigns to SETUP_CODE."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]:
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SETUP_CODE in {RUN_PY}")


def fresh(code: str, src: str) -> str:
    done = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True, timeout=60)
    return done.stdout.strip()


def main(argv) -> int:
    runs = int(argv[3]) if len(argv) == 4 else 30
    if len(argv) not in (3, 4) or runs < 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"old": argv[1], "new": argv[2]}
    code = setup_code()
    times = {side: [] for side in trees}
    for i in range(runs):
        for side in (("old", "new") if i % 2 == 0 else ("new", "old")):
            times[side].append(float(fresh(code, trees[side])) * 1e3)
    added = {side: fresh(ADDED_CODE, src).split() for side, src in trees.items()}
    for side, src in trees.items():
        q1, median, q3 = statistics.quantiles(times[side], n=4)
        print(f"{side} {src}: set-up median {median:.1f} ms, quartiles {q1:.1f}-{q3:.1f} ms over {runs} runs")
    for side in trees:
        print(f"{side} import adds {len(added[side])} modules: {' '.join(added[side])}")
    only_old, only_new = sorted(set(added["old"]) - set(added["new"])), sorted(set(added["new"]) - set(added["old"]))
    print(f"only old loads {len(only_old)}: {' '.join(only_old)}")
    print(f"only new loads {len(only_new)}: {' '.join(only_new)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
