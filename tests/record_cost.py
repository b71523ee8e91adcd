"""Compare the cost of building linrec's result records in two checkouts.

    python tests/record_cost.py OLD_SRC NEW_SRC [N]

builds each of the eight record classes from the fields of a record a real
library call returned, the way the library builds it: ``CoeffVector``,
``RecurrenceSpec``, ``CharPoly`` and ``LucasTransform`` positionally, and
``GammaVector``, ``SliceReport``, ``SumClosedForm`` and ``CatalogEntry`` by
keyword.  Each tree runs in N fresh ``-I`` interpreters (N is at least 1 and
defaults to 5), alternating which tree goes first; a run reports, per class,
the fastest of 7 timings of 50 000 builds.  The script prints, per class, the
median over the runs of each tree in ns per build and the change.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

PROBE = """
import sys, timeit
sys.path.insert(0, sys.argv[1])
import linrec as L

spec = L.RecurrenceSpec((1, 1), (0, 1))
built = [  # (a record from a library call, whether the library builds its class by keyword)
    (L.char_poly_of_power((1, 1), 3), False),
    (L.subseq_recurrence(spec, 3, 1), False),
    (L.char_poly([[1, 1], [1, 0]]), False),
    (L.lucas_transform((1, 1), 6), False),
    (L.gamma_coefficients((1, 1, 1), 5), True),
    (L.verify_slice(L.RecurrenceSpec((1, 0, 1), (1, 1, 1)), 3, 2, 12), True),
    (L.partial_sum_form(spec), True),
    (L.catalog_get("lucas"), True),
]
for record, by_keyword in built:
    cls = type(record)
    args = ", ".join(f"{name}={name}" if by_keyword else name for name in cls.__match_args__)
    timer = timeit.Timer(f"Built({args})", globals={"Built": cls, **vars(record)})
    print(cls.__name__, min(timer.repeat(7, 50_000)) / 50_000 * 1e9)
"""


def probe(src: str) -> dict[str, float]:
    done = subprocess.run([sys.executable, "-I", "-c", PROBE, src], capture_output=True, text=True, check=True, timeout=600)
    return {name: float(ns) for name, ns in (line.split() for line in done.stdout.splitlines())}


def main(argv) -> int:
    runs = int(argv[3]) if len(argv) == 4 else 5
    if len(argv) not in (3, 4) or runs < 1:
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"old": argv[1], "new": argv[2]}
    times = {side: [] for side in trees}
    for i in range(runs):
        for side in (("old", "new") if i % 2 == 0 else ("new", "old")):
            times[side].append(probe(trees[side]))
    print(f"old {trees['old']}\nnew {trees['new']}\nmedian ns per build over {runs} runs a tree")
    print(f"{'record':<16}{'old':>9}{'new':>9}{'change':>9}")
    for name in times["old"][0]:
        old, new = (statistics.median(run[name] for run in times[side]) for side in trees)
        print(f"{name:<16}{old:>9.0f}{new:>9.0f}{new - old:>+9.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
