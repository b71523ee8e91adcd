#!/usr/bin/env python3
"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/report.py --seeds 1-10

Runs ``run.py`` once per workload and seed, untraced, then once per workload
traced (first seed), all one after another from the checkout root, with the
workloads and the run length of ``BENCHMARK.json``.  Prints,
in Markdown:

* each end-to-end metric's median, quartiles and spread (Q3 - Q1) / median
  over the seeds, with the failed share;
* the spread of calls_per_s had each input's time been estimated by the min,
  the lower decile, the lower quartile or the median of its repeats (read
  back from the raw files the runs left in ``perfbench/out/``);
* the spread of setup_s by the median of each run's samples (what run.py
  reports) and by their minimum;
* the traced run's layers by their share of the self time traced in the
  round its per-layer figures come from, with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
ESTIMATORS = {
    "min": min,
    "p10": lambda ts: statistics.quantiles(ts, n=10, method="inclusive")[0],
    "p25": lambda ts: statistics.quantiles(ts, n=4, method="inclusive")[0],
    "median": statistics.median,
}


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    raw = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "raw": raw}


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args()

    runs = {w: [run(w, s, 0) for s in args.seeds] for w in WORKLOADS}

    print(f"End to end: {len(args.seeds)} seeds ({args.seeds[0]}..{args.seeds[-1]}), "
          f"{SECONDS} s each.\n")
    print("| workload | metric | median | Q1 | Q3 | spread | failed/attempted |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for w, rs in runs.items():
        failed = sum(r["result"]["failed"] for r in rs)
        attempted = sum(r["result"]["attempted"] for r in rs)
        for name, rec in rs[0]["result"]["metrics"].items():
            med, q1, q3, sp = spread([r["result"]["metrics"][name]["value"] for r in rs])
            print(f"| {w} | {name} ({rec['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {sp:.1%} | {failed}/{attempted} |")

    print("\nSpread of calls_per_s over the seeds, by per-input estimator:\n")
    print("| workload | repeats per input | " + " | ".join(ESTIMATORS) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in ESTIMATORS) + " |")
    for w, rs in runs.items():
        cells = []
        for est in ESTIMATORS.values():
            rates = []
            for r in rs:
                times = [est(c["seconds"]) for c in r["raw"]["calls"] if len(c["seconds"]) > 1]
                rates.append(len(times) / sum(times))
            cells.append(f"{spread(rates)[3]:.1%}")
        reps = statistics.median(len(c["seconds"]) for r in rs for c in r["raw"]["calls"])
        print(f"| {w} | {reps:g} | " + " | ".join(cells) + " |")

    print("\nsetup_s over the seeds, by estimator of each run's samples (median value, spread):\n")
    print("| workload | samples per run | min | median |")
    print("| --- | --- | --- | --- |")
    for w, rs in runs.items():
        cells = []
        for est in (min, statistics.median):
            med, _, _, sp = spread([est(r["raw"]["setup_s"]) for r in rs])
            cells.append(f"{med * 1e3:.2f} ms, {sp:.1%}")
        print(f"| {w} | {len(rs[0]['raw']['setup_s'])} | " + " | ".join(cells) + " |")

    print(f"\nTraced runs (seed {args.seeds[0]}): share of the self time traced in a round.\n")
    for w in WORKLOADS:
        traced = run(w, args.seeds[0], 1)
        m = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        wall, plain = m["run.traced_wall_s"], m["run.untraced_wall_s"]
        layers = traced["raw"]["spans"]["layers"]
        total = sum(rec["self_s"] for rec in layers.values())
        shares = sorted(((name, rec["self_s"]) for name, rec in layers.items()),
                        key=lambda kv: -kv[1])
        poly = sum(s for name, s in shares if name.startswith("kernel.Poly."))
        top = ", ".join(f"{name} {s / total:.0%}" for name, s in shares[:6])
        print(f"- **{w}**: untraced {plain:.4f} s, traced {wall:.4f} s "
              f"(overhead {(wall - plain) / plain:+.0%}); kernel.Poly in all "
              f"{poly / total:.0%}; {top}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
