#!/usr/bin/env python3
"""Benchmark for linrec: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; linrec is imported from ``src/``.
The workload's batch of calls is made in a closed loop, one call at a time,
in whole rounds until S seconds have passed.  Every call is timed from
outside linrec and its output checked (see ``workloads.py``).  An input's
time is the minimum over its repeats in the run: slowdowns on a shared host
only ever add time, and they last seconds, so the fastest repeat is the
steadiest estimate of the call's own cost (README.md has the evidence).

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` untraced and traced rounds alternate and the per-layer figures
are printed instead.  Raw per-call times and the trace go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
from array import array
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Fresh interpreters timed for setup_s, spread evenly over the run; setup_s is
#: their median.  Unlike a call, a set-up cannot be repeated in process, and
#: the fastest of 25 fresh interpreters depends on whether the run caught a
#: calm spell; their median spreads less over seeds (README.md).
SETUP_RUNS = 25

#: Timed in a fresh interpreter: from ``import linrec`` until a first call can
#: be made, with the CLI module imported and the catalog loaded.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import linrec, linrec.cli
linrec.catalog_get("fibonacci")
print(time.perf_counter() - start)
"""

#: Layers whose self time the traced run reports, and those whose calls it counts.
LAYER_SELF = [
    "recurrence.seq_range",
    "recurrence.seq_eval",
    "oracle.mat_pow",
    "oracle.mat_mul",
    "oracle.char_poly",
    "oracle.fit_recurrence",
    "oracle.verify_recurrence",
    "lucas.lucas_transform",
    "bell.bell_table",
    "progression.gamma_coefficients",
    "progression.subseq_recurrence",
    "sums.partial_sum_closed",
    "kernel.Poly.mul",
    "kernel.Poly.init",
    "cli.main",
]
LAYER_CALLS = ["oracle.mat_mul", "kernel.Poly.mul", "kernel.Poly.init"]
LAYER_COUNTS = [
    "recurrence.seq_range.terms",
    "lucas.lucas_transform.terms",
    "bell.bell_table.cells",
    "kernel.Poly.terms_out",
]


def setup_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def peak_rss_mb() -> float:
    """High-water resident memory of this process image, in MB.

    Read from VmHWM: ``ru_maxrss`` keeps the peak of the process that spawned
    this one across exec, so it can report the caller's memory instead.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    """Calls attempted, failed, and failed because the output was wrong."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def new_times(self) -> list:
        # 8 bytes a repeat, so that keeping them barely moves peak_rss_mb
        return [array("d") for _ in self.ops]

    def round(self, times: list, on_result=None) -> None:
        """Call every op once, timing each call into ``times`` and checking its output."""
        clock = time.perf_counter
        for op, op_times in zip(self.ops, times):
            self.attempted += 1
            start = clock()
            try:
                result = op.call()
            except (Exception, SystemExit) as exc:
                self.failed += 1
                print(f"failed: {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            op_times.append(clock() - start)
            if on_result is not None:
                on_result(op, result)
            try:
                ok = op.check(result)
            except Exception:  # output too malformed to parse back is wrong too
                ok = False
            if not ok:
                self.failed += 1
                self.wrong += 1
                print(f"wrong: {op.label}", file=sys.stderr)


def fastest(times: list) -> list:
    """Per-input time: the fastest of its repeats."""
    return [min(ts) for ts in times if ts]


def end_to_end(tally: Tally, seconds: float) -> tuple:
    setups = []
    times = tally.new_times()
    start = time.perf_counter()
    while not tally.attempted or time.perf_counter() < start + seconds:
        while (len(setups) < SETUP_RUNS
               and time.perf_counter() >= start + len(setups) * seconds / SETUP_RUNS):
            setups.append(setup_seconds())
        tally.round(times)
    while len(setups) < SETUP_RUNS:  # a last long round can overrun the last slot
        setups.append(setup_seconds())
    est = fastest(times)
    metrics = {
        "calls_per_s": (len(est) / sum(est), "1/s"),
        "call_p50_ms": (statistics.median(est) * 1e3, "ms"),
        "call_max_ms": (max(est) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {"calls": [{"label": op.label, "seconds": list(ts)} for op, ts in zip(tally.ops, times)],
           "setup_s": setups}
    return metrics, raw


def traced(tally: Tally, seconds: float, linrec) -> tuple:
    from spans import Tracer

    plain, under = tally.new_times(), tally.new_times()
    tracer = Tracer()
    best = None  # (traced self time, figures, spans) of the traced round least slowed by the host
    stdout_bytes = [0]

    def count_bytes(op, result):
        if op.cli:
            stdout_bytes[0] += len(result[1].encode())

    deadline = time.perf_counter() + seconds
    while best is None or time.perf_counter() < deadline:
        tally.round(plain)
        tracer.reset()
        stdout_bytes[0] = 0
        tracer.install(linrec)
        try:
            tally.round(under, count_bytes)
        finally:
            tracer.uninstall()
        total = tracer.total_self_s()
        if best is None or total < best[0]:
            figures = {f"{name}.self_s": tracer.self_s(name) for name in LAYER_SELF}
            figures.update({f"{name}.calls": tracer.calls[name] for name in LAYER_CALLS})
            figures.update({name: tracer.counts[name] for name in LAYER_COUNTS})
            figures["kernel.Poly.self_s"] = tracer.poly_self_s()
            figures["cli.stdout_bytes"] = stdout_bytes[0]
            best = (total, figures, tracer.snapshot())
    # every per-layer figure comes from that one round; counts are the same in every round
    metrics = {}
    for name, value in best[1].items():
        unit = "s" if name.endswith("_s") else "bytes" if name.endswith("bytes") else "count"
        metrics[name] = (value, unit)
    metrics["run.untraced_wall_s"] = (sum(fastest(plain)), "s")
    metrics["run.traced_wall_s"] = (sum(fastest(under)), "s")
    raw = {
        "calls": [
            {"label": op.label, "seconds": list(a), "traced_seconds": list(b)}
            for op, a, b in zip(tally.ops, plain, under)
        ],
        "spans": best[2],  # the round the per-layer figures come from
    }
    return metrics, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linrec" / "__init__.py").is_file():
        print(f"error: no linrec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)
    import linrec
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    tally = Tally(workloads.build(args.workload, args.seed))
    if args.trace:
        metrics, raw = traced(tally, args.seconds, linrec)
    else:
        metrics, raw = end_to_end(tally, args.seconds)
    OUT.mkdir(exist_ok=True)
    raw.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               metrics={k: v for k, (v, _) in metrics.items()})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(raw, indent=1))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
