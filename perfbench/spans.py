"""Spans around linrec's layers, installed from outside the library.

A :class:`Tracer` wraps every public function of every linrec module (in
``cli`` only ``main``, so that argument parsing and formatting stay in its
self time) and the ring methods of ``kernel.Poly``.  Each wrapper is set on
every module that holds the original, so calls made through names imported
with ``from .x import f`` are seen too.  A span's self time is its duration
minus the time of the spans it caused.  Spans are folded into per-name totals
as they end: calls and self time.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

#: ``Poly`` methods traced, with the name they are reported under.
POLY_METHODS = {
    "__init__": "init",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__pow__": "pow",
    "__eq__": "eq",
    "_coerce": "coerce",
}


def _seq_range_terms(args, kwargs, result):
    spec, _, n1 = args
    return n1 + 1 - min(spec.order, n1 + 1)


def _bell_cells(args, kwargs, result):
    upto = args[0]
    return (upto + 1) * (upto + 2) // 2


#: Work counters read off a layer's arguments or result: name -> (layer, counter).
COUNTERS = {
    "recurrence.seq_range.terms": ("recurrence.seq_range", _seq_range_terms),
    "lucas.lucas_transform.terms": (
        "lucas.lucas_transform",
        lambda args, kwargs, result: len(result.terms) - 1,
    ),
    "bell.bell_table.cells": ("bell.bell_table", _bell_cells),
    "kernel.Poly.terms_out": ("kernel.Poly.mul", lambda args, kwargs, result: len(result.terms)),
}


class Tracer:
    """Per-layer calls and self time, plus the work counters above."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list = []  # [child_ns] per open span
        self._patches: list = []

    def reset(self) -> None:
        for table in (self.calls, self.self_ns, self.counts):
            table.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        counters = [(key, count) for key, (layer, count) in COUNTERS.items() if layer == name]
        calls, self_ns, counts = self.calls, self.self_ns, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += spent
                calls[name] += 1
                self_ns[name] += spent - frame[0]
            for key, count in counters:
                counts[key] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap linrec's layers; :meth:`uninstall` puts the originals back."""
        prefix = package.__name__ + "."
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package.__name__ or key.startswith(prefix))
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(prefix):]
            if not short:
                continue
            for attr, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and (short != "cli" or attr == "main")
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        poly = package.kernel.Poly
        poly_wrappers = {}
        for attr, label in POLY_METHODS.items():
            fn = vars(poly)[attr]
            if id(fn) not in poly_wrappers:
                poly_wrappers[id(fn)] = self._wrap(f"kernel.Poly.{label}", fn)
            self._patches.append((poly, attr, fn))
            setattr(poly, attr, poly_wrappers[id(fn)])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def total_self_s(self) -> float:
        """Time spent inside traced spans: the self times add up to it."""
        return sum(self.self_ns.values()) / 1e9

    def poly_self_s(self) -> float:
        return sum(ns for name, ns in self.self_ns.items() if name.startswith("kernel.Poly.")) / 1e9

    def snapshot(self) -> dict:
        """Everything recorded so far, as JSON-ready data."""
        return {
            "layers": {
                name: {"calls": self.calls[name], "self_s": self.self_ns[name] / 1e9}
                for name in sorted(self.calls)
            },
            "counts": dict(self.counts),
        }
