"""Span tracing of the package's layers, installed from outside.

Every public function a layer module defines is wrapped, and the wrapper is
put wherever callers look the function up: the defining module and every
``hyperspace`` module that imported it by name (``to_polar`` as seen from
``hyperspace.audit``, for example).  Classes are left alone, so value
construction counts toward the self time of whichever layer constructs.
``hyperspace.rotation`` is the output oracle, not a user path, and is not
traced.

A span records (function, parent span, operation id, start, end).  Spans
stay in memory until :meth:`Tracer.write`.  A layer's self time is the sum
over its spans of the span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("core", "algebra", "space3", "coeff_formulas", "duality", "expr", "audit", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]
        self.op = [0]
        self.names: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn):
        spans, stack, op, clock = self.spans, self.stack, self.op, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [fid, stack[-1], op[0], clock(), None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"hyperspace.{layer}")
            except ImportError:
                continue  # a removed layer reports zero calls
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                self.names.append(f"{layer}.{name}")
                wrappers[id(obj)] = (obj, self._wrap(len(self.names) - 1, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "hyperspace" and not modname.startswith("hyperspace."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Self time (s) and call count for every layer in LAYERS."""
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        durations = [(rec[4] or rec[3]) - rec[3] for rec in self.spans]
        child = [0.0] * len(self.spans)
        for rec, d in zip(self.spans, durations):
            if rec[1] >= 0:
                child[rec[1]] += d
        for rec, d, c in zip(self.spans, durations, child):
            layer = out[self.names[rec[0]].split(".", 1)[0]]
            layer["self_s"] += d - c
            layer["calls"] += 1
        return out

    def write(self, path) -> None:
        """Spans as tab-separated rows: name, parent, op, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tparent\top\tstart\tend\n")
            for fid, parent, op, start, end in self.spans:
                fh.write(f"{self.names[fid]}\t{parent}\t{op}\t{start!r}\t{end!r}\n")
