"""Span tracing of the hweyl layers, installed from outside the package.

``Tracer.install`` wraps the public functions of each layer module (and a few
named methods) and rebinds every wrapper under every name that binds the
original, in every ``hweyl`` module, so calls made between modules are seen.
A span is (name, start, end, parent, job); spans live in flat arrays and are
written out by ``Tracer.dump`` when the run ends.

Timestamps are on a clock that excludes the tracer's own bookkeeping: the
time spent recording spans and work counters is accumulated as a debt and
subtracted, so a span's self time (its duration minus the time its child
spans cover) is the time spent in that layer's own code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: Layer modules, bottom up.
LAYERS = ("params", "freealg", "tensor", "quantization", "bialgebra",
          "poisson", "cli")

#: Methods traced as spans of their layer: (module, class, attribute, span name).
METHODS = (
    ("params", "ParamPoly", "__mul__", "params.mul"),
    ("params", "ParamPoly", "__add__", "params.add"),
    ("freealg", "RewriteSystem", "check_confluence", "freealg.check_confluence"),
    ("quantization", "HopfPresentation", "to_json", "quantization.to_json"),
    ("bialgebra", "Cocommutator", "from_json", "bialgebra.from_json"),
)

#: The CLI layer is traced at its entry point, so its self time is argument
#: parsing, dispatch and text rendering.
CLI_ENTRY = ("main",)


def _public_functions(module):
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")):
            yield name, obj


def _degree_histogram(poly):
    hist = {}
    for exps in poly.terms:
        d = sum(exps)
        hist[d] = hist.get(d, 0) + 1
    return hist


class Tracer:
    """Records spans and work counters while installed."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.current_job = -1
        self.counters = {}
        self._stack = [-1]
        self._debt = 0.0
        self._restore = []

    def clock(self):
        return perf_counter() - self._debt

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, span, fn, stats=None):
        nid = len(self.names)
        self.names.append(span)
        names, starts, ends = self.name, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.current_job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            tracer._debt += t0 - t_in
            starts[idx] = t0 - tracer._debt
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1 - tracer._debt
                stack.pop()
            if stats is not None:
                stats(args, result)
            tracer._debt += perf_counter() - t1
            return result

        return wrapper

    def _bind(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` under every name in hweyl."""
        for modname, module in list(sys.modules.items()):
            if modname != "hweyl" and not modname.startswith("hweyl."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"hweyl.{layer}")
            for name, fn in _public_functions(module):
                if layer == "cli" and name not in CLI_ENTRY:
                    continue
                self._bind(fn, self._wrap(f"{layer}.{name}", fn,
                                          self._stats_for(f"{layer}.{name}")))
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"hweyl.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapper = self._wrap(span, fn, self._stats_for(span))
            for key, value in list(cls.__dict__.items()):
                if value is raw:
                    setattr(cls, key, classmethod(wrapper) if is_cm else wrapper)
                    self._restore.append((cls, key, raw))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- work counters -----------------------------------------------------------

    def _count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _stats_for(self, span):
        if span == "params.mul":
            return self._mul_stats
        if span == "freealg.normal_form":
            def normal_form_stats(args, result):
                self._count("freealg.normal_form.terms_in", len(args[0].terms))
                self._count("freealg.normal_form.terms_out", len(result.terms))
            return normal_form_stats
        if span == "tensor.tensor_mul":
            def tensor_mul_stats(args, result):
                self._count("tensor.tensor_mul.terms_out", len(result.terms))
            return tensor_mul_stats
        return None

    def _mul_stats(self, args, result):
        if result is NotImplemented:
            return
        left, right = args
        h1 = _degree_histogram(left)
        if type(right) is type(left):
            h2 = _degree_histogram(right)
        else:
            h2 = {0: 1} if right else {}
        pairs = sum(h1.values()) * sum(h2.values())
        kept = sum(c1 * c2 for d1, c1 in h1.items() for d2, c2 in h2.items()
                   if d1 + d2 <= left.order)
        self._count("params.mul.pairs", pairs)
        self._count("params.mul.kept", kept)
        terms = len(result.terms)
        if terms > self.counters.get("params.mul.terms_max", 0):
            self.counters["params.mul.terms_max"] = terms

    # -- reading the spans ---------------------------------------------------------

    def summary(self):
        """Per span name: calls, total (outermost spans only) and self seconds."""
        n = len(self.name)
        covered = [0.0] * n
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        out = {s: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for s in self.names}
        open_until = [float("-inf")] * len(self.names)
        for i in range(n):
            rec = out[self.names[names[i]]]
            dur = ends[i] - starts[i]
            rec["calls"] += 1
            rec["self_s"] += dur - covered[i]
            if starts[i] >= open_until[names[i]]:
                rec["total_s"] += dur
                open_until[names[i]] = ends[i]
        return out

    def dump(self, path):
        """Write the spans: a JSON header line, then the five raw arrays."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.name),
                  "arrays": [["name", "i"], ["start", "d"], ["end", "d"],
                             ["parent", "i"], ["job", "i"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.job):
                arr.tofile(fh)
