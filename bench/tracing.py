"""Spans around the public functions of each carnot_calc module.

The tracer wraps functions from outside: it rebinds every module-level name
(and module-level dict entry) of the package that refers to a wrapped
function, so `from .surfaces import zy_second` bindings in other modules
record spans too.  Jet.__mul__ and Jet.__add__ (with their reflected twins,
which are the same functions) are wrapped on the class.

A span is (id, name, start_ns, end_ns, parent id, case id).  Spans stay
in memory until the benchmark writes them out.  The benchmark runs the
program on one thread (CARNOT_CALC_THREADS=1), so one stack of open spans
gives every span its parent.
"""

import functools
import importlib
import inspect
import itertools
import time
from collections import defaultdict

import numpy as np

PACKAGE = "carnot_calc"
LAYERS = ("cli", "variation", "measure", "curvature", "surfaces", "fields",
          "groups")


def _jet_bytes(args, kwargs, result):
    return {"bytes_computed": sum(np.asarray(x).nbytes
                                  for x in (result.v, result.g, result.h)
                                  if x is not None)}


def _patch_nodes(args, kwargs, result):
    return {"nodes": np.size(args[1] if len(args) > 1 else kwargs["u"])}


def _sum_elements(args, kwargs, result):
    return {"elements": np.size(args[0] if args else kwargs["values"])}


def _seeded_nodes(args, kwargs, result):
    order = args[1] if len(args) > 1 else kwargs.get("order", 2)
    nodes = np.size(result[0].v) if result else 0
    return {"nodes": nodes, "order2_nodes": nodes if order >= 2 else 0}


# work counters recorded next to the spans, where the work happens
COUNTERS = {
    "fields.jet_mul": _jet_bytes,
    "surfaces.patch_fields_jets": _patch_nodes,
    "measure.pairwise_sum": _sum_elements,
    "fields.seed_jets": _seeded_nodes,
}


class Tracer:
    """Collects spans and work counters while installed."""

    def __init__(self):
        self.spans = []
        self.work = defaultdict(int)
        self.case = None
        self._ids = itertools.count()
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, work, stack = self.spans, self.work, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.case))
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    work[name + "." + key] += n
            return result
        return traced

    def _targets(self):
        """{original function: wrapper} for every public module function."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(PACKAGE + "." + layer)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[obj] = self.wrap(layer + "." + attr, obj)
        return targets

    def _rebind(self, holder, key, new, setter):
        old = holder[key] if isinstance(holder, dict) else getattr(holder, key)
        self._restore.append((holder, key, old, setter))
        setter(holder, key, new)

    def install(self):
        targets = self._targets()
        mods = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(PACKAGE + "." + m) for m in LAYERS]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._rebind(mod, attr, targets[obj], setattr)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in targets:
                            self._rebind(obj, key, targets[val],
                                         dict.__setitem__)
        Jet = importlib.import_module(PACKAGE + ".fields").Jet
        for name, op in (("fields.jet_mul", "__mul__"),
                         ("fields.jet_add", "__add__")):
            orig = Jet.__dict__[op]
            wrapped = self.wrap(name, orig)
            for attr, obj in list(vars(Jet).items()):
                if obj is orig:
                    self._rebind(Jet, attr, wrapped, setattr)
        return self

    def uninstall(self):
        while self._restore:
            holder, key, old, setter = self._restore.pop()
            setter(holder, key, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """{span id: self time in ns}: the span's duration minus the part of
    its interval that its child spans cover.  Spans of one thread nest, so
    the children of a span are disjoint and inside it."""
    out = {sid: end - start for sid, _, start, end, _, _ in spans}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_totals(spans):
    """{name: {"calls", "self_s", "total_s"}} summed over the spans."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for sid, name, start, end, _, _ in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += selfs[sid] * 1e-9
        rec["total_s"] += (end - start) * 1e-9
    return dict(out)
