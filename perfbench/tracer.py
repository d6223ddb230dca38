"""Span tracing of calls into tpfact, installed from the benchmark side.

`Tracer.install()` wraps every public module-level function and every
public method of every class defined in a `tpfact` module, and rebinds
each wrapper wherever the original is reachable: at its own module, at
the package, and in every module that bound it with `from .x import y`.
`uninstall()` puts the originals back.  Timed runs never install it.

Each call becomes one span: name (`module.function` or
`module.Class.method`), parent span, start and end in nanoseconds, and
whether it is the outermost span of its module on the stack.  Spans are
kept in flat arrays and written out once, when the run ends.  Dunder
methods and properties are not wrapped; their time counts as self time
of the calling span.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outer = array("b")
        self.max_bits = 0
        self._stack = [-1]
        self._depth = {}
        self._patches = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid, module):
        idx = len(self.start)
        depth = self._depth.get(module, 0)
        self._depth[module] = depth + 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.outer.append(depth == 0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx, module):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[module] -= 1

    def run_op(self, fn, *args):
        """Run one benchmark op under a root span."""
        idx = self._open(self._id(OP), "bench")
        try:
            return fn(*args)
        finally:
            self._close(idx, "bench")

    def _wrap(self, fn, name):
        nid = self._id(name)
        module = name.split(".", 1)[0]
        measure_bits = name == "linalg.minor"
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid, module)
            try:
                value = fn(*args, **kwargs)
            finally:
                tracer._close(idx, module)
            if measure_bits:
                tracer.max_bits = max(tracer.max_bits,
                                      value.numerator.bit_length(),
                                      value.denominator.bit_length())
            return value

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap tpfact's public callables; return the number wrapped."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "tpfact" or name.startswith("tpfact.")}
        replacements = {}
        for modname, mod in modules.items():
            short = modname.split(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    replacements[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_methods(obj, f"{short}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patch(mod, attr, obj, replacements[obj])
        return len(replacements) + len(self._patches)

    def _wrap_methods(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                wrapped = type(obj)(self._wrap(obj.__func__, name))
            elif inspect.isfunction(obj):
                wrapped = self._wrap(obj, name)
            else:
                continue
            self._patch(cls, attr, obj, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """One JSON header line, then the raw span arrays in header order."""
        fields = ("name_id", "parent", "start", "end", "outer")
        header = {"names": self.names, "spans": len(self.start),
                  "fields": [[f, getattr(self, f).typecode] for f in fields],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


class Summary:
    """Per-name aggregates of the spans with index in [lo, hi).

    For every span name: `calls`, `incl_ns` (duration summed over the
    spans that are outermost of their module, so recursion and calls
    within a module are not counted twice) and `self_ns` (duration minus
    the duration of direct child spans).  Self times of all spans add up
    to the traced time with no overlap.  `under[root][name]` counts the
    spans of `name` whose nearest ancestor named in `roots` is `root`.
    """

    def __init__(self, tracer, roots=(), lo=0, hi=None):
        names = tracer.names
        hi = len(tracer.start) if hi is None else hi
        start, end = tracer.start[lo:hi], tracer.end[lo:hi]
        name_id, outer = tracer.name_id[lo:hi], tracer.outer[lo:hi]
        parent = [p - lo for p in tracer.parent[lo:hi]]
        count = hi - lo
        dur = [e - s for s, e in zip(start, end)]
        child = [0] * count
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        k = len(names)
        calls, incl, self_ns = [0] * k, [0] * k, [0] * k
        root_ids = {tracer._ids[r] for r in roots if r in tracer._ids}
        owner = [-1] * count
        under = {}
        for i in range(count):
            nid = name_id[i]
            calls[nid] += 1
            self_ns[nid] += dur[i] - child[i]
            if outer[i]:
                incl[nid] += dur[i]
            p = parent[i]
            up = owner[p] if p >= 0 else -1
            owner[i] = nid if nid in root_ids else up
            if up >= 0:
                counts = under.setdefault(names[up], {})
                counts[names[nid]] = counts.get(names[nid], 0) + 1
        self.calls = dict(zip(names, calls))
        self.incl_ns = dict(zip(names, incl))
        self.self_ns = dict(zip(names, self_ns))
        self.under = under

    def total(self, table, prefix):
        """Sum of `table` over names equal to `prefix` or under `prefix.`."""
        return sum(v for name, v in table.items()
                   if name == prefix or name.startswith(prefix + "."))
