"""In-memory spans around calls into the dfs_frontier modules.

A span is (name, start, end, parent, counts): `parent` is the index of the
span that was open when this one started (-1 for a root), and `counts`
holds exact work counts taken from the call's arguments or result. Spans
are kept in a list and written out once, when the traced process ends.

`instrument` wraps public functions of the package by rebinding every
module attribute that refers to them, so calls made from inside the package
(run_fast calling component_census, say) are recorded too. Nothing under
src/ changes; the wrapping lives only in the traced benchmark process.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def _begin(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        rec = [name, perf_counter(), 0.0, parent, None]
        self.spans.append(rec)
        self._open.append(idx)
        return rec

    def _end(self, rec):
        rec[END] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        rec = self._begin(name)
        try:
            yield rec
        finally:
            self._end(rec)

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span; count(args, kwargs, result) -> dict."""
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if count is not None:
                rec[COUNTS] = count(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def instrument(tracer, package, targets):
    """Wrap each target in a span, everywhere the package refers to it.

    `targets` maps "module.attr" (or "module.Class.method" for a
    classmethod) to a count function or None. The span name is the key.
    """
    modules = [m for name, m in sys.modules.items()
               if name == package or name.startswith(package + ".")]
    for key, count in targets.items():
        parts = key.split(".")
        owner = sys.modules[f"{package}.{parts[0]}"]
        if len(parts) == 3:
            cls = getattr(owner, parts[1])
            func = cls.__dict__[parts[2]].__func__
            setattr(cls, parts[2], classmethod(tracer.wrap(key, func, count)))
            continue
        original = getattr(owner, parts[1])
        wrapper = tracer.wrap(key, original, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

class SpanTree:
    """Self times and sums over a list of spans.

    Parents always precede their children in the list, so one forward pass
    finds each span's root and one pass finds each span's child time.
    """

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        child = [0.0] * n
        root = list(range(n))
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child[p] += s[END] - s[START]
                root[i] = root[p]
        self.self_time = [s[END] - s[START] - child[i]
                          for i, s in enumerate(spans)]
        self.root_name = [spans[r][NAME] for r in root]

    def _select(self, name, roots):
        for i, s in enumerate(self.spans):
            if self.root_name[i] in roots and name in (None, s[NAME]):
                yield i, s

    def total(self, name, roots):
        """Summed duration of every span called `name` under `roots`."""
        return sum(s[END] - s[START] for _, s in self._select(name, roots))

    def self_total(self, name, roots):
        return sum(self.self_time[i] for i, _ in self._select(name, roots))

    def count(self, name, key, roots):
        return sum((s[COUNTS] or {}).get(key, 0)
                   for _, s in self._select(name, roots))

    def calls(self, name, roots):
        return sum(1 for _ in self._select(name, roots))

    def module_self(self, root):
        """Self time per module (first name component) under one root.

        The root span's own self time is returned under the root's name:
        it is the part of the root interval no instrumented call covers.
        """
        out = {}
        for i, s in self._select(None, (root,)):
            key = s[NAME].split(".")[0] if s[PARENT] >= 0 else root
            out[key] = out.get(key, 0.0) + self.self_time[i]
        return out

    def root_duration(self, root):
        return self.total(root, (root,))
