"""Span recorder for the traced benchmark run.

``SpanRecorder`` replaces every public function bound in a contrablock
module namespace (and every public static method of a contrablock class,
such as ``Graph.from_edges``) with a wrapper that records a span, and puts
the originals back on exit.  Calls between modules resolve names through
the caller's namespace, so patching each namespace that binds a name makes
those calls visible; each wrapper also knows which namespace it was bound
in, which attributes calls to their calling module.

A span is (query, id, parent, name, start, end).  Self time is a span's
duration minus the durations of its child spans, accumulated per name as
the spans close.  Spans stay in memory, up to ``MAX_SPANS``, and are
written out by ``write_spans``; past the cap only the per-name totals grow.
The recorder also counts the ``trace`` of every ``Decision`` that
``contraction_vc.algorithm1`` returns, which names the branch it took.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

MAX_SPANS = 50_000
ALGORITHM1 = "contraction_vc.algorithm1"


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class SpanRecorder:
    def __init__(self, modules):
        self.modules = list(modules)
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.calls_from: Counter = Counter()  # (name, calling module) -> calls
        self.branches: Counter = Counter()  # Decision.trace of algorithm1 -> calls
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._query = -1
        self._next_id = 0
        self._origin = time.perf_counter()
        # stored spans, column-wise
        self.span_query = array("l")
        self.span_id = array("l")
        self.span_parent = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._index[name]

    def _wrap(self, fn, name: str, caller: str):
        idx = self._name_index(name)
        counts_branch = name == ALGORITHM1
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = rec._stack
            parent = stack[-1][1] if stack else -1
            sid = rec._next_id
            rec._next_id += 1
            frame = [idx, sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                rec.calls[idx] += 1
                rec.self_s[idx] += dur - frame[2]
                rec.calls_from[name, caller] += 1
                if len(rec.span_id) < MAX_SPANS:
                    rec.span_query.append(rec._query)
                    rec.span_id.append(sid)
                    rec.span_parent.append(parent)
                    rec.span_name.append(idx)
                    rec.span_start.append(start - rec._origin)
                    rec.span_end.append(end - rec._origin)
                else:
                    rec.dropped += 1
            if counts_branch:
                rec.branches[result.trace] += 1
            return result

        return span

    def __enter__(self) -> "SpanRecorder":
        patched_classes: set[int] = set()
        for mod in self.modules:
            caller = _short(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not getattr(obj, "__module__", "").startswith("contrablock"):
                    continue
                if inspect.isfunction(obj):
                    name = f"{_short(obj.__module__)}.{obj.__qualname__}"
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(obj, name, caller))
                elif inspect.isclass(obj) and id(obj) not in patched_classes:
                    patched_classes.add(id(obj))
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") or not isinstance(raw, staticmethod):
                            continue
                        name = f"{_short(obj.__module__)}.{obj.__qualname__}.{meth}"
                        self._saved.append((obj, meth, raw))
                        # a class attribute is shared, so its calling module is unknown
                        setattr(obj, meth, staticmethod(self._wrap(raw.__func__, name, "?")))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_query(self, query: int) -> None:
        self._query = query
        self._stack.clear()

    def write_spans(self, path: str, labels: list[str]) -> None:
        """Tab-separated spans, times in microseconds from recorder creation;
        ``labels[q]`` is the argv of query number q."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("query\tspan\tparent\tname\tstart_us\tend_us\targv\n")
            for i in range(len(self.span_id)):
                q = self.span_query[i]
                fh.write(
                    f"{q}\t{self.span_id[i]}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] * 1e6:.1f}\t{self.span_end[i] * 1e6:.1f}\t{labels[q]}\n"
                )
