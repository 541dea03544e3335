"""Spans recorded around the benchmark's calls into the library.

A span is one timed call: its name, the public function it wraps, start and
end (``time.perf_counter`` seconds), the span that encloses it and the op it
belongs to.  Spans are kept in memory and written out once, when the run
ends.  With tracing off, ``call`` is a plain function call.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _call_name(fn) -> str:
    """``module.qualname`` of a function, or of the ``__call__`` of a callable object."""
    if hasattr(fn, "__qualname__"):
        return f"{fn.__module__}.{fn.__qualname__}"
    cls = type(fn)
    return f"{cls.__module__}.{cls.__qualname__}.__call__"


class Tracer:
    """In-memory span recorder; ``enabled`` is switched per op by the caller."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # dicts: op, id, parent, name, call, start, end
        self._stack = []
        self._op = None

    def begin_op(self, op_id, traced: bool) -> None:
        self._op = op_id
        self.enabled = traced

    @contextmanager
    def span(self, name: str, call: str | None = None):
        if not self.enabled:
            yield
            return
        rec = {
            "op": self._op,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "call": call,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span called ``name`` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, _call_name(fn)):
            return fn(*args, **kwargs)

    def self_times(self) -> dict:
        """Total self time per span name: duration minus that of direct children.

        Children of one span run one after another inside it, so their
        durations add up to the part of the parent they cover.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
        return dict(out)

    def write(self, path, t0: float) -> None:
        """Write every span, with times relative to ``t0``."""
        rows = [
            dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")
