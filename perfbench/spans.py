"""In-memory span recorder for the traced (per-layer) run.

Spans are opened here, in the benchmark, around calls into tokcodec's public
functions; nothing inside the program is instrumented.  Each span has a name,
start, end and parent; self time is its duration minus the part covered by
its children.  Spans stay in memory and are written once, at exit.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def records(self) -> list[dict]:
        """The spans, each with its duration and self time."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [dict(s, dur=s["end"] - s["start"], self=s["end"] - s["start"] - c)
                for s, c in zip(self.spans, child)]

    def total(self, name: str, self_time: bool = False, **match) -> float:
        """Summed duration (or self time) of spans called `name` whose
        attributes equal `match`."""
        key = "self" if self_time else "dur"
        return sum(s[key] for s in self.records()
                   if s["name"] == name and all(s.get(k) == v for k, v in match.items()))

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "spans": self.records()}, f)


@contextlib.contextmanager
def patched(tracer: Tracer, module, attr: str, span_name: str, name_of=None):
    """Replace ``module.attr`` with a wrapper that opens a span per
    outermost call (recursive calls stay inside it).  ``name_of`` maps the
    call's arguments to a ``col`` attribute for the span."""
    orig = getattr(module, attr)
    depth = [0]

    def wrapper(*args, **kwargs):
        if depth[0]:
            return orig(*args, **kwargs)
        depth[0] += 1
        try:
            attrs = {"col": name_of(*args, **kwargs)} if name_of else {}
            with tracer.span(span_name, **attrs):
                return orig(*args, **kwargs)
        finally:
            depth[0] -= 1

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, orig)
