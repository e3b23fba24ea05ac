"""In-memory spans recorded around calls into the program.

A :class:`Tracer` replaces a function on its module, or a method on one
object, with a wrapper that records a span per call, and puts the original
back in :meth:`Tracer.restore`.  Nothing under ``src/`` is edited.  Spans
stay in memory until :meth:`Tracer.dump` writes them as JSON.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.req = None  # request id given to spans opened from now on
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str, **attrs) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"id": sid, "name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "req": self.req, **attrs}
        )
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> dict:
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {sid} closed out of order")
        self._stack.pop()
        span = self.spans[sid]
        span["end"] = time.perf_counter()
        return span

    def unwind(self, sid: int) -> None:
        """Close every span down to and including ``sid`` (after an error)."""
        while self._stack and sid in self._stack:
            self.close(self._stack[-1])

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` inside a span; ``attrs(args, kwargs, out)`` adds fields."""
        sid = self.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self.unwind(sid)
        if attrs is not None:
            self.spans[sid].update(attrs(args, kwargs, out))
        return out

    # -- patching ---------------------------------------------------------
    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr = new`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``."""
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, orig, *args, attrs=attrs, **kwargs)

        self.replace(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def closed(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def total(self, name: str) -> float:
        return sum(dur(s) for s in self.closed(name))

    def self_times(self) -> dict:
        """Span duration minus the time its child spans cover, per span id."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] += dur(s)
        return {s["id"]: dur(s) - child[s["id"]] for s in self.spans if s["end"] is not None}

    def self_by_name(self) -> dict:
        out = defaultdict(float)
        for sid, t in self.self_times().items():
            out[self.spans[sid]["name"]] += t
        return dict(out)

    def self_by_layer(self) -> dict:
        """Self time per layer: the span name up to its first dot."""
        out = defaultdict(float)
        for name, t in self.self_by_name().items():
            out[name.split(".", 1)[0]] += t
        return dict(out)

    def dump(self, path, **extra) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [
            {**s, "start": s["start"] - t0,
             "end": None if s["end"] is None else s["end"] - t0}
            for s in self.spans
        ]
        doc = {**extra, "self_s_by_span": self.self_by_name(),
               "self_s_by_layer": self.self_by_layer(), "spans": spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, default=str))


def dur(span: dict) -> float:
    return span["end"] - span["start"]
