"""In-memory spans around calls into gsfv, installed from outside the package.

A Tracer replaces a module attribute (or a class method) with a wrapper
that records one span per call: name, start, end, the index of the span
that was open when it started, and an optional work figure. The program
looks the name up at call time, so callers inside gsfv go through the
wrapper. Spans stay in memory; summarize() turns them into per-layer
totals, self times and call counts.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans from the wrappers it installs; one thread only."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, work]
        self._open = []
        self._patches = []

    def wrap(self, name: str, fn, work=None):
        """Return fn wrapped so each call records a span named name.

        work, when given, maps the call's arguments to a number stored on
        the span (e.g. bytes an apply touches).
        """
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1,
                   work(*args, **kwargs) if work is not None else 0]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()

        return traced

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        """Replace owner.attr by its traced wrapper until restore()."""
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, work))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self, targets):
        """Patch every (owner, attr, name, work) target for the block."""
        try:
            for owner, attr, name, work in targets:
                self.patch(owner, attr, name, work)
            yield self
        finally:
            self.restore()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "work"], "spans": self.spans}, fh)


def summarize(spans) -> dict:
    """Per span name: calls, total_s, self_s and work.

    Self time is a span's duration minus the durations of its direct
    children. Calls are single-threaded and properly nested, so the
    children never overlap and their sum is the time they cover.
    """
    child_s = [0.0] * len(spans)
    for _name, start, end, parent, _work in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "work": 0})
    for i, (name, start, end, _parent, work) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_s[i]
        row["work"] += work
    return dict(out)
