"""In-process span tracer for the traced run.

Spans are recorded only at the program's public layer boundaries, by
replacing a module or class attribute with a wrapper for the duration of a
``with tracer.patched(...)`` block. Each span is ``(name, start, end, parent)``
with ``parent`` the index of the enclosing span (-1 at the top). A layer's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self._child: list[float] = []  # child-covered time per span
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped in a span; ``count(args, result)`` -> (counter, n)
        pairs added to :attr:`counts`."""
        spans, child, stack, counts = self.spans, self._child, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, clock(), 0.0, parent]
            spans.append(span)
            child.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    child[parent] += end - span[1]
            if count is not None:
                for key, n in count(args, result):
                    counts[key] += n
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Temporarily replace attributes: ``targets`` is a list of
        ``(owner, attribute, span_name, count_fn_or_None)``."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, count))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {total_s, self_s, calls}."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for (name, start, end, _), covered in zip(self.spans, self._child):
            s = out[name]
            s["total_s"] += end - start
            s["self_s"] += end - start - covered
            s["calls"] += 1
        return dict(out)

    def write(self, path) -> None:
        """Spans as CSV: name,start_s,end_s,parent."""
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                f.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
