"""In-memory spans around the benchmark's calls into the program.

A span is (name, start, end, parent index, op id).  Spans live in a list
until the run ends; self time is a span's duration minus the time its
child spans cover.  ``Untraced`` has the same interface and calls
straight through, so one op body serves the timed and the traced runs.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Untraced:
    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (self time in ms summed over the run, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += (end - start - child[i]) * 1000.0
            out[name][1] += 1
        return {name: (ms, calls) for name, (ms, calls) in out.items()}

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
