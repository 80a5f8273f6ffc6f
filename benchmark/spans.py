"""Spans recorded by the benchmark around its calls into lpconv's modules.

A span has a name, CPU and wall start/end, an optional size tag and the
index of the span that caused it. Spans and counts stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, n: int | None = None):
        record = {"name": name, "n": n,
                  "parent": self._stack[-1] if self._stack else None,
                  "cpu0": time.process_time(), "wall0": time.perf_counter()}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["cpu1"] = time.process_time()
            record["wall1"] = time.perf_counter()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def cpu(self, name: str, keep=lambda n: True) -> float:
        """Total CPU seconds in spans of this name whose size passes `keep`."""
        return sum(s["cpu1"] - s["cpu0"] for s in self.spans
                   if s["name"] == name and keep(s["n"]))


def span(tracer: Tracer | None, name: str, n: int | None = None):
    """A span on the tracer, or nothing when the run is not traced."""
    return nullcontext() if tracer is None else tracer.span(name, n)
