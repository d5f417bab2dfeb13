"""In-memory spans recorded around the benchmark's calls into the package.

A span has a name (``<module>.<function>``), a start, an end, a parent span
and the identifier of the op it belongs to.  Spans stay in memory until the
run ends; self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records nested spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            sp = self.spans[idx]
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += sp.duration

    def per_op_totals(self, name: str) -> list[float]:
        """Summed duration of the named spans within each op that has one."""
        totals: dict[int, float] = {}
        for sp in self.spans:
            if sp.name == name:
                totals[sp.op] = totals.get(sp.op, 0.0) + sp.duration
        return list(totals.values())

    def self_time_table(self) -> dict[str, dict]:
        """Per span name: call count, total seconds and self seconds."""
        table: dict[str, dict] = {}
        for sp in self.spans:
            row = table.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += sp.duration
            row["self_s"] += sp.self_s
        return table
