"""In-memory span and counter recorder for the traced benchmark run.

A span is a named interval with a parent and optional attributes; spans
opened while another is open become its children. Counters are named
running totals. Everything stays in memory until `to_dict` serializes it
at the end of a run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def open(self, name: str, start: float | None = None) -> Span:
        span = self._new(name, self.clock() if start is None else start, None)
        self._open.append(span.id)
        return span

    def close(self, span: Span) -> None:
        if not self._open or self._open[-1] != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._open.pop()
        span.end = self.clock()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def add(self, name: str, start: float, end: float) -> Span:
        """Record an already finished interval under the innermost open span."""
        return self._new(name, start, end)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _new(self, name: str, start: float, end: float | None) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, start, end, parent)
        self.spans.append(span)
        return span

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of the span's interval its children cover."""
        covered = 0.0
        reach = span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def to_dict(self) -> dict:
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return {"spans": [asdict(s) for s in self.spans], "counters": dict(self.counters)}

    @classmethod
    def from_dict(cls, data: dict) -> "Recorder":
        rec = cls()
        rec.spans = [Span(**s) for s in data["spans"]]
        rec.counters = dict(data["counters"])
        return rec
