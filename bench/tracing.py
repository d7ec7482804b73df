"""In-memory spans for the traced benchmark pass.

A span records a name, its start and end on ``time.perf_counter``, the span
that opened it and the job it belongs to, plus named counts.  Spans stay in
memory until the run ends.  ``layer_totals`` folds them into per-layer sums:
self time (duration minus the time covered by direct children), number of
calls, and the sum of each count.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    job: str
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "job": self.job,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Collects nested spans; ``job`` names the job new spans belong to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = ""
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, **counts: int) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), parent, self.job, name, time.perf_counter(), counts=counts)
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, counts: Callable[..., dict[str, int]]) -> Callable:
        """``fn`` with every call recorded as a span; ``counts(result, *args)``
        gives the span's counts, and is evaluated after the span has ended."""

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            sp.counts.update(counts(out, *args))
            return out

        return traced


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``self_s``, ``calls`` and the summed counts."""
    child_time: dict[int, float] = {}
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] = child_time.get(sp.parent, 0.0) + (sp.end - sp.start)
    totals: dict[str, dict[str, float]] = {}
    for sp in spans:
        t = totals.setdefault(sp.name, {"self_s": 0.0, "calls": 0})
        t["self_s"] += (sp.end - sp.start) - child_time.get(sp.id, 0.0)
        t["calls"] += 1
        for key, value in sp.counts.items():
            t[key] = t.get(key, 0) + value
    return totals
