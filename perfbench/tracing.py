"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark around its calls into the program
(voxelize, warm, run, map, estimate, submit), never inside the program.
Each span carries a name, start and end on the ``perf_counter`` clock,
the id of the span that caused it, and the request id shared by every
span of one frame or request.  Nothing is written until the run ends.
"""

from __future__ import annotations

import contextvars
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

_current: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    span_id: int
    name: str
    request_id: int
    parent_id: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a disabled tracer records nothing and costs one branch."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.annotations: List[dict] = []

    @contextmanager
    def span(
        self, name: str, request_id: Optional[int] = None,
        start: Optional[float] = None,
    ) -> Iterator[Optional[Span]]:
        """Record ``name`` around the body, as a child of the current span.

        ``start`` back-dates the span (an open-loop request starts when it
        was due, not when the generator got to it).
        """
        if not self.enabled:
            yield None
            return
        parent = _current.get()
        if request_id is None:
            request_id = parent.request_id if parent is not None else -1
        span = Span(
            span_id=len(self.spans),
            name=name,
            request_id=request_id,
            parent_id=parent.span_id if parent is not None else None,
            start=time.perf_counter() if start is None else start,
        )
        self.spans.append(span)
        token = _current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _current.reset(token)

    def annotate(self, kind: str, request_id: int, **fields) -> None:
        """Attach non-timing data (e.g. modeled per-layer cycles) to a request."""
        if self.enabled:
            self.annotations.append(
                {"kind": kind, "request_id": request_id, **fields}
            )

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus its children's coverage."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            covered = _covered(span, children.get(span.span_id, ()))
            out.setdefault(span.name, []).append(span.duration - covered)
        return out

    def self_time_medians_ms(self) -> Dict[str, float]:
        return {
            name: statistics.median(values) * 1e3
            for name, values in sorted(self.self_times().items())
        }

    def dump(self, path: Path, **header) -> None:
        """Write every span and annotation as one JSON document."""
        origin = min((span.start for span in self.spans), default=0.0)
        doc = {
            **header,
            "self_time_median_ms": self.self_time_medians_ms(),
            "spans": [
                {
                    "id": span.span_id,
                    "name": span.name,
                    "request": span.request_id,
                    "parent": span.parent_id,
                    "start_s": span.start - origin,
                    "end_s": span.end - origin,
                }
                for span in self.spans
            ],
            "annotations": self.annotations,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def _covered(span: Span, children) -> float:
    """Length of the part of ``span`` covered by the union of ``children``."""
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
    )
    covered = 0.0
    cursor = span.start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
