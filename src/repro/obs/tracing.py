"""Structured span/event tracing with JSONL export.

A :class:`Tracer` records a flat list of :class:`TraceRecord` objects —
closed spans (with start/end timestamps and parent links) and point
events. Two properties keep traces compatible with the determinism
rules that govern the rest of the codebase (``repro.testing`` replay,
no wall-clock reads in ``repro.core`` / ``repro.index``):

* **Deterministic by default.** The default clock is a
  :class:`LogicalClock` that returns 0, 1, 2, ... — so a trace of a
  seeded scenario is byte-identical across runs and machines, and can
  be committed or diffed like any other artifact.
* **Injectable.** Pass ``clock=time.perf_counter`` for real latencies
  (the sim layer does this), or any zero-argument callable for replay.

Export is JSON Lines: one record per line, keys sorted, so traces
stream, diff and ``grep`` well. :func:`records_from_jsonl` inverts
:meth:`Tracer.to_jsonl` exactly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO

__all__ = ["LogicalClock", "TraceRecord", "Tracer", "records_from_jsonl"]


class LogicalClock:
    """Deterministic monotone clock: successive reads return 0, 1, 2, ...

    Event *order* is preserved, wall time is not — which is exactly the
    trade a replayable trace wants.
    """

    __slots__ = ("_ticks",)

    def __init__(self) -> None:
        """Start the clock at tick 0."""
        self._ticks = 0

    def __call__(self) -> float:
        """Return the current tick and advance."""
        tick = self._ticks
        self._ticks += 1
        return float(tick)


@dataclass
class TraceRecord:
    """One closed span or point event.

    ``kind`` is ``"span"`` or ``"event"``; events have ``end == start``.
    ``span_id`` is unique within a tracer, ``parent_id`` links nested
    spans (``None`` at the root). ``attrs`` carries JSON-serialisable
    user attributes.
    """

    kind: str
    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span duration in clock units (0 for events)."""
        return self.end - self.start

    def to_json(self) -> str:
        """Serialise to one sorted-key JSON line (no trailing newline)."""
        return json.dumps(
            {
                "kind": self.kind,
                "name": self.name,
                "start": self.start,
                "end": self.end,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "attrs": self.attrs,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceRecord":
        """Parse a line produced by :meth:`to_json`."""
        raw = json.loads(line)
        return cls(
            kind=raw["kind"],
            name=raw["name"],
            start=raw["start"],
            end=raw["end"],
            span_id=raw["span_id"],
            parent_id=raw["parent_id"],
            attrs=raw["attrs"],
        )


class Tracer:
    """Collects spans and events against an injectable clock.

    Records are appended when a span *closes*, so a child span appears
    before its parent in ``records`` (completion order); reconstruct
    the tree through ``parent_id`` when nesting matters.
    """

    __slots__ = ("clock", "records", "_stack", "_next_id")

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        """Create an empty tracer.

        ``clock`` defaults to a fresh deterministic
        :class:`LogicalClock`; pass ``time.perf_counter`` for wall time.
        """
        self.clock: Callable[[], float] = (
            clock if clock is not None else LogicalClock()
        )
        self.records: List[TraceRecord] = []
        self._stack: List[int] = []
        self._next_id = 0

    def _allocate_id(self) -> int:
        next_id = self._next_id
        self._next_id += 1
        return next_id

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[TraceRecord]:
        """Open a span for the duration of the ``with`` block.

        The yielded record is live: the body may add ``attrs`` entries;
        ``end`` is stamped and the record appended when the block exits
        (also on exception, with ``attrs["error"]`` set to the exception
        class name).
        """
        record = TraceRecord(
            kind="span",
            name=name,
            start=self.clock(),
            end=0.0,
            span_id=self._allocate_id(),
            parent_id=self._stack[-1] if self._stack else None,
            attrs=dict(attrs),
        )
        self._stack.append(record.span_id)
        try:
            yield record
        except BaseException as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            record.end = self.clock()
            self.records.append(record)

    def event(self, name: str, **attrs: Any) -> TraceRecord:
        """Record an instantaneous event under the current span (if any)."""
        stamp = self.clock()
        record = TraceRecord(
            kind="event",
            name=name,
            start=stamp,
            end=stamp,
            span_id=self._allocate_id(),
            parent_id=self._stack[-1] if self._stack else None,
            attrs=dict(attrs),
        )
        self.records.append(record)
        return record

    def to_jsonl(self) -> str:
        """Render all records as JSON Lines (one record per line)."""
        return "".join(record.to_json() + "\n" for record in self.records)

    def export_jsonl(self, stream: TextIO) -> int:
        """Write all records to ``stream`` as JSONL; return record count."""
        stream.write(self.to_jsonl())
        return len(self.records)


def records_from_jsonl(text: str) -> List[TraceRecord]:
    """Parse JSONL produced by :meth:`Tracer.to_jsonl` (exact inverse)."""
    return [
        TraceRecord.from_json(line)
        for line in text.splitlines()
        if line.strip()
    ]
