"""Order statistics and span arithmetic (no product imports)."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Sequence

import numpy as np

__all__ = [
    "SpanTotals",
    "percentile",
    "span_totals",
    "summarize",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    return float(np.percentile(values, q))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median with min/max, the shape every per-round metric is printed in."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


@dataclass
class SpanTotals:
    """All spans of one name: how many, total duration, total self time."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    @property
    def mean_s(self) -> float:
        """Mean duration of one span (0.0 when none was recorded)."""
        return self.total_s / self.count if self.count else 0.0


def span_totals(records: Iterable[Any]) -> Dict[str, SpanTotals]:
    """Aggregate ``TraceRecord`` spans by name.

    A span's self time is its duration minus the durations of its
    direct children.  Children of one parent are recorded by one thread
    and never overlap, so the subtraction is exact.
    """
    spans = [record for record in records if record.kind == "span"]
    child_time: Dict[int, float] = {}
    for record in spans:
        if record.parent_id is not None:
            child_time[record.parent_id] = (
                child_time.get(record.parent_id, 0.0) + record.duration
            )
    totals: Dict[str, SpanTotals] = {}
    for record in spans:
        entry = totals.setdefault(record.name, SpanTotals())
        entry.count += 1
        entry.total_s += record.duration
        entry.self_s += record.duration - child_time.get(record.span_id, 0.0)
    return totals
