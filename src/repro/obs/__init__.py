"""``repro.obs`` — the zero-dependency observability layer.

Four small pieces, re-exported here:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges and fixed-boundary histograms; deterministic snapshots.
* :mod:`repro.obs.tracing` — :class:`Tracer` spans/events with JSONL
  export and an injectable (deterministic-by-default) clock.
* :mod:`repro.obs.profiling` — the :data:`OBS` switchboard, the
  :class:`Instrument` handle off-path call sites count through, and the
  :func:`span` wall-time hook for the outer layers.
* :mod:`repro.obs.records` — the per-query records the kNN path counts
  into and flushes once per query (:class:`SennRecord`,
  :class:`ServerRecord`, :class:`CacheRecord`).

``repro.obs`` sits at rank 0 of the layering DAG (like
``repro.analysis.runtime``) so the engine's hot paths — R\\*-tree node
reads, EINN pruning, verification outcomes, cache hits — can count
without an upward import; nothing in it imports a higher layer.

Set ``REPRO_OBS=0`` to disable every hook; see
``docs/observability.md`` for the metric catalog and usage.
"""

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiling import OBS, Instrument, Obs, observed, span
from repro.obs.records import CacheRecord, SennRecord, ServerRecord
from repro.obs.tracing import LogicalClock, TraceRecord, Tracer, records_from_jsonl

__all__ = [
    "CacheRecord",
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_TIME_BUCKETS_S",
    "Gauge",
    "Histogram",
    "Instrument",
    "LogicalClock",
    "MetricsRegistry",
    "OBS",
    "Obs",
    "SennRecord",
    "ServerRecord",
    "TraceRecord",
    "Tracer",
    "observed",
    "records_from_jsonl",
    "span",
]
