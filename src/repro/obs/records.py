"""Per-query records: a query counts in plain integers and flushes once.

A query on the kNN path fills one slotted record -- integer additions,
no instrument lookup, no lock, no ``OBS.enabled`` guard -- and hands it
to :meth:`~repro.obs.metrics.MetricsRegistry.apply` once, when it ends,
under a single acquisition of the registry lock.  Three records cover
the path, each held by the object that lives exactly as long as its
query and published by that owner's ``flush_tally()``:

* :class:`SennRecord` -- one ``senn_query`` (Algorithm 1): both
  verifiers' outcomes, the heap's offers, the tier that answered and
  the Section 3.3 bound state.  It is ``CandidateHeap.tally``: the heap
  is the query's state, so the verifiers and ``derive_pruning_bounds``
  reach it without a new argument.
* :class:`ServerRecord` -- one metered server query: node reads, EINN
  pruning, shipped records, and for a kNN answer its count and
  pages.  It is ``PageAccessCounter.tally``, flushed by
  ``finish_query``.
* :class:`CacheRecord` -- a host's cache lookup and store around one
  query; ``QueryCache.tally``, flushed by the host.

Each class has one table, :data:`TABLES`, in field order: a row maps
the field to the metric name and labels the per-event sites used.  A
count field holds what their ``inc()`` calls would have added over the
query, a labelled count field the enum members they would have counted
once each (tier, heap state), a histogram field the counts they would
have observed; an *explain* field reaches no metric.

A row reaches the registry when its field is set -- or, for a *gated*
row, also at zero when its gate field is set, because the site it
replaced issued ``inc(0)``: ``verify.candidates{lemma=3.2,*}`` whenever
a Lemma 3.2 batch ran, ``server.objects{*}`` whenever an answer was
shipped.  So a snapshot lists exactly the metrics the per-event sites
registered.

When ``OBS.tracer`` is installed the flush also writes the record as one
tracer event -- the *explain record* (``senn.query`` / ``server.knn``)
whose attrs are the record's set fields.  The tracer's clock stamps it,
here, so ``repro.core`` and ``repro.index`` never read a clock.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, ClassVar, Dict, NamedTuple, Optional, Sequence, Tuple, Type

from repro.obs.metrics import Counter, Histogram, LabelKey, _label_key
from repro.obs.profiling import OBS

__all__ = [
    "CacheRecord",
    "QueryRecord",
    "RecordTable",
    "Row",
    "SennRecord",
    "ServerRecord",
    "TABLES",
]

#: What a metric row resolves to: instrument kind, name, sorted labels,
#: and for a :func:`_count_each` row the label its members fill in.
MetricSlot = Tuple[Type[Any], str, LabelKey, Optional[str]]

#: Row kinds, in the order a table lists them.
_COUNT, _EACH, _OBSERVE, _EXPLAIN = range(4)


class Row(NamedTuple):
    """One field of a record and the metric it feeds."""

    field: str
    kind: int
    metric: Optional[str]
    labels: LabelKey
    label: Optional[str]
    gate: Optional[str]


def _count(field: str, metric: str, gate: Optional[str] = None, **labels: str) -> Row:
    """An ``int`` field: what ``metric{labels}.inc(n)`` calls added."""
    return Row(field, _COUNT, metric, _label_key(labels), None, gate)


def _count_each(field: str, metric: str, label: str) -> Row:
    """A tuple of enum members: each one is ``metric{label=member.value}.inc()``."""
    return Row(field, _EACH, metric, (), label, None)


def _observe(field: str, metric: str, **labels: str) -> Row:
    """A tuple of counts: each one is ``metric{labels}.observe(count)``."""
    return Row(field, _OBSERVE, metric, _label_key(labels), None, None)


def _explain(field: str) -> Row:
    """An ``int`` field the explain record shows and no metric counts."""
    return Row(field, _EXPLAIN, None, (), None, None)


class RecordTable:
    """The rows of one record class, checked against its fields.

    Rows go by kind -- counts, then labelled counts, then histograms,
    then explain -- so a flush finds the non-zero metric fields with one
    ``compress`` over the leading ``counted`` positions and tells the
    kinds apart by position (``each`` and ``histograms`` are where the
    second and third kinds start).  ``event`` names the explain record
    (``None``: never traced); ``traced_by`` names the field that must be
    set for the event to be written (``None``: every flush).
    """

    __slots__ = (
        "event", "fields", "slots", "read", "counted", "each", "histograms",
        "gated", "traced_by",
    )

    def __init__(
        self,
        record: type,
        rows: Sequence[Row],
        event: Optional[str] = None,
        traced_by: Optional[str] = None,
    ) -> None:
        """Compile ``rows``; they must name ``record``'s fields in order."""
        self.fields = tuple(spec.name for spec in dataclasses.fields(record))
        if tuple(row.field for row in rows) != self.fields:
            raise ValueError(f"{record.__name__}: rows must list its fields in order")
        kinds = [row.kind for row in rows]
        if kinds != sorted(kinds):
            raise ValueError(f"{record.__name__}: rows must be grouped by kind")
        position = {name: index for index, name in enumerate(self.fields)}
        self.event = event
        self.slots: Tuple[Optional[MetricSlot], ...] = tuple(
            None
            if row.metric is None
            else (Histogram if row.kind == _OBSERVE else Counter, row.metric, row.labels, row.label)
            for row in rows
        )
        self.read = attrgetter(*self.fields)
        self.counted = range(len(kinds) - kinds.count(_EXPLAIN))
        self.each = kinds.count(_COUNT)
        self.histograms = self.each + kinds.count(_EACH)
        self.gated = tuple(
            (index, position[row.gate])
            for index, row in enumerate(rows)
            if row.gate is not None
        )
        self.traced_by = None if traced_by is None else position[traced_by]

    def explain(self, values: Sequence[Any]) -> Dict[str, Any]:
        """The explain record's attrs: the non-zero fields, JSON-ready."""
        attrs: Dict[str, Any] = {}
        for row, (name, value) in enumerate(zip(self.fields, values)):
            if value:
                if self.each <= row < self.histograms:
                    value = [member.value for member in value]
                elif type(value) is tuple:
                    value = list(value)
                attrs[name] = value
        return attrs


class QueryRecord:
    """Base of the per-query records: slotted fields, one :meth:`flush`."""

    __slots__ = ()

    TABLE: ClassVar[RecordTable]

    def flush(self) -> None:
        """Publish the record: one registry ``apply``, one explain event.

        Call it once per record, and only while ``OBS`` is enabled: the
        owners' ``flush_tally()`` methods are the guard.
        """
        table = self.TABLE
        values = table.read(self)
        OBS.registry.apply(table, values)
        tracer = OBS.tracer
        if (
            tracer is not None
            and table.event is not None
            and (table.traced_by is None or values[table.traced_by])
        ):
            tracer.event(table.event, **table.explain(values))


@dataclass(slots=True)
class SennRecord(QueryRecord):
    """What one ``senn_query`` counted (``CandidateHeap.tally``)."""

    single_certain: int = 0
    single_uncertain: int = 0
    multi_certain: int = 0
    multi_uncertain: int = 0
    certain_stored: int = 0
    certain_rejected: int = 0
    uncertain_stored: int = 0
    uncertain_rejected: int = 0
    tiers: Tuple[Any, ...] = ()
    bound_states: Tuple[Any, ...] = ()
    single_sizes: Tuple[int, ...] = ()
    multi_sizes: Tuple[int, ...] = ()
    peers: int = 0
    server_pages: int = 0


@dataclass(slots=True)
class ServerRecord(QueryRecord):
    """What one metered server query counted (``PageAccessCounter.tally``)."""

    index_reads: int = 0
    leaf_reads: int = 0
    pruned_upward: int = 0
    pruned_downward: int = 0
    shipped: int = 0
    skipped: int = 0
    knn_einn: int = 0
    pages_einn: Tuple[int, ...] = ()
    answers: int = 0


@dataclass(slots=True)
class CacheRecord(QueryRecord):
    """A host's cache lookups and stores (``QueryCache.tally``)."""

    lookup_hit: int = 0
    lookup_miss: int = 0
    stored: int = 0
    stored_truncated: int = 0


#: Every record's table, in field order.  The gates are the ``inc(0)``
#: registrations of the per-event sites (module docstring).
TABLES: Dict[Type[QueryRecord], RecordTable] = {
    SennRecord: RecordTable(
        SennRecord,
        (
            _count("single_certain", "verify.candidates", gate="single_sizes",
                   lemma="3.2", outcome="certain"),
            _count("single_uncertain", "verify.candidates", gate="single_sizes",
                   lemma="3.2", outcome="uncertain"),
            _count("multi_certain", "verify.candidates", lemma="3.8", outcome="certain"),
            _count("multi_uncertain", "verify.candidates", lemma="3.8", outcome="uncertain"),
            _count("certain_stored", "heap.offers", certain="true", outcome="stored"),
            _count("certain_rejected", "heap.offers", certain="true", outcome="rejected"),
            _count("uncertain_stored", "heap.offers", certain="false", outcome="stored"),
            _count("uncertain_rejected", "heap.offers", certain="false", outcome="rejected"),
            _count_each("tiers", "senn.queries", "tier"),
            _count_each("bound_states", "bounds.derived", "state"),
            _observe("single_sizes", "verify.batch_size", lemma="3.2"),
            _observe("multi_sizes", "verify.batch_size", lemma="3.8"),
            _explain("peers"),
            _explain("server_pages"),
        ),
        event="senn.query",
    ),
    ServerRecord: RecordTable(
        ServerRecord,
        (
            _count("index_reads", "rtree.node_reads", kind="index"),
            _count("leaf_reads", "rtree.node_reads", kind="leaf"),
            _count("pruned_upward", "einn.pruned_mbrs", rule="upward"),
            _count("pruned_downward", "einn.pruned_mbrs", rule="downward"),
            _count("shipped", "server.objects", gate="answers", outcome="shipped"),
            _count("skipped", "server.objects", gate="answers", outcome="skipped"),
            _count("knn_einn", "server.knn_queries", algorithm="einn"),
            _observe("pages_einn", "server.pages_per_query", algorithm="einn"),
            _explain("answers"),
        ),
        event="server.knn",
        traced_by="answers",
    ),
    CacheRecord: RecordTable(
        CacheRecord,
        (
            _count("lookup_hit", "cache.lookups", outcome="hit"),
            _count("lookup_miss", "cache.lookups", outcome="miss"),
            _count("stored", "cache.stores", truncated="false"),
            _count("stored_truncated", "cache.stores", truncated="true"),
        ),
    ),
}

for _record, _table in TABLES.items():
    _record.TABLE = _table
del _record, _table
