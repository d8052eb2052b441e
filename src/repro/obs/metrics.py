"""In-process metrics primitives: counters, gauges and histograms.

The registry is the passive half of the observability layer
(:mod:`repro.obs`): instrumented call sites in the engine increment
metrics through the :data:`repro.obs.profiling.OBS` switchboard, and
readers (``bench_e2e``'s traced pass, tests) pull deterministic
snapshots back out.

Design constraints, in order:

* **Zero dependencies.** Stdlib plus the rank-0 runtime sanitizer
  (:mod:`repro.analysis.runtime`, which itself imports nothing);
  importable from rank-0 of the layering DAG (below ``repro.index``
  and ``repro.core``).
* **Determinism.** Snapshots are sorted by ``(name, labels)``; two runs
  of the same workload produce byte-identical snapshots. Nothing in
  this module reads a clock or an RNG.
* **Thread safety.** The service era mutates metrics from client
  threads and the server's event-loop thread at once.  One registry
  lock (``MetricsRegistry._lock``, handed down into every instrument it
  creates) guards both the get-or-create probes and the instrument
  mutators, so concurrent ``inc()`` calls never lose updates.  Under
  ``REPRO_SANITIZE=1`` each mutation additionally reports to the race
  sanitizer, which checks the owning guard is actually held.
* **Cheap where it is called often.** Every event that reaches an
  instrument on its own pays a lock round trip and the frames around
  it.  The kNN query path therefore does not count event by event: it
  adds plain integers to a per-query record (:mod:`repro.obs.records`)
  and :meth:`MetricsRegistry.apply` takes the whole record -- a SENN
  query's eight or so events, a served query's dozen -- under one
  acquisition.  Off-path sites (splits, range and window queries, the
  service, the simulator) hold their instruments through
  :class:`repro.obs.profiling.Instrument` and pay per event.  Measured
  costs: the table and script in ``docs/observability.md``.  The
  *disabled* path never reaches this module at all (handle sites and
  record flushes guard on ``OBS.enabled`` first), which is what keeps
  the <=2% disabled-overhead budget intact.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.analysis.runtime import SANITIZER, TrackedLock, named_lock

if TYPE_CHECKING:  # records import this module at run time
    from repro.obs.records import RecordTable

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_TIME_BUCKETS_S",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram boundaries for wall-time observations, in seconds.
#: Spans six decades: 10 microseconds (a guarded counter bump plus loop
#: overhead) up to 10 seconds (a FULL-quality sim window).
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
)

#: Default histogram boundaries for count-valued observations (pages per
#: query, candidates per verification, ...). 1-2-5 ladder up to 1000.
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1000.0,
)

#: Canonical label representation: ``(key, value)`` pairs sorted by key.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    """Normalise a label mapping into the sorted tuple used as dict key."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _render_name(name: str, labels: LabelKey) -> str:
    """Render ``name{k=v,...}`` for snapshots (bare ``name`` if unlabelled)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically non-decreasing count.

    Counters may only go up: ``inc`` rejects negative amounts so that a
    registry snapshot taken later in a run always dominates an earlier
    one, which is what makes delta-based accounting (SQRR shares) sound.
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(
        self, name: str, labels: LabelKey, lock: Optional[TrackedLock] = None
    ) -> None:
        """Create a zero-valued counter. Use the registry, not this."""
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = lock if lock is not None else named_lock("Counter._lock")

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter; must be >= 0."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        with self._lock:
            self._value += amount
            if SANITIZER.enabled:
                SANITIZER.note_metric_mutation(self.name, self._lock.name)

    @property
    def value(self) -> float:
        """Current accumulated count."""
        return self._value


class Gauge:
    """A point-in-time value that can move both ways (e.g. heap size)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(
        self, name: str, labels: LabelKey, lock: Optional[TrackedLock] = None
    ) -> None:
        """Create a zero-valued gauge. Use the registry, not this."""
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = lock if lock is not None else named_lock("Gauge._lock")

    def set(self, value: float) -> None:
        """Replace the gauge's current value."""
        with self._lock:
            self._value = float(value)
            if SANITIZER.enabled:
                SANITIZER.note_metric_mutation(self.name, self._lock.name)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount
            if SANITIZER.enabled:
                SANITIZER.note_metric_mutation(self.name, self._lock.name)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        with self._lock:
            self._value -= amount
            if SANITIZER.enabled:
                SANITIZER.note_metric_mutation(self.name, self._lock.name)

    @property
    def value(self) -> float:
        """Current gauge value."""
        return self._value


class Histogram:
    """A fixed-boundary histogram with cumulative-friendly semantics.

    Bucket ``i`` counts observations ``v <= boundaries[i]`` that did not
    fit an earlier bucket (Prometheus ``le`` semantics, stored
    non-cumulatively); one overflow bucket catches everything above the
    last boundary. Boundaries are fixed at creation — merging and
    diffing histograms across runs needs identical buckets, so there is
    deliberately no dynamic resizing.
    """

    __slots__ = (
        "name",
        "labels",
        "boundaries",
        "bucket_counts",
        "_sum",
        "_count",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        boundaries: Sequence[float],
        lock: Optional[TrackedLock] = None,
    ) -> None:
        """Create an empty histogram. Use the registry, not this."""
        if not boundaries:
            raise ValueError(f"histogram {name!r} needs at least one boundary")
        ordered = tuple(float(b) for b in boundaries)
        if any(b >= a for b, a in zip(ordered, ordered[1:])):
            raise ValueError(
                f"histogram {name!r} boundaries must be strictly increasing: "
                f"{ordered}"
            )
        self.name = name
        self.labels = labels
        self.boundaries = ordered
        self.bucket_counts: List[int] = [0] * (len(ordered) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = lock if lock is not None else named_lock("Histogram._lock")

    def observe(self, value: float) -> None:
        """Record one observation.

        A value exactly equal to a boundary lands in that boundary's
        bucket (``le`` semantics); values above the last boundary land
        in the overflow bucket.
        """
        with self._lock:
            self.bucket_counts[bisect_left(self.boundaries, value)] += 1
            self._sum += value
            self._count += 1
            if SANITIZER.enabled:
                SANITIZER.note_metric_mutation(self.name, self._lock.name)

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Arithmetic mean of observations (0.0 when empty)."""
        if self._count == 0:
            return 0.0
        return self._sum / self._count


#: Any metric instrument stored in a registry.
Metric = Union[Counter, Gauge, Histogram]

_M = TypeVar("_M", bound=Metric)


class MetricsRegistry:
    """Get-or-create store of metrics keyed on ``(name, sorted labels)``.

    One registry instance backs the global :data:`repro.obs.OBS`
    switchboard; tests swap in fresh ones.
    """

    __slots__ = ("_metrics", "_lock", "generation", "_resolved")

    def __init__(self) -> None:
        """Create an empty registry."""
        self._metrics: Dict[Tuple[str, LabelKey], Metric] = {}
        # Bumped by reset(); Instrument handles key their cache on
        # (registry, generation) so an in-place reset invalidates them.
        self.generation = 0
        # One lock guards the registry map *and* every instrument it
        # creates: the instruments' hot mutators and the get-or-create
        # probes never interleave, and the lock-order graph stays a
        # single canonical node (see config.LOCK_ALIASES).
        self._lock = named_lock("MetricsRegistry._lock")
        # apply()'s state per record table: the row instruments (in row
        # order) and the gated rows still to register; reset() drops it
        # with the instruments it points into.
        self._resolved: Dict["RecordTable", Tuple[List[Any], List[Tuple[int, int]]]] = {}

    def _get_or_create(
        self,
        kind: Type[_M],
        name: str,
        labels: Mapping[str, object],
        boundaries: Optional[Sequence[float]] = None,
    ) -> _M:
        """The ``kind`` instrument at ``(name, labels)``, created on a miss.

        ``boundaries`` is for histograms: the ladder of a new one
        (default :data:`DEFAULT_TIME_BUCKETS_S`), and a conflict with an
        existing one raises instead of silently rebucketing.
        """
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = self._new(kind, key, boundaries)
            return self._checked(metric, kind, boundaries)

    def _new(
        self,
        kind: Type[_M],
        key: Tuple[str, LabelKey],
        boundaries: Optional[Sequence[float]],
    ) -> _M:
        """A fresh ``kind`` instrument sharing the registry lock."""
        make: Callable[..., _M] = kind
        if kind is Histogram:
            if boundaries is None:
                boundaries = DEFAULT_TIME_BUCKETS_S
            return make(key[0], key[1], boundaries, lock=self._lock)
        return make(key[0], key[1], lock=self._lock)

    @staticmethod
    def _checked(
        metric: Metric, kind: Type[_M], boundaries: Optional[Sequence[float]]
    ) -> _M:
        """``metric`` if it is a ``kind`` (with ``boundaries``); else raise."""
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {metric.name!r} already registered as "
                f"{type(metric).__name__}"
            )
        if (
            boundaries is not None
            and isinstance(metric, Histogram)
            and tuple(float(b) for b in boundaries) != metric.boundaries
        ):
            raise ValueError(
                f"histogram {metric.name!r} already registered with boundaries "
                f"{metric.boundaries}"
            )
        return metric

    def apply(self, table: "RecordTable", values: Sequence[Any]) -> None:
        """Apply one per-query record under a single lock acquisition.

        ``values`` are the record's fields in ``table`` order (see
        :mod:`repro.obs.records`).  Every non-zero metric field is
        applied -- a count adds its value, a labelled count adds one per
        member it holds, a histogram (count buckets) observes every
        number it holds -- and a gated field also at zero while its gate
        is set.  An instrument is resolved once per registry generation,
        on its first update, so the metrics registered are those one
        ``inc``/``observe`` per event would have left.
        """
        each, histograms, note = table.each, table.histograms, SANITIZER.enabled
        with self._lock:
            state = self._resolved.get(table)
            if state is None:
                state = self._resolved[table] = ([None] * len(table.slots), list(table.gated))
            resolved, gates = state
            rows = list(compress(table.counted, values))
            if gates:  # a gated row not yet registered registers at zero
                for row, gate in gates:
                    if values[gate] and not values[row]:
                        rows.append(row)
            for row in rows:
                metric = resolved[row]
                if metric is None:
                    slot = table.slots[row]
                    assert slot is not None, f"{table.fields[row]!r} is explain-only"
                    kind, name, labels, _ = slot
                    if each <= row < histograms:
                        metric = resolved[row] = {}  # member -> its counter
                    else:
                        boundaries = DEFAULT_COUNT_BUCKETS if kind is Histogram else None
                        key = (name, labels)
                        metric = self._metrics.get(key)
                        if metric is None:
                            metric = self._metrics[key] = self._new(kind, key, boundaries)
                        metric = resolved[row] = self._checked(metric, kind, boundaries)
                        if gates:
                            gates[:] = [pair for pair in gates if pair[0] != row]
                if row < each:
                    metric._value += values[row]
                elif row < histograms:
                    for member in values[row]:
                        counter = metric.get(member)
                        if counter is None:
                            _, name, labels, label = table.slots[row]
                            key = (name, tuple(sorted(labels + ((label, member.value),))))
                            counter = self._metrics.get(key)
                            if counter is None:
                                counter = self._metrics[key] = self._new(Counter, key, None)
                            counter = metric[member] = self._checked(counter, Counter, None)
                        counter._value += 1
                        if note:
                            SANITIZER.note_metric_mutation(counter.name, self._lock.name)
                    continue
                else:
                    for sample in values[row]:
                        metric.bucket_counts[bisect_left(metric.boundaries, sample)] += 1
                        metric._sum += sample
                        metric._count += 1
                if note:
                    SANITIZER.note_metric_mutation(metric.name, self._lock.name)

    def counter(self, name: str, **labels: object) -> Counter:
        """Return the counter for ``(name, labels)``, creating it at 0."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Return the gauge for ``(name, labels)``, creating it at 0."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        boundaries: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        """Return the histogram for ``(name, labels)``, creating it empty.

        ``boundaries`` defaults to :data:`DEFAULT_TIME_BUCKETS_S`; when
        the histogram already exists, a conflicting ``boundaries``
        argument raises instead of silently rebucketing.
        """
        return self._get_or_create(Histogram, name, labels, boundaries)

    def value(self, name: str, **labels: object) -> float:
        """Value of the counter/gauge at ``(name, labels)``; 0.0 if absent."""
        metric = self._metrics.get((name, _label_key(labels)))
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a histogram; read .sum/.count")
        return metric.value

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across all of its label sets."""
        acc = 0.0
        with self._lock:
            instruments = list(self._metrics.items())
        for (metric_name, _), metric in instruments:
            if metric_name == name and not isinstance(metric, Histogram):
                acc += metric.value
        return acc

    def label_values(self, name: str, label: str) -> Dict[str, float]:
        """Per-label-value totals for one counter/gauge family.

        ``label_values("senn.queries", "tier")`` returns e.g.
        ``{"single_peer": 12.0, "server": 3.0}``; label sets without
        the requested label key are skipped.
        """
        out: Dict[str, float] = {}
        with self._lock:
            instruments = list(self._metrics.items())
        for (metric_name, labels), metric in instruments:
            if metric_name != name or isinstance(metric, Histogram):
                continue
            for key, value in labels:
                if key == label:
                    out[value] = out.get(value, 0.0) + metric.value
        return out

    def __iter__(self) -> Iterator[Metric]:
        """Iterate metrics in deterministic ``(name, labels)`` order.

        The order is materialized under the lock, then yielded outside
        it: the (non-reentrant) registry lock must not be held across
        consumer code that may itself touch an instrument.
        """
        with self._lock:
            ordered = [self._metrics[key] for key in sorted(self._metrics)]
        yield from ordered

    def __len__(self) -> int:
        """Number of registered metric instruments."""
        return len(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """Deterministic flat snapshot of every metric.

        Counters and gauges map ``name{k=v}`` to their float value;
        histograms map to ``{"count", "sum", "boundaries", "buckets"}``.
        Key order is sorted, so ``json.dumps`` of two identical runs is
        byte-identical — this is what the golden tests commit.
        """
        out: Dict[str, object] = {}
        for metric in self:
            rendered = _render_name(metric.name, metric.labels)
            if isinstance(metric, Histogram):
                out[rendered] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "boundaries": list(metric.boundaries),
                    "buckets": list(metric.bucket_counts),
                }
            else:
                out[rendered] = metric.value
        return out

    def reset(self) -> None:
        """Drop every metric (used between bench sections and by tests)."""
        with self._lock:
            self._metrics.clear()
            self._resolved.clear()
            self.generation += 1
