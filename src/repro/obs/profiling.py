"""The ``OBS`` switchboard and cheap profiling hooks.

This module is the single runtime gate for all instrumentation, built
on the same pattern as :data:`repro.analysis.runtime.SANITIZER`: one
module-level singleton with a plain ``enabled`` attribute, so the
disabled fast path at every instrumented call site is exactly

.. code-block:: python

    _SPLITS = Instrument(Counter, "rtree.splits", "policy")  # module top
    ...
    if OBS.enabled:
        _SPLITS("rstar").inc()

— one attribute read and a falsy branch (~30 ns), nothing else. The
observability layer ships *enabled* (the paper's results are counters);
``REPRO_OBS=0`` turns every hook into that single guarded read, which
is the mode the ≤2 % quickstart-overhead budget is asserted against
(``tests/test_obs_overhead.py``).  :class:`Instrument` is how an
off-path call site reaches a metric: it holds the instrument across
calls, so an enabled event costs a dict probe plus ``inc()`` instead of
a registry get-or-create.  The kNN query path does not count event by
event at all: it fills the per-query records of
:mod:`repro.obs.records`, and their owners guard the one flush per
query on the same ``OBS.enabled`` (measured costs:
``docs/observability.md``).

One time-based hook lives here rather than in the engine: the
:func:`span` context manager, which reads ``time.perf_counter``. It is
therefore **only** for the outer layers (``repro.sim``, experiments) —
``repro.core`` / ``repro.index`` must stay bit-exact replayable (the
difftest oracles and golden digests compare their outputs) and restrict
themselves to counter increments.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Generic,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from repro.obs.metrics import DEFAULT_TIME_BUCKETS_S, Metric, MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = ["Instrument", "OBS", "Obs", "observed", "span"]

_FALSY = {"0", "false", "no", "off"}

_ENV_FLAG = "REPRO_OBS"


def _enabled_from_env() -> bool:
    """Read the ``REPRO_OBS`` flag (default: enabled)."""
    return os.environ.get(_ENV_FLAG, "1").strip().lower() not in _FALSY


class Obs:
    """Process-wide observability state: the on/off flag, registry, tracer.

    ``enabled`` is a plain attribute (no property indirection) so the
    hot-path guard stays a single ``LOAD_ATTR``. ``tracer`` is ``None``
    unless tracing was explicitly requested — metrics are cheap enough
    to default on, span records are not.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self, enabled: bool) -> None:
        """Create a switchboard with a fresh empty registry, no tracer."""
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.tracer: Optional[Tracer] = None


#: The process-wide switchboard. Import the singleton, not the class.
OBS = Obs(_enabled_from_env())

_M = TypeVar("_M", bound=Metric)


class Instrument(Generic[_M]):
    """One metric family, declared at module top and held across calls.

    Declared with its kind (:class:`Counter`, :class:`Gauge` or
    :class:`Histogram`), metric name and label *names* (plus
    ``boundaries`` for a histogram); called with the label *values* —
    strings, one per name — it returns that instrument of the **current**
    ``OBS.registry``.  Declaring registers nothing: the instrument is
    created by its first event in each registry, so the set of
    registered metrics is what a per-call ``registry.counter(...)``
    lookup would have left.  Instruments are cached per registry
    *generation*: replacing ``OBS.registry`` or resetting it in place
    both start a fresh cache.  Call it under ``if OBS.enabled:``.
    """

    __slots__ = ("_kind", "_name", "_label_names", "_boundaries", "_state")

    def __init__(
        self,
        kind: Type[_M],
        name: str,
        *label_names: str,
        boundaries: Optional[Sequence[float]] = None,
    ) -> None:
        """Declare the family; nothing is registered until it is called."""
        self._kind = kind
        self._name = name
        self._label_names = label_names
        self._boundaries = boundaries
        #: (registry, its generation, label values -> instrument).  Only
        #: ever replaced whole, in one assignment: when one thread swaps
        #: registries every other thread sees the old triple or the new
        #: one, never a new registry paired with the old instruments.
        self._state: Tuple[
            Optional[MetricsRegistry], int, Dict[Tuple[str, ...], _M]
        ] = (None, -1, {})

    def __call__(self, *values: str) -> _M:
        """The instrument for ``values`` in the current registry."""
        registry = OBS.registry
        state = self._state
        if state[0] is not registry or state[1] != registry.generation:
            state = (registry, registry.generation, {})
            self._state = state  # repro: guarded-by(cache)
        instrument = state[2].get(values)
        if instrument is None:
            instrument = state[2][values] = self._create(registry, values)
        return instrument

    def _create(self, registry: MetricsRegistry, values: Tuple[str, ...]) -> _M:
        names = self._label_names
        if len(values) != len(names) or not all(type(v) is str for v in values):
            # str only: a cache keyed on raw values would hand ``1`` the
            # instrument of ``True``, which ``str()`` keeps apart.
            raise TypeError(
                f"metric {self._name!r} takes {len(names)} string label "
                f"value(s) {names}, got {values!r}"
            )
        return registry._get_or_create(
            self._kind, self._name, dict(zip(names, values)), self._boundaries
        )


@contextmanager
def observed(
    enabled: bool = True, tracer: Optional[Tracer] = None
) -> Iterator[Obs]:
    """Temporarily force the switchboard on (or off) within a block.

    Restores the previous ``enabled``/``tracer`` state on exit; the
    registry is left in place so callers can read what accumulated.
    Nests correctly.
    """
    previous = (OBS.enabled, OBS.tracer)
    OBS.enabled = enabled
    if tracer is not None:
        OBS.tracer = tracer
    try:
        yield OBS
    finally:
        OBS.enabled, OBS.tracer = previous


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[None]:
    """Time a block into the ``name`` histogram (seconds); no-op when off.

    When a tracer is installed on :data:`OBS`, the block is also
    recorded as a trace span (against the *tracer's* clock, which may
    be logical). Only for use outside ``repro.core`` / ``repro.index``
    — this reads ``time.perf_counter``.
    """
    if not OBS.enabled:
        yield
        return
    tracer = OBS.tracer
    if tracer is None:
        start = time.perf_counter()
        try:
            yield
        finally:
            OBS.registry.histogram(
                name, boundaries=DEFAULT_TIME_BUCKETS_S
            ).observe(time.perf_counter() - start)
    else:
        with tracer.span(name, **attrs):
            start = time.perf_counter()
            try:
                yield
            finally:
                OBS.registry.histogram(
                    name, boundaries=DEFAULT_TIME_BUCKETS_S
                ).observe(time.perf_counter() - start)
