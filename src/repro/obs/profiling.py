"""The ``OBS`` switchboard and cheap profiling hooks.

This module is the single runtime gate for all instrumentation, built
on the same pattern as :data:`repro.analysis.runtime.SANITIZER`: one
module-level singleton with a plain ``enabled`` attribute, so the
disabled fast path at every instrumented call site is exactly

.. code-block:: python

    if OBS.enabled:
        OBS.registry.counter("rtree.node_reads", kind="leaf").inc()

— one attribute read and a falsy branch (~30 ns), nothing else. The
observability layer ships *enabled* (counters are cheap and the sim
derives SQRR from them); ``REPRO_OBS=0`` turns every hook into that
single guarded read, which is the mode the ≤2 % quickstart-overhead
budget is asserted against (``tests/test_obs_overhead.py``).

Two time-based hooks live here rather than in the engine: the
:func:`span` context manager and the :func:`timed` decorator, both of
which read ``time.perf_counter``. They are therefore **only** for the
outer layers (``repro.sim``, ``repro.obs.bench``, experiments) —
``repro.core`` / ``repro.index`` must stay bit-exact replayable (the
difftest oracles and golden digests compare their outputs) and
restrict themselves to counter increments.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Iterator, Optional, TypeVar, cast

from repro.obs.metrics import DEFAULT_TIME_BUCKETS_S, MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = ["OBS", "Obs", "observed", "span", "timed"]

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

    def reset(self) -> None:
        """Replace the registry with a fresh one and drop the tracer.

        Used by ``repro-bench`` between suite sections and by tests;
        leaves ``enabled`` untouched.  Callers reset only while no other
        context is measuring, hence the setup-ownership annotations.
        """
        self.registry = MetricsRegistry()  # repro: guarded-by(setup)
        self.tracer = None  # repro: guarded-by(setup)


#: The process-wide switchboard. Import the singleton, not the class.
OBS = Obs(_enabled_from_env())


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


_Func = TypeVar("_Func", bound=Callable[..., Any])


def timed(name: Optional[str] = None) -> Callable[[_Func], _Func]:
    """Decorator: record each call's wall time into a histogram.

    The metric name defaults to the function's qualified name. When the
    switchboard is disabled the wrapper short-circuits straight into the
    wrapped function (one attribute read of overhead). Same determinism
    caveat as :func:`span`: keep out of ``repro.core`` / ``repro.index``.
    """

    def decorate(func: _Func) -> _Func:
        metric_name = (
            name if name is not None else f"{func.__module__}.{func.__qualname__}"
        )

        @wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not OBS.enabled:
                return func(*args, **kwargs)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                OBS.registry.histogram(
                    metric_name, boundaries=DEFAULT_TIME_BUCKETS_S
                ).observe(time.perf_counter() - start)

        return cast(_Func, wrapper)

    return decorate
