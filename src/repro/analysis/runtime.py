"""The runtime invariant sanitizer.

A process-wide :class:`Sanitizer` singleton (:data:`SANITIZER`) gates
cheap invariant validators that the hot data structures call after every
mutation.  When disabled -- the default -- each hook is one attribute
read; when enabled the validators of :mod:`repro.analysis.invariants`
run and raise ``InvariantViolation`` on corruption.

Enable it in one of three ways:

- environment: ``REPRO_SANITIZE=1`` (checked once at import);
- context manager::

      from repro.analysis import sanitized
      with sanitized():
          run_workload()

- pytest: run the suite with ``REPRO_SANITIZE=1`` (see
  ``tests/conftest.py``).

This module intentionally imports nothing from the rest of ``repro`` at
module scope: ``core.heap``, ``core.verification``, ``core.server`` and
``index.rtree`` import it, and the validators live in
:mod:`repro.analysis.invariants`, which is loaded lazily on the first
enabled check.

Accounting sanitizer
--------------------
The same switch gates the page-accounting checks:

* :meth:`Sanitizer.note_stream_opened` keeps each
  :class:`~repro.core.server.NeighborStream` opened while enabled until
  a later note finds it closed, and
  :meth:`Sanitizer.accounting_leftovers` lists those never closed (a
  connection dropped without closing its session).  A stream folds
  its pages only in its idempotent ``close``, so it cannot fold twice;
* :meth:`Sanitizer.verify_conservation` checks the conservation law at
  quiescence: the per-query breakdown history of a counter must sum
  exactly to its running totals.

``tests/conftest.py`` fails a sanitized session when a stream is left
open at its end.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.cache import CachedQueryResult
    from repro.core.heap import CandidateHeap, HeapState
    from repro.geometry.coverage import CoverageMethod
    from repro.geometry.point import Point
    from repro.index.rtree import RTree

__all__ = [
    "SANITIZER",
    "Sanitizer",
    "sanitized",
    "sanitizer_enabled",
]

_ENV_FLAG = "REPRO_SANITIZE"
_TRUTHY = {"1", "true", "yes", "on"}


class Sanitizer:
    """Re-entrant on/off switch plus the mutation hooks.

    ``enabled`` is a plain attribute so the disabled-path cost inside
    hot loops is a single attribute read.  ``enable``/``disable`` nest:
    the sanitizer turns off only when every enabler has released it.
    """

    __slots__ = (
        "enabled",
        "_level",
        "checks_run",
        "_lock",
        "_streams",
    )

    def __init__(self, enabled: bool = False) -> None:
        #: Guards every mutable field below; reentrant so the note_*
        #: hooks may call ``_count`` while already holding it.
        self._lock = threading.RLock()
        self._level = 1 if enabled else 0
        self.enabled = enabled
        #: How often each hook fired while enabled (observability/tests).
        self.checks_run: Dict[str, int] = {}
        #: The server streams opened while enabled and not yet seen
        #: closed (strong refs, so a leaked stream outlives the GC).
        self._streams: List[Any] = []

    # ------------------------------------------------------------------
    # switching
    # ------------------------------------------------------------------
    def enable(self) -> None:
        with self._lock:
            self._level += 1
            self.enabled = True

    def disable(self) -> None:
        with self._lock:
            if self._level > 0:
                self._level -= 1
            self.enabled = self._level > 0

    def _count(self, check: str) -> None:
        with self._lock:
            self.checks_run[check] = self.checks_run.get(check, 0) + 1

    # ------------------------------------------------------------------
    # accounting sanitizer (fed by NeighborStream while enabled)
    # ------------------------------------------------------------------
    def note_stream_opened(self, stream: Any) -> None:
        """A server stream was opened; :meth:`accounting_leftovers` asks
        it at the end whether it was closed.  Streams closed since the
        last note are dropped here, so only open ones are kept."""
        with self._lock:
            self._count("stream.opened")
            streams = [kept for kept in self._streams if not kept.closed]
            streams.append(stream)
            self._streams = streams

    def accounting_leftovers(self) -> List[str]:
        """Streams opened while enabled and never closed."""
        with self._lock:
            return [
                "stream opened but never closed: its accesses never "
                "reach the server counter's history"
                for stream in self._streams
                if not stream.closed
            ]

    @staticmethod
    def verify_conservation(counter: Any) -> List[str]:
        """Check the conservation law on a quiescent counter.

        The per-query breakdown history must sum exactly to the running
        totals; only valid when no query or stream is open.
        """
        problems: List[str] = []
        total = sum(item.total for item in counter.history)
        if total != counter.total_accesses:
            problems.append(
                f"history sums to {total} accesses but the counter "
                f"recorded {counter.total_accesses}"
            )
        scanned = sum(item.entries_scanned for item in counter.history)
        if scanned != counter.total_entries_scanned:
            problems.append(
                f"history sums to {scanned} scanned entries but the "
                f"counter recorded {counter.total_entries_scanned}"
            )
        return problems

    def reset_accounting(self) -> None:
        """Forget the streams opened so far."""
        with self._lock:
            self._streams = []

    # ------------------------------------------------------------------
    # hooks (called by the instrumented structures when enabled)
    # ------------------------------------------------------------------
    def after_heap_add(self, heap: "CandidateHeap", before: "HeapState") -> None:
        from repro.analysis import invariants

        self._count("heap.add")
        invariants.check_heap_transition(before, heap.state())
        invariants.check_heap_structure(heap)

    def after_rtree_mutation(self, tree: "RTree", operation: str) -> None:
        from repro.analysis import invariants

        self._count(f"rtree.{operation}")
        invariants.validate_rtree(tree)

    def after_verification(
        self,
        query: "Point",
        caches: Sequence["CachedQueryResult"],
        heap: "CandidateHeap",
        pre_snapshot: Dict[Tuple[float, float, Any], bool],
        method: "CoverageMethod | None" = None,
        polygon_sides: int = 32,
    ) -> None:
        from repro.analysis import invariants
        from repro.geometry.coverage import CoverageMethod

        self._count("verification")
        invariants.check_verification_soundness(
            query,
            caches,
            heap,
            pre_snapshot,
            method=method if method is not None else CoverageMethod.EXACT,
            polygon_sides=polygon_sides,
        )

    @staticmethod
    def heap_snapshot(heap: "CandidateHeap") -> Dict[Tuple[float, float, Any], bool]:
        """Key -> certain flag for every current entry (verifier pre-state)."""
        return {entry.key(): entry.certain for entry in heap.entries()}

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Sanitizer({state}, level={self._level}, checks={self.checks_run})"


#: The process-wide sanitizer; seeded from the environment.
SANITIZER = Sanitizer(enabled=os.environ.get(_ENV_FLAG, "").strip().lower() in _TRUTHY)


def sanitizer_enabled() -> bool:
    """True when the runtime sanitizer is currently active."""
    return SANITIZER.enabled


@contextmanager
def sanitized() -> Iterator[Sanitizer]:
    """Enable the sanitizer for the duration of the ``with`` block."""
    SANITIZER.enable()
    try:
        yield SANITIZER
    finally:
        SANITIZER.disable()
