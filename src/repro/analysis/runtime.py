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

- pytest: ``pytest --sanitize`` (see ``tests/conftest.py``).

This module intentionally imports nothing from the rest of ``repro`` at
module scope: ``core.heap``, ``core.verification`` and ``index.rtree``
import it, and the validators live in
:mod:`repro.analysis.invariants`, which is loaded lazily on the first
enabled check.

Accounting sanitizer
--------------------
The same switch gates the page-accounting checks.
:class:`~repro.index.pagestats.PageAccessCounter` feeds the singleton
while enabled:

* :meth:`Sanitizer.note_billing` records which function billed each
  node/object access (resolved by frame walk, skipping the counter's own
  frames), so tests can check that every observed biller is one of the
  known billing sites;
* :meth:`Sanitizer.note_subcounter_created` /
  :meth:`Sanitizer.note_finish_query` / :meth:`Sanitizer.note_absorb`
  track the subcounter fold-once protocol at runtime: folding the same
  finished stream into history twice is reported immediately into
  :attr:`Sanitizer.accounting_violations`, and
  :meth:`Sanitizer.accounting_leftovers` lists streams that were opened
  but never folded (a connection dropped without closing its session);
* :meth:`Sanitizer.verify_conservation` checks the conservation law at
  quiescence: the per-query breakdown history of a counter must sum
  exactly to its running totals.

``tests/conftest.py`` fails the session when a double fold or an
unfolded subcounter is left at its end.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Sequence, Set, Tuple

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
        "accounting_violations",
        "billing_callers",
        "_subcounters",
        "_breakdown_owner",
        "_folded",
    )

    def __init__(self, enabled: bool = False) -> None:
        #: Guards every mutable field below; reentrant so the note_*
        #: hooks may call ``_count`` while already holding it.
        self._lock = threading.RLock()
        self._level = 1 if enabled else 0
        self.enabled = enabled
        #: How often each hook fired while enabled (observability/tests).
        self.checks_run: Dict[str, int] = {}
        #: Double-folds and other billing protocol breaches.
        self.accounting_violations: List[str] = []
        #: (file basename, function name) pairs that billed an access.
        self.billing_callers: Set[Tuple[str, str]] = set()
        #: Every subcounter handed out while enabled (strong refs; the
        #: sanitizer tracks object *identity* with ``is`` scans rather
        #: than ``id()`` keys so its callers stay determinism-clean).
        self._subcounters: List[Any] = []
        #: (breakdown, subcounter) pairs: which sub a breakdown closed.
        self._breakdown_owner: List[Tuple[Any, Any]] = []
        #: Subcounters whose breakdown was absorbed into a history.
        self._folded: List[Any] = []

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
    # accounting sanitizer (fed by PageAccessCounter while enabled)
    # ------------------------------------------------------------------
    def note_billing(self, kind: str) -> None:
        """An access was billed; attribute it to the billing function.

        The caller is resolved by frame walk, skipping the counter's own
        frames (``record_scan`` bills through ``record`` internally), so
        the recorded pair names the function that *initiated* the bill
        -- the unit the static billing model reasons about.
        """
        frame = sys._getframe(1)
        while (
            frame is not None
            and os.path.basename(frame.f_code.co_filename) == "pagestats.py"
        ):
            frame = frame.f_back
        with self._lock:
            self._count(f"billing.{kind}")
            if frame is not None:
                self.billing_callers.add(
                    (
                        os.path.basename(frame.f_code.co_filename),
                        frame.f_code.co_name,
                    )
                )

    def note_subcounter_created(self, sub: Any) -> None:
        """A ``subcounter()`` was handed out; track its fold-once state."""
        with self._lock:
            self._count("billing.subcounter")
            self._subcounters.append(sub)

    def note_finish_query(self, counter: Any, breakdown: Any) -> None:
        """A counter closed a query; remember which sub a breakdown ends."""
        with self._lock:
            if any(tracked is counter for tracked in self._subcounters):
                self._breakdown_owner.append((breakdown, counter))

    def note_absorb(self, breakdown: Any) -> None:
        """A breakdown was folded into a parent counter's history."""
        with self._lock:
            sub = next(
                (
                    owner
                    for item, owner in self._breakdown_owner
                    if item is breakdown
                ),
                None,
            )
            if sub is None:
                return
            if any(folded is sub for folded in self._folded):
                self.accounting_violations.append(
                    "subcounter folded into history twice: its accesses "
                    "are double-counted in the parent totals"
                )
            else:
                self._folded.append(sub)

    def accounting_leftovers(self) -> List[str]:
        """Subcounters opened but never folded into any history."""
        with self._lock:
            return [
                "subcounter created but never absorbed into history: "
                "its accesses are lost to the parent counter"
                for sub in self._subcounters
                if not any(folded is sub for folded in self._folded)
            ]

    @staticmethod
    def verify_conservation(counter: Any) -> List[str]:
        """Check the conservation law on a quiescent counter.

        The per-query breakdown history must sum exactly to the running
        totals; only valid when no query is open and every subcounter
        has been folded back.
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
        """Forget billing callers and subcounter fold-once tracking."""
        with self._lock:
            self.accounting_violations = []
            self.billing_callers = set()
            self._subcounters = []
            self._breakdown_owner = []
            self._folded = []

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
