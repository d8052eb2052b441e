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

Race sanitizer
--------------
The same switch also gates a lightweight runtime race sanitizer.
:func:`named_lock` builds a drop-in ``threading.Lock`` wrapper
(:class:`TrackedLock`) that, while enabled, reports every successful
acquisition to the singleton, which

* maintains per-thread stacks of held lock names,
* records each ``outer -> inner`` nesting into a runtime lock-order
  graph (:meth:`Sanitizer.lock_order_edges`) that the service tests
  cross-check as a *subset* of the static graph computed by
  ``repro-lint --concurrency``,
* flags inversions (both ``a -> b`` and ``b -> a`` observed) and
  re-acquisition of a held non-reentrant lock into
  :attr:`Sanitizer.lock_order_violations`, and
* checks via :meth:`Sanitizer.note_metric_mutation` that every metric
  mutation happens with its owning guard held.

The lock names are the *canonical* names the static pass derives from
the source (``"TcpTransport._lock"``), so the two graphs agree by
construction; :data:`repro.analysis.config.LOCK_ALIASES` folding is the
comparison helper's job, not this module's (it stays import-free).

Accounting sanitizer
--------------------
The same switch gates the runtime complement of ``repro-lint --perf``'s
billing model.  :class:`~repro.index.pagestats.PageAccessCounter` feeds
the singleton while enabled:

* :meth:`Sanitizer.note_billing` records which function billed each
  node/object access (resolved by frame walk, skipping the counter's own
  frames), so tests can cross-check *runtime billing ⊆ static billing
  model* -- every observed biller must be a site the accounting pass
  discovered;
* :meth:`Sanitizer.note_subcounter_created` /
  :meth:`Sanitizer.note_finish_query` / :meth:`Sanitizer.note_absorb`
  track the subcounter fold-once protocol at runtime: folding the same
  finished stream into history twice is reported immediately into
  :attr:`Sanitizer.accounting_violations`, and
  :meth:`Sanitizer.accounting_leftovers` lists streams that were opened
  but never folded (the RPR022 bug class, observed live);
* :meth:`Sanitizer.verify_conservation` checks the conservation law at
  quiescence: the per-query breakdown history of a counter must sum
  exactly to its running totals.
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
    "TrackedLock",
    "named_lock",
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
        "_held",
        "lock_edges",
        "lock_order_violations",
        "metric_violations",
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
        #: Thread ident -> stack of held tracked-lock names.
        self._held: Dict[int, List[str]] = {}
        #: Runtime lock-order graph: (outer, inner) -> acquisition count.
        self.lock_edges: Dict[Tuple[str, str], int] = {}
        #: Inversions and non-reentrant re-acquisitions seen at runtime.
        self.lock_order_violations: List[str] = []
        #: Metric mutations observed without their owning guard held.
        self.metric_violations: List[str] = []
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
    # race sanitizer (fed by TrackedLock / metrics)
    # ------------------------------------------------------------------
    def _current_held(self) -> Tuple[str, ...]:
        return tuple(self._held.get(threading.get_ident(), ()))

    def _record_edges(self, name: str, held: Tuple[str, ...]) -> None:
        """Register ``held[*] -> name`` edges (``_lock`` is reentrant)."""
        with self._lock:
            for outer in held:
                if outer == name:
                    self.lock_order_violations.append(
                        f"lock `{name}` re-acquired while already held"
                    )
                    continue
                edge = (outer, name)
                if (name, outer) in self.lock_edges and edge not in self.lock_edges:
                    self.lock_order_violations.append(
                        f"lock-order inversion: `{outer}` -> `{name}` acquired "
                        f"after the opposite order `{name}` -> `{outer}` was seen"
                    )
                self.lock_edges[edge] = self.lock_edges.get(edge, 0) + 1

    def note_acquire(self, name: str) -> None:
        """A tracked ``threading`` lock was acquired by this thread."""
        with self._lock:
            self._count("lock.acquire")
            self._record_edges(name, self._current_held())
            self._held.setdefault(threading.get_ident(), []).append(name)

    def note_release(self, name: str) -> None:
        """A tracked ``threading`` lock was released (tolerant pop)."""
        with self._lock:
            stack = self._held.get(threading.get_ident())
            if stack and name in stack:
                stack.reverse()
                stack.remove(name)
                stack.reverse()

    def note_metric_mutation(self, metric: str, guard: str) -> None:
        """A metric was mutated; its owning ``guard`` must be held."""
        with self._lock:
            self._count("metrics.mutation")
            if guard not in self._current_held():
                self.metric_violations.append(
                    f"metric `{metric}` mutated without its guard "
                    f"`{guard}` held"
                )

    def lock_order_edges(self) -> List[Tuple[str, str]]:
        """The runtime-observed lock-order graph, as sorted edge pairs."""
        with self._lock:
            return sorted(self.lock_edges)

    def reset_concurrency(self) -> None:
        """Forget recorded edges/violations (held stacks are kept)."""
        with self._lock:
            self.lock_edges = {}
            self.lock_order_violations = []
            self.metric_violations = []

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


# ----------------------------------------------------------------------
# tracked locks
# ----------------------------------------------------------------------
class TrackedLock:
    """A ``threading.Lock`` that reports acquisitions to the sanitizer.

    Disabled-path cost: an uncontended, empty ``with`` block measures
    about 0.25 µs against 0.20 µs for a bare ``threading.Lock`` — two
    Python frames and two ``SANITIZER.enabled`` reads.  The ``name`` is
    the canonical lock name the static concurrency pass derives for the
    same lock (see :mod:`repro.analysis.locks`), which is what makes the
    runtime and static lock-order graphs comparable.
    """

    __slots__ = ("name", "_inner")

    def __init__(self, name: str) -> None:
        self.name = name
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying lock, recording the nesting if held."""
        got = self._inner.acquire(blocking, timeout)
        if got and SANITIZER.enabled:
            SANITIZER.note_acquire(self.name)
        return got

    def release(self) -> None:
        """Release the underlying lock and pop it from the held stack."""
        self._inner.release()
        if SANITIZER.enabled:
            SANITIZER.note_release(self.name)

    def locked(self) -> bool:
        """Whether the underlying lock is currently held by anyone."""
        return self._inner.locked()

    # ``with`` repeats acquire() / release() rather than calling them:
    # two Python frames per block instead of four.
    def __enter__(self) -> "TrackedLock":
        self._inner.acquire()
        if SANITIZER.enabled:
            SANITIZER.note_acquire(self.name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._inner.release()
        if SANITIZER.enabled:
            SANITIZER.note_release(self.name)

    def __repr__(self) -> str:
        state = "locked" if self._inner.locked() else "unlocked"
        return f"TrackedLock({self.name!r}, {state})"


def named_lock(name: str) -> TrackedLock:
    """A tracked ``threading.Lock`` under its canonical name.

    The static concurrency pass recognizes this call and takes the
    canonical lock name from the string literal, so the source and the
    runtime agree on the node names of the lock-order graph.
    """
    return TrackedLock(name)
