"""Configuration for the whole-program analysis passes (``--deep``).

Everything the passes treat as *policy* rather than *mechanism* lives
here, so a reviewer can audit the contracts in one place and a satellite
change (a new entry point, a new strict-float module) is a one-line diff.

See ``docs/static_analysis.md`` ("Whole-program analysis") for the
rationale behind each table.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Tuple

__all__ = [
    "CONCURRENT_CLASSES",
    "DOCSTRING_REQUIRED_PREFIXES",
    "ENTRY_POINTS",
    "FRAMEWORK_METHOD_PREFIXES",
    "GUARDED_BY_OWNERS",
    "KNOWN_PAPER_LEMMAS",
    "LAYER_RANKS",
    "LIVENESS_REFERENCE_ROOTS",
    "LOCK_ALIASES",
    "STATIC_ANALYSIS_MODULES",
    "STRICT_FLOAT_MODULES",
]

# ----------------------------------------------------------------------
# Call graph / dead code (RPR008)
# ----------------------------------------------------------------------

#: Functions reachable from outside the project: console-script mains,
#: ``python -m`` entry modules, and the pytest plugin.  Qualified names
#: as produced by :mod:`repro.analysis.callgraph` (``module.func`` /
#: ``module.Class.method``).
ENTRY_POINTS: FrozenSet[str] = frozenset(
    {
        "repro.cli.main",
        "repro.analysis.cli.main",
        "repro.testing.cli.main",
        "repro.service.cli.main",
    }
)

#: Method-name prefixes invoked reflectively by frameworks (``getattr``
#: dispatch), so a name-resolution call graph never sees the call:
#: ``ast.NodeVisitor.visit_*``, pytest hooks/fixtures/tests.
FRAMEWORK_METHOD_PREFIXES: Tuple[str, ...] = (
    "visit_",
    "pytest_",
    "test_",
)

#: Directories (relative to the repo root) whose references keep project
#: definitions alive even though the files themselves are not analyzed
#: for contracts: a helper used only by the test suite is not dead.
LIVENESS_REFERENCE_ROOTS: Tuple[str, ...] = ("tests", "benchmarks", "examples")

# ----------------------------------------------------------------------
# Float-comparison dataflow (RPR011, RPR012)
# ----------------------------------------------------------------------

#: Modules in which every ordering/equality comparison on a
#: distance-valued expression must be tolerance-routed, lemma-sanctioned
#: (see ``repro.analysis.floatcheck.LEMMA_TABLE``) or justified with a
#: ``# repro: noqa(RPR011)``.
STRICT_FLOAT_MODULES: Tuple[str, ...] = (
    "repro.core.verification",
    "repro.core.heap",
    "repro.core.bounds",
    "repro.core.range_queries",
    "repro.geometry.coverage",
    "repro.index.knn",
)

# ----------------------------------------------------------------------
# Docs hygiene (RPR014)
# ----------------------------------------------------------------------

#: Module prefixes whose public functions, classes and methods must carry
#: docstrings.  Scoped to the packages ``docs/architecture.md`` documents
#: as the algorithmic core -- the lemma citations in these docstrings are
#: the cross-reference surface between code and paper.
DOCSTRING_REQUIRED_PREFIXES: Tuple[str, ...] = (
    "repro.core",
    "repro.index",
    "repro.network",
    "repro.obs",
    "repro.service",
)

#: Lemma numbers the source paper actually defines (Section 3).  A
#: citation of a lemma number outside this set is a typo or a drifted
#: reference; RPR014 flags it.  The numbers pinned in
#: ``floatcheck.LEMMA_TABLE`` are a subset of these (only
#: comparison-bearing lemmas are pinned there).
KNOWN_PAPER_LEMMAS: FrozenSet[str] = frozenset(
    {"3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8"}
)

# ----------------------------------------------------------------------
# Concurrency (RPR015-RPR020)
# ----------------------------------------------------------------------

#: Lock synonyms -> canonical node of the lock-order graph.  Used when
#: one lock object travels under several attribute names: the metric
#: instruments hold a reference to the registry's lock, so a ``with
#: self._lock:`` inside ``Counter.inc`` is the *registry* lock.
LOCK_ALIASES: Mapping[str, str] = {
    "Counter._lock": "MetricsRegistry._lock",
    "Gauge._lock": "MetricsRegistry._lock",
    "Histogram._lock": "MetricsRegistry._lock",
}

#: Ownership sentinels accepted by ``# repro: guarded-by(<spec>)`` in
#: place of a lock name.  Each documents *why* a shared field may be
#: written without holding a lock:
#:
#: ``setup``
#:     written only before the object is published to other contexts
#:     (or while re-configuring with every other context quiescent);
#: ``handshake``
#:     written on one thread before a ``threading.Event``/join-style
#:     synchronization point that the readers wait on (happens-before
#:     is provided by the event, not a lock);
#: ``event-loop``
#:     only ever touched from the owning asyncio event-loop thread;
#: ``single-writer``
#:     one designated context writes, concurrent readers tolerate
#:     (and the field is a single atomic reference/primitive);
#: ``cache``
#:     any context may write: the field memoizes what a guarded
#:     structure owns, every write is one assignment of a
#:     self-consistent value, and losing one costs a re-lookup there,
#:     never an update.
GUARDED_BY_OWNERS: FrozenSet[str] = frozenset(
    {"setup", "handshake", "event-loop", "single-writer", "cache"}
)

#: Classes the concurrency pass must treat as cross-context shared even
#: though it cannot *detect* that (no lock attribute, not a thread
#: target).  Lock-owning classes and ``threading.Thread(target=self.x)``
#: owners are discovered automatically; list here only state that is
#: shared by convention, like the process-wide ``OBS`` switchboard whose
#: flags the service thread reads, and the module-level instrument
#: handles client threads and the event loop count through.
CONCURRENT_CLASSES: FrozenSet[str] = frozenset(
    {
        "repro.obs.profiling.Instrument",
        "repro.obs.profiling.Obs",
    }
)

# ----------------------------------------------------------------------
# Layering (RPR013)
# ----------------------------------------------------------------------

#: Rank of each package/module prefix; a module may only import modules
#: whose rank is <= its own.  Longest-prefix match wins, so single
#: modules can override their package (``repro.analysis.runtime`` is
#: imported *by* the core data structures and must stay import-free,
#: while ``repro.analysis.invariants`` validates core structures and
#: sits above them).
LAYER_RANKS: Dict[str, int] = {
    "repro": 6,  # the package façade re-exports everything below it
    "repro.version": 0,
    "repro.geometry": 0,
    "repro.analysis.runtime": 0,
    "repro.obs": 0,  # instrumentation facade, imported by index/core/sim
    "repro.index": 1,
    "repro.network": 1,
    "repro.core": 2,
    "repro.continuous": 3,
    "repro.io": 3,
    "repro.io.figures": 4,  # serializes experiments.runner.FigureResult
    "repro.service": 3,  # wire protocol + serving engine over core/index
    "repro.service.cli": 5,  # the repro-serve console script
    "repro.sim": 3,
    "repro.analysis.invariants": 3,
    "repro.testing": 3,
    "repro.experiments": 4,
    "repro.cli": 5,
    "repro.analysis": 5,  # static-analysis side; see STATIC_ANALYSIS_MODULES
}

#: The static-analysis side of ``repro.analysis`` must be able to lint a
#: broken tree, so it may import **only** these modules (stdlib aside;
#: exact names, not prefixes).  ``repro.analysis.invariants``/``runtime``
#: are exempt (they are the runtime side and carry their own contracts
#: above).  The package ``__init__`` is listed because importing any
#: submodule runs it; its own imports are all deferred (PEP 562).
STATIC_ANALYSIS_MODULES: Tuple[str, ...] = (
    "repro.analysis",
    "repro.analysis.accounting",
    "repro.analysis.callgraph",
    "repro.analysis.cli",
    "repro.analysis.concurrency",
    "repro.analysis.config",
    "repro.analysis.deep",
    "repro.analysis.floatcheck",
    "repro.analysis.layers",
    "repro.analysis.lint",
    "repro.analysis.locks",
    "repro.analysis.project",
    "repro.analysis.rules",
)
