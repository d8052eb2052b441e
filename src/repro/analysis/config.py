"""Configuration for the whole-program analysis passes (``--deep``).

Everything the passes treat as *policy* rather than *mechanism* lives
here, so a reviewer can audit the contracts in one place and a satellite
change (a new strict-float module, a new layer) is a one-line diff.

See ``docs/static_analysis.md`` ("Whole-program analysis") for the
rationale behind each table.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

__all__ = [
    "DOCSTRING_REQUIRED_PREFIXES",
    "KNOWN_PAPER_LEMMAS",
    "LAYER_RANKS",
    "ORACLE_ALLOWED_IMPORTS",
    "STATIC_ANALYSIS_MODULES",
    "STRICT_FLOAT_MODULES",
]

# ----------------------------------------------------------------------
# Float-comparison dataflow (RPR001, RPR011, RPR012)
# ----------------------------------------------------------------------

#: Modules in which every ordering/equality comparison on a
#: distance-valued expression must be tolerance-routed, lemma-sanctioned
#: (see ``repro.analysis.floatcheck.LEMMA_TABLE``) or justified with a
#: ``# repro: noqa(RPR011)``; RPR001 reads the bound attributes as
#: distances here.
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
# Layering and import contracts (RPR013)
# ----------------------------------------------------------------------

#: Rank of each package/module prefix; a module may only import modules
#: whose rank is <= its own.  Longest-prefix match wins, so single
#: modules can override their package.  ``repro.analysis`` sits at the
#: top: nothing below rank 5 imports it.
LAYER_RANKS: Dict[str, int] = {
    "repro": 6,  # the package façade re-exports everything below it
    "repro.version": 0,
    "repro.geometry": 0,
    "repro.obs": 0,  # instrumentation facade, imported by index/core/sim
    "repro.index": 1,
    "repro.network": 1,
    "repro.core": 2,
    "repro.io": 3,
    "repro.io.figures": 4,  # serializes experiments.runner.FigureResult
    "repro.service": 3,  # wire protocol + serving engine over core/index
    "repro.service.cli": 5,  # the repro-serve console script
    "repro.sim": 3,
    "repro.testing": 3,
    "repro.experiments": 4,
    "repro.cli": 5,
    "repro.analysis": 5,  # static-analysis side; see STATIC_ANALYSIS_MODULES
}

#: The static-analysis side of ``repro.analysis`` must be able to lint a
#: broken tree, so it may import **only** these modules (stdlib aside;
#: exact names, not prefixes).  The package ``__init__`` is listed
#: because importing any submodule runs it; its own imports are all
#: deferred (PEP 562).
STATIC_ANALYSIS_MODULES: Tuple[str, ...] = (
    "repro.analysis",
    "repro.analysis.callgraph",
    "repro.analysis.cli",
    "repro.analysis.concurrency",
    "repro.analysis.config",
    "repro.analysis.deep",
    "repro.analysis.floatcheck",
    "repro.analysis.layers",
    "repro.analysis.lint",
    "repro.analysis.project",
    "repro.analysis.rules",
)

#: Differential-test oracle modules -> the only project modules each may
#: import, deferred imports included.  An oracle's value is recomputing
#: ground truth from first principles; importing the code under test
#: would turn the differential comparison into a tautology.  The plain
#: ``Point`` value type is the one shared vocabulary.
ORACLE_ALLOWED_IMPORTS: Dict[str, Tuple[str, ...]] = {
    "repro.testing.oracles": ("repro.geometry.point",),
}
