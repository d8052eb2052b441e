"""The whole-program analysis driver: ``repro-lint --deep``.

The per-module rules of :mod:`repro.analysis.rules` cannot see across
files.  :func:`analyze` takes a project loaded once
(:mod:`repro.analysis.project`) and returns a :class:`DeepAnalysis`: the
facts every pass shares -- import graph, call graph
(:mod:`repro.analysis.callgraph`), the inferred blocking effect
(:func:`repro.analysis.concurrency.infer_effects`), each built at most
once and only when a selected pass asks -- the thread entry-point table
(``--report`` prints it), and the findings, folded into the
engine's :class:`~repro.analysis.lint.Violation` shape so suppression,
rendering and CI treatment stay uniform.

Whole-program rules sit in the same catalogue as the per-module ones
(:func:`repro.analysis.lint.register_rule` with ``whole_program=True``);
a pass is the function registered under every code it can emit.  This
module registers the first three and imports the module that registers
the rest:

========  ============================================================
RPR011    raw float comparison on a distance-valued expression
RPR012    lemma-conformance breach (direction flip, stale table entry)
RPR013    layering, oracle-import or import-cycle violation
RPR016+   :mod:`repro.analysis.concurrency` (RPR016-RPR018)
========  ============================================================

These are the rules only static analysis can enforce; what a run-time
gate already pins (page billing, mirror coherence, replay determinism,
obs guards on the query paths, lock discipline, stream fold-once)
is left to that gate, and hygiene that changes no output (dead code)
is not policed -- the yield table in ``docs/static_analysis.md``
records the evidence.
``# repro: noqa(CODE)`` on the reported line is the one escape hatch:
any finding fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional

from repro.analysis.callgraph import (
    CallGraph,
    ImportGraph,
    build_call_graph,
    build_import_graph,
)
from repro.analysis.concurrency import (
    EffectWitness,
    concurrency_report,
    infer_effects,
)
from repro.analysis.floatcheck import (
    float_comparison_violations,
    lemma_conformance_violations,
)
from repro.analysis.layers import cycle_violations, layer_violations
from repro.analysis.lint import (
    ALL_CODES,
    PARSE_ERROR_CODE,
    Violation,
    register_rule,
    select_rules,
)
from repro.analysis.project import Project

__all__ = [
    "DeepAnalysis",
    "analyze",
    "apply_suppressions",
]


@dataclass
class DeepAnalysis:
    """One ``--deep`` run: shared facts, derived tables and findings."""

    project: Project
    violations: List[Violation] = field(default_factory=list)

    #: Thread/executor entry points; empty unless the concurrency pass ran.
    thread_entries: List[str] = field(default_factory=list)

    # -- facts, built on first use -------------------------------------
    @cached_property
    def import_graph(self) -> ImportGraph:
        """Module -> imported project modules."""
        return build_import_graph(self.project)

    @cached_property
    def graph(self) -> CallGraph:
        """The name-resolution call graph."""
        return build_call_graph(self.project, self.import_graph)

    @cached_property
    def effects(self) -> Dict[str, EffectWitness]:
        """The inferred effect: every function that can block, and where."""
        return infer_effects(self.project, self.graph)

    @property
    def ok(self) -> bool:
        """No findings?"""
        return not self.violations

    def report(self) -> List[str]:
        """The table ``--report`` prints."""
        return concurrency_report(self)


def analyze(
    project: Project, select: Optional[Iterable[str]] = None
) -> DeepAnalysis:
    """Run the whole-program passes that can emit the selected codes.

    ``select`` defaults to every whole-program rule; an unknown or
    per-module code raises ``ValueError``.  Files that failed to parse
    are always reported (RPR900).
    """
    rules = select_rules(select, None, whole_program=True)
    codes = {rule.code for rule in rules}
    analysis = DeepAnalysis(project)
    found = [
        Violation(path, 1, 0, PARSE_ERROR_CODE, f"cannot parse file: {message}")
        for path, message in project.errors
    ]
    passes = {rule.check: None for rule in rules}  # ordered, one run per pass
    for run_pass in passes:
        found.extend(v for v in run_pass(analysis) if v.code in codes)
    found = apply_suppressions(project, found)
    found.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    analysis.violations = found
    return analysis


# ----------------------------------------------------------------------
# the first three passes
# ----------------------------------------------------------------------
@register_rule(
    "RPR011",
    "raw-distance-comparison",
    "ordering/equality on a distance-valued expression bypassing "
    "repro.geometry.tolerance in a strict-float module",
    whole_program=True,
)
def _float_comparisons(analysis: DeepAnalysis) -> Iterator[Violation]:
    project = analysis.project
    for site, message in float_comparison_violations(project):
        yield Violation(
            project.modules[site.module].path, site.lineno, site.col, "RPR011", message
        )


@register_rule(
    "RPR012",
    "lemma-conformance",
    "verifier/heap comparison deviating from its paper lemma "
    "(direction, operands, required coverage call)",
    whole_program=True,
)
def _lemma_conformance(analysis: DeepAnalysis) -> Iterator[Violation]:
    project = analysis.project
    for module, lineno, message in lemma_conformance_violations(project):
        yield Violation(project.modules[module].path, lineno, 0, "RPR012", message)


@register_rule(
    "RPR013",
    "layering-contract",
    "top-level import against the declared layer order or into the "
    "static-analysis zone, an oracle importing the code under test, "
    "or an import cycle",
    whole_program=True,
)
def _layering(analysis: DeepAnalysis) -> Iterator[Violation]:
    modules = analysis.project.modules
    for record, message in layer_violations(analysis.import_graph):
        yield Violation(modules[record.source].path, record.lineno, 0, "RPR013", message)
    for module, message in cycle_violations(analysis.import_graph):
        yield Violation(modules[module].path, 1, 0, "RPR013", message)


# ----------------------------------------------------------------------
# suppression
# ----------------------------------------------------------------------
def apply_suppressions(
    project: Project, violations: List[Violation]
) -> List[Violation]:
    """Drop violations a ``# repro: noqa(CODE)`` comment covers."""
    by_path = {module.path: module.noqa for module in project.modules.values()}
    kept: List[Violation] = []
    for violation in violations:
        table = by_path.get(violation.path, {})
        codes = table.get(violation.line)
        if codes is not None and (codes is ALL_CODES or violation.code in codes):
            continue
        # Findings anchored at line 1 are module-scope (stale table
        # entries, import cycles): a named directive anywhere suppresses.
        if violation.line == 1 and any(
            named is not ALL_CODES and violation.code in named
            for named in table.values()
        ):
            continue
        kept.append(violation)
    return kept

