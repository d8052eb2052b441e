"""Project-specific static analysis.

The reproduction's correctness rests on numeric and structural
invariants -- the Lemma 3.2/3.8 verification inequalities, the
six-state candidate heap of Section 3.3, and R*-tree MBR containment --
that unit tests can only sample.  This package adds machine-checked
guardrails on the source:

- :mod:`repro.analysis.lint` / :mod:`repro.analysis.rules` --
  ``repro-lint``, an AST-based lint engine with one rule catalogue,
  per-module rules (``RPR001``, ``RPR002``, ``RPR004`` .. ``RPR006``,
  ``RPR014``) and
  ``# repro: noqa(CODE)`` suppression;
- :mod:`repro.analysis.deep` -- the whole-program analysis behind
  ``repro-lint --deep``: one driver that builds the import graph, the
  call graph (:mod:`~repro.analysis.callgraph`) and the inferred
  blocking effect once and hands them to every pass -- the rules only
  static analysis can enforce: the distance float-comparison dataflow
  with its paper-lemma table (:mod:`~repro.analysis.floatcheck`, whose
  distance taint RPR001 uses too), layering and import contracts
  (:mod:`~repro.analysis.layers`) and asyncio hygiene
  (:mod:`~repro.analysis.concurrency`); rules ``RPR011`` .. ``RPR013``
  and ``RPR016`` .. ``RPR018``.

The structural validators the tests call on the heap, the R*-tree and
the page counter live in :mod:`repro.testing.invariants`; nothing in
the product imports this package.

The package ``__init__`` resolves its exports lazily (PEP 562):
importing one submodule loads no other.

See ``docs/static_analysis.md`` for the rule catalogue and extension
guide.
"""

from __future__ import annotations

from typing import List

__all__ = [
    "DeepAnalysis",
    "LintReport",
    "Linter",
    "Rule",
    "Violation",
    "analyze",
    "iter_rules",
    "lint_paths",
    "lint_source",
]

_LINT_EXPORTS = {
    "LintReport",
    "Linter",
    "Rule",
    "Violation",
    "iter_rules",
    "lint_paths",
    "lint_source",
}
_DEEP_EXPORTS = {"DeepAnalysis", "analyze"}


def __getattr__(name: str) -> object:
    if name in _LINT_EXPORTS:
        from repro.analysis import lint

        return getattr(lint, name)
    if name in _DEEP_EXPORTS:
        from repro.analysis import deep

        return getattr(deep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(__all__)
