"""Hot-path analysis (one pass of ``repro-lint --deep``).

The query hot paths must not call the observability layer unguarded, or
the ~22 ns disabled-guard budget measured in PR 5 evaporates.  The pass
derives a *hot set* -- call-graph reachability off the
kNN/verification/batching entry points
(:data:`repro.analysis.config.HOT_ENTRY_POINTS`) -- and enforces:

========  ============================================================
RPR025    obs instrumentation in a hot loop that is not behind an
          ``if OBS.enabled:`` guard; calls rooted at a helper name
          (the ``_node_read_counter`` generation cache) are exempt by
          construction -- the cache *is* the guard
========  ============================================================

It reaches loops no test executes; on the ones tests do execute,
``tests/test_obs_overhead.py::TestDisabledIsSilent`` is the run-time
gate.  Speed itself (allocations included) is judged by ``bench_e2e``,
and ``NodeArrays`` mirror coherence by ``_TrackedList`` plus
``validate_rtree`` under the sanitizer, not by a lint.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, List, Sequence, Set

from repro.analysis.lint import Violation, register_rule
from repro.analysis.project import FunctionNode

if TYPE_CHECKING:
    from repro.analysis.deep import DeepAnalysis

__all__ = ["hot_loop_pass", "hotpath_report"]


# ----------------------------------------------------------------------
# RPR025: loop-body scanning
# ----------------------------------------------------------------------
class _LoopScanner:
    """Scan one hot function for unguarded obs calls inside loops.

    Nested defs are skipped (they are their own scopes), and so is the
    body of an ``if OBS.enabled:`` -- everything under it is guarded.
    """

    def __init__(self, path: str, qualname: str, violations: List[Violation]) -> None:
        self.path = path
        self.qualname = qualname
        self.violations = violations
        #: Lines already flagged: a chained obs call
        #: (``OBS.registry.counter(..).inc()``) is one finding, not one
        #: per nested call.
        self._obs_flagged: Set[int] = set()

    def scan(self, fn: FunctionNode) -> None:
        self._stmts(fn.body, in_loop=False)

    def _stmts(self, stmts: Sequence[ast.stmt], in_loop: bool) -> None:
        for stmt in stmts:
            self._stmt(stmt, in_loop)

    def _stmt(self, stmt: ast.stmt, in_loop: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            # The iterable is evaluated once per loop *entry*.
            if in_loop:
                self._exprs(stmt.iter)
            self._stmts(stmt.body, in_loop=True)
            self._stmts(stmt.orelse, in_loop)
            return
        if isinstance(stmt, ast.While):
            if in_loop:
                self._exprs(stmt.test)
            self._stmts(stmt.body, in_loop=True)
            self._stmts(stmt.orelse, in_loop)
            return
        if isinstance(stmt, ast.If):
            if in_loop:
                self._exprs(stmt.test)
            if not _is_obs_guard(stmt.test):
                self._stmts(stmt.body, in_loop)
            self._stmts(stmt.orelse, in_loop)
            return
        if isinstance(stmt, ast.Try):
            self._stmts(stmt.body, in_loop)
            for handler in stmt.handlers:
                self._stmts(handler.body, in_loop)
            self._stmts(stmt.orelse, in_loop)
            self._stmts(stmt.finalbody, in_loop)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            if in_loop:
                for item in stmt.items:
                    self._exprs(item.context_expr)
            self._stmts(stmt.body, in_loop)
            return
        if in_loop:
            self._exprs(stmt)

    def _exprs(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and sub.lineno not in self._obs_flagged
                and _mentions_obs(sub.func)
            ):
                self._obs_flagged.add(sub.lineno)
                self.violations.append(
                    Violation(
                        self.path,
                        sub.lineno,
                        0,
                        "RPR025",
                        f"`{self.qualname}` calls the obs layer "
                        "inside a hot loop without an "
                        "`if OBS.enabled:` guard: the disabled-mode "
                        "overhead budget assumes the guard",
                    )
                )


def _is_obs_guard(test: ast.expr) -> bool:
    """Does a condition test ``OBS.enabled`` (possibly conjoined)?"""
    return any(
        isinstance(node, ast.Attribute)
        and node.attr == "enabled"
        and isinstance(node.value, ast.Name)
        and node.value.id == "OBS"
        for node in ast.walk(test)
    )


def _mentions_obs(func: ast.expr) -> bool:
    """Is the call rooted at the ``OBS`` facade?

    Rooted means the leftmost receiver is the bare name ``OBS``; calls
    rooted at a helper (``_node_read_counter(...)``, the generation
    cache) are exempt -- the cache is the guard.
    """
    node = func
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            return node.id == "OBS"
        else:
            return False


@register_rule(
    "RPR025",
    "unguarded-obs-in-hot-loop",
    "obs instrumentation call in a hot loop outside an "
    "`if OBS.enabled:` guard or a generation cache",
    whole_program=True,
)
def hot_loop_pass(analysis: DeepAnalysis) -> List[Violation]:
    """RPR025, and the ``hot`` set of ``analysis``."""
    violations: List[Violation] = []
    analysis.hot = analysis.graph.call_closure(analysis.hot_entry_points)
    for _name, module in sorted(analysis.project.modules.items()):
        for scope in module.scopes:
            # A nested def is hot iff its enclosing graph-visible function is.
            if scope.top in analysis.hot:
                _LoopScanner(module.path, scope.qualname, violations).scan(scope.node)
    return violations


def hotpath_report(analysis: DeepAnalysis) -> List[str]:
    """The hot set, for ``--report``."""
    lines: List[str] = ["hotpath: hot set (query-reachable functions)"]
    if analysis.hot:
        lines.extend(f"  {qualname}" for qualname in sorted(analysis.hot))
    else:
        lines.append("  (none)")
    return lines
