"""Hot-path analysis (two passes of ``repro-lint --deep``).

PR 8's vectorized R-tree made two conventions load-bearing that, until
this pass, existed only in comments:

* any mutation of ``Node.entries`` must invalidate (or incrementally
  update) the struct-of-arrays mirror, or the vectorized MINDIST
  kernels silently compute over stale coordinates;
* the query hot paths must not allocate ndarrays per loop iteration or
  call the observability layer unguarded, or the ~22 ns disabled-guard
  budget measured in PR 5 evaporates.

The pass derives a *hot set* -- call-graph reachability off the
kNN/verification/batching entry points
(:data:`repro.analysis.config.HOT_ENTRY_POINTS`) -- and enforces:

========  ============================================================
RPR023    NodeArrays mirror discipline: every ``Node.entries`` mutation
          site in :data:`repro.analysis.config.MIRROR_MUTATION_MODULES`
          must be declared in :data:`MUTATION_TABLE` with its mirror
          strategy (``drop`` or ``extend-in-place``), the same way
          ``floatcheck.LEMMA_TABLE`` declares lemma comparison sites;
          stale table entries are findings too
RPR024    allocation in a hot loop: ndarray constructors and
          list/set/dict comprehensions inside loop bodies of hot-set
          functions (suppress at origin with
          ``# repro: hot-alloc(<reason>)``)
RPR025    obs instrumentation in a hot loop that is not behind an
          ``if OBS.enabled:`` guard; calls rooted at a helper name
          (the ``_node_read_counter`` generation cache) are exempt by
          construction -- the cache *is* the guard
========  ============================================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import Violation, _render, register_rule
from repro.analysis.project import FunctionNode, ProjectModule

if TYPE_CHECKING:
    from repro.analysis.deep import DeepAnalysis

__all__ = [
    "MUTATION_TABLE",
    "MutationEntry",
    "MutationSite",
    "hot_loop_pass",
    "hotpath_report",
    "mutation_pass",
]

_HOT_ALLOC_RE = re.compile(r"#\s*repro:\s*hot-alloc\(([^)]+)\)")

#: ``list`` mutator attrs that modify ``entries`` in place.
_MUTATOR_ATTRS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}
)
#: ndarray constructors flagged inside hot loops.
_NDARRAY_FUNCS = frozenset(
    {"array", "empty", "zeros", "ones", "full", "fromiter", "arange", "asarray"}
)
_NUMPY_ALIASES = frozenset({"np", "numpy"})


@dataclass(frozen=True)
class MutationEntry:
    """One declared ``Node.entries`` mutation site (RPR023)."""

    #: Fully qualified function containing the mutation.
    qualname: str
    #: Mutation kind: a list-mutator attr (``append``, ``remove``, ...)
    #: or ``rebind`` for ``X.entries = ...``.
    kind: str
    #: Rendered mutated expression, e.g. ``"leaf.entries"``.
    target: str
    #: Mirror strategy: ``extend-in-place`` (the incremental append
    #: path) or ``drop`` (invalidate; rebuilt lazily on next arrays()).
    strategy: str
    #: Why that strategy is sound.
    rationale: str


#: The declared mutation-site table, the RPR023 analogue of
#: ``floatcheck.LEMMA_TABLE``.  Every ``Node.entries`` mutation in
#: ``repro.index.rtree`` must appear here; the checker flags both
#: undeclared sites and stale entries.  ``_TrackedList``/the ``entries``
#: setter in ``repro.index.node`` are the *mechanism* (they perform the
#: invalidation or in-place extension) and are exempt.
MUTATION_TABLE: Tuple[MutationEntry, ...] = (
    MutationEntry(
        qualname="repro.index.rtree.RTree._insert_entry",
        kind="append",
        target="path[-1].entries",
        strategy="extend-in-place",
        rationale="single-entry append: _TrackedList.append extends the "
        "leaf/internal mirror columns in place (falls back to drop on "
        "type mismatch)",
    ),
    MutationEntry(
        qualname="repro.index.rtree.RTree.delete",
        kind="remove",
        target="leaf.entries",
        strategy="drop",
        rationale="removal shifts every later column slot; rebuilding "
        "lazily on next arrays() is cheaper than compaction",
    ),
    MutationEntry(
        qualname="repro.index.rtree.RTree._condense",
        kind="rebind",
        target="parent.entries",
        strategy="drop",
        rationale="wholesale filter of the child list; the entries "
        "setter wraps the new list and invalidates",
    ),
    MutationEntry(
        qualname="repro.index.rtree.RTree._propagate_up",
        kind="append",
        target="parent.entries",
        strategy="extend-in-place",
        rationale="split propagation appends one ChildEntry; the "
        "internal mirror appends its bbox columns in place",
    ),
    MutationEntry(
        qualname="repro.index.rtree.RTree._force_reinsert",
        kind="rebind",
        target="node.entries",
        strategy="drop",
        rationale="keep-set rebind during forced reinsert; mirror "
        "rebuilt lazily after the reinserts settle",
    ),
    MutationEntry(
        qualname="repro.index.rtree.RTree._split_node",
        kind="rebind",
        target="node.entries",
        strategy="drop",
        rationale="quadratic split redistributes both halves; mirrors "
        "for both nodes are rebuilt on next arrays()",
    ),
)


@dataclass(frozen=True)
class MutationSite:
    """One discovered ``Node.entries`` mutation in a scanned module."""

    module: str
    qualname: str
    lineno: int
    kind: str
    target: str


# ----------------------------------------------------------------------
# RPR023: mutation-site discovery and table matching
# ----------------------------------------------------------------------
def _entries_attr(expr: ast.expr) -> Optional[ast.Attribute]:
    if isinstance(expr, ast.Attribute) and expr.attr == "entries":
        return expr
    return None


def _discover_mutations(module: ProjectModule) -> List[MutationSite]:
    sites: List[MutationSite] = []
    # The module body, then every def and class body at any depth: a
    # mutation in a class nested in a function is still a mutation, and
    # the scope index (functions only) does not reach those.
    bodies: List[Tuple[str, Sequence[ast.stmt]]] = [(module.name, module.tree.body)]
    while bodies:
        qualname, body = bodies.pop()
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                bodies.append((f"{qualname}.{stmt.name}", stmt.body))
                continue
            for node in ast.walk(stmt):
                sites.extend(
                    MutationSite(module.name, qualname, node.lineno, kind, target)
                    for kind, target in _mutations_of(node)
                )
    return sites


def _mutations_of(node: ast.AST) -> List[Tuple[str, str]]:
    """``(kind, rendered target)`` for each entries mutation ``node`` performs."""
    found: List[Tuple[str, str]] = []
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner_expr = _entries_attr(node.func.value)
        if owner_expr is not None and node.func.attr in _MUTATOR_ATTRS:
            found.append((node.func.attr, _render(owner_expr)))
    elif isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if _entries_attr(target) is not None:
                found.append(("rebind", _render(target)))
            elif isinstance(target, ast.Subscript) and _entries_attr(target.value):
                found.append(("item-assign", _render(target.value)))
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and _entries_attr(target.value):
                found.append(("item-del", _render(target.value)))
    return found


@register_rule(
    "RPR023",
    "mirror-mutation-discipline",
    "Node.entries mutation site not declared in MUTATION_TABLE "
    "with its NodeArrays mirror strategy (or a stale table entry "
    "with no matching site)",
    whole_program=True,
)
def mutation_pass(analysis: DeepAnalysis) -> List[Violation]:
    """RPR023, and the ``mutation_sites`` table of ``analysis``."""
    project, policy = analysis.project, analysis.policy
    violations: List[Violation] = []
    sites: List[MutationSite] = []
    for name in policy.mutation_modules:
        module = project.get(name)
        if module is not None:
            sites.extend(_discover_mutations(module))
    analysis.mutation_sites = sorted(sites, key=lambda s: (s.module, s.lineno))

    keys = {(e.qualname, e.kind, e.target) for e in policy.mutation_table}
    matched: Set[Tuple[str, str, str]] = set()
    for site in analysis.mutation_sites:
        key = (site.qualname, site.kind, site.target)
        if key in keys:
            matched.add(key)
            continue
        violations.append(
            Violation(
                project.modules[site.module].path,
                site.lineno,
                0,
                "RPR023",
                f"`{site.qualname}` mutates `{site.target}` "
                f"({site.kind}) but the site is not declared in "
                "hotpath.MUTATION_TABLE: the NodeArrays mirror "
                "strategy is undocumented and unenforced",
            )
        )
    for entry in policy.mutation_table:
        key = (entry.qualname, entry.kind, entry.target)
        if key in matched:
            continue
        module_name = _table_module(entry.qualname, set(policy.mutation_modules))
        if module_name is None or module_name not in project.modules:
            continue
        violations.append(
            Violation(
                project.modules[module_name].path,
                1,
                0,
                "RPR023",
                f"stale MUTATION_TABLE entry: no `{entry.kind}` of "
                f"`{entry.target}` found in `{entry.qualname}`",
            )
        )
    return violations


def _table_module(qualname: str, modules: Set[str]) -> Optional[str]:
    candidate = qualname
    while candidate and candidate not in modules:
        if "." not in candidate:
            return None
        candidate = candidate.rsplit(".", 1)[0]
    return candidate or None


# ----------------------------------------------------------------------
# RPR024 / RPR025: loop-body scanning
# ----------------------------------------------------------------------
class _LoopScanner:
    """Scan one hot function for in-loop allocations and unguarded obs
    calls; nested defs are skipped (they are their own scopes)."""

    def __init__(
        self, module: ProjectModule, qualname: str, violations: List[Violation]
    ) -> None:
        self.module = module
        self.qualname = qualname
        self.path = module.path
        self.violations = violations
        #: Lines already flagged for RPR025: a chained obs call
        #: (``OBS.registry.counter(..).inc()``) is one finding, not one
        #: per nested call.
        self._obs_flagged: Set[int] = set()

    def scan(self, fn: FunctionNode) -> None:
        self._stmts(fn.body, in_loop=False, guarded=False)

    def _stmts(
        self, stmts: Sequence[ast.stmt], in_loop: bool, guarded: bool
    ) -> None:
        for stmt in stmts:
            self._stmt(stmt, in_loop, guarded)

    def _stmt(self, stmt: ast.stmt, in_loop: bool, guarded: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            if in_loop:
                self._exprs(stmt.iter, guarded)
            else:
                # The iterable is evaluated once per loop *entry*.
                self._exprs_outside_loop(stmt.iter)
            self._stmts(stmt.body, in_loop=True, guarded=guarded)
            self._stmts(stmt.orelse, in_loop, guarded)
            return
        if isinstance(stmt, ast.While):
            self._exprs(stmt.test, guarded) if in_loop else None
            self._stmts(stmt.body, in_loop=True, guarded=guarded)
            self._stmts(stmt.orelse, in_loop, guarded)
            return
        if isinstance(stmt, ast.If):
            if in_loop:
                self._exprs(stmt.test, guarded)
            branch_guarded = guarded or _is_obs_guard(stmt.test)
            self._stmts(stmt.body, in_loop, branch_guarded)
            self._stmts(stmt.orelse, in_loop, guarded)
            return
        if isinstance(stmt, ast.Try):
            self._stmts(stmt.body, in_loop, guarded)
            for handler in stmt.handlers:
                self._stmts(handler.body, in_loop, guarded)
            self._stmts(stmt.orelse, in_loop, guarded)
            self._stmts(stmt.finalbody, in_loop, guarded)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            if in_loop:
                for item in stmt.items:
                    self._exprs(item.context_expr, guarded)
            self._stmts(stmt.body, in_loop, guarded)
            return
        if in_loop:
            self._exprs(stmt, guarded)

    def _exprs_outside_loop(self, node: ast.AST) -> None:
        """No-op hook: straight-line allocations are fine."""

    def _exprs(self, node: ast.AST, guarded: bool) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp)):
                self._allocation(sub.lineno, "comprehension")
            elif isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in _NUMPY_ALIASES
                    and func.attr in _NDARRAY_FUNCS
                ):
                    self._allocation(
                        sub.lineno, f"{func.value.id}.{func.attr}(...)"
                    )
                elif (
                    not guarded
                    and sub.lineno not in self._obs_flagged
                    and _mentions_obs(func)
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

    def _allocation(self, lineno: int, what: str) -> None:
        line = (
            self.module.lines[lineno - 1]
            if 0 < lineno <= len(self.module.lines)
            else ""
        )
        if _HOT_ALLOC_RE.search(line):
            return
        self.violations.append(
            Violation(
                self.path,
                lineno,
                0,
                "RPR024",
                f"`{self.qualname}` allocates {what} inside a hot "
                "loop; hoist it or justify with "
                "`# repro: hot-alloc(<reason>)`",
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
    "RPR024",
    "hot-loop-allocation",
    "ndarray constructor or comprehension allocated inside a loop "
    "body of a hot-set function "
    "(suppress at origin: `# repro: hot-alloc(<reason>)`)",
    whole_program=True,
)
@register_rule(
    "RPR025",
    "unguarded-obs-in-hot-loop",
    "obs instrumentation call in a hot loop outside an "
    "`if OBS.enabled:` guard or a generation cache",
    whole_program=True,
)
def hot_loop_pass(analysis: DeepAnalysis) -> List[Violation]:
    """RPR024 / RPR025, and the ``hot`` set of ``analysis``."""
    violations: List[Violation] = []
    analysis.hot = analysis.graph.call_closure(analysis.policy.hot_entry_points)
    for _name, module in sorted(analysis.project.modules.items()):
        for scope in module.scopes:
            # A nested def is hot iff its enclosing graph-visible function is.
            if scope.top in analysis.hot:
                _LoopScanner(module, scope.qualname, violations).scan(scope.node)
    return violations


def hotpath_report(analysis: DeepAnalysis) -> List[str]:
    """The mutation table and hot set, for ``--report``."""
    lines: List[str] = ["hotpath: Node.entries mutation table (site -> strategy)"]
    if analysis.mutation_sites:
        labels = [
            f"{site.module}:{site.lineno} {site.kind} {site.target}"
            for site in analysis.mutation_sites
        ]
        by_key = {
            (e.qualname, e.kind, e.target): e.strategy
            for e in analysis.policy.mutation_table
        }
        width = max(len(label) for label in labels)
        for label, site in zip(labels, analysis.mutation_sites):
            strategy = by_key.get(
                (site.qualname, site.kind, site.target), "(undeclared)"
            )
            lines.append(f"  {label.ljust(width)}  -> {strategy}")
    else:
        lines.append("  (no mutation sites)")
    lines.append("hotpath: hot set (query-reachable functions)")
    if analysis.hot:
        lines.extend(f"  {qualname}" for qualname in sorted(analysis.hot))
    else:
        lines.append("  (none)")
    return lines
