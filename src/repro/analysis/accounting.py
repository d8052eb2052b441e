"""Page-accounting analysis: the subcounter fold-once pass of
``repro-lint --deep``.

The paper's headline numbers (Figure 17's EINN-vs-INN page advantage,
the SENN tier shares) are *accounting* claims: they hold only if every
R-tree node access is billed exactly once through
:class:`~repro.index.pagestats.PageAccessCounter` and every billed
access reaches a history.  The first half -- one ``RTree.read_node``
chokepoint, one data record per shipped neighbor -- is enforced at run
time (byte-identical golden page histories, the conservation law, the
accounting sanitizer's who-billed check); the second half has an error
path no test executes, and stays static:

========  ============================================================
RPR022    ``subcounter()`` fold-once protocol: every subcounter
          creation has exactly one absorb-into-history path on all
          exits, including error paths (the PR 6 bug class)
========  ============================================================

**Fold-once model.**  A ``X.subcounter()`` bound to a local
must be absorbed in a ``finally`` block of the same function; one bound
to ``self.<f>`` requires a fold method on the owning class (a method
that calls ``.absorb(...)`` and touches ``self.<f>``), and every place
that *constructs* such a class must in turn guarantee the fold method
runs: storing the object on ``self`` demands a cleanup method, and a
factory returning it demands ``close()`` under ``finally``/``with`` at
each acquisition site.  The chain is deliberately bounded at one
factory hop -- beyond that, the runtime accounting sanitizer
(:mod:`repro.analysis.runtime`) owns the check.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.analysis.lint import Violation, register_rule
from repro.analysis.project import FunctionNode, ProjectModule

if TYPE_CHECKING:
    from repro.analysis.deep import DeepAnalysis

__all__ = ["fold_once_pass"]


# ----------------------------------------------------------------------
# RPR022: subcounter fold-once
# ----------------------------------------------------------------------
def _calls_with_attr(tree: ast.AST, attr: str) -> List[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    ]


def _references_name(tree: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        for node in ast.walk(tree)
    )


def _references_self_attr(tree: ast.AST, attr: str) -> bool:
    return any(
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        for node in ast.walk(tree)
    )


def _finally_bodies(fn: ast.AST) -> List[List[ast.stmt]]:
    return [
        node.finalbody
        for node in ast.walk(fn)
        if isinstance(node, ast.Try) and node.finalbody
    ]


def _absorbed_in_finally(fn: ast.AST, name: str) -> bool:
    """Is ``name`` absorbed inside some ``finally`` block of ``fn``?"""
    for body in _finally_bodies(fn):
        for stmt in body:
            for call in _calls_with_attr(stmt, "absorb"):
                if any(_references_name(arg, name) for arg in call.args):
                    return True
    return False


#: Per-class facts the fold-once checker needs: method name -> def.
_Methods = Dict[str, FunctionNode]


#: Fold-once obligation chain depth: 0 = the class owning the
#: subcounter itself (``_Stream``), 1 = the class that stores or
#: collects it (``ServiceSession``).  Acquirers of a depth-1 owner are
#: checked for guaranteed cleanup; classes *storing* a depth-1 owner
#: (``LoopbackTransport``) still need a cleanup method, but their own
#: creators are out of static scope -- the runtime accounting sanitizer
#: owns the rest of the chain.
_FOLD_CHAIN_DEPTH = 1


@register_rule(
    "RPR022",
    "subcounter-fold-once",
    "subcounter() creation without exactly one absorb-into-history "
    "path on all exits (including error paths)",
    whole_program=True,
)
def fold_once_pass(analysis: DeepAnalysis) -> List[Violation]:
    """RPR022 over every module of the project."""
    violations: List[Violation] = []
    modules = [module for _, module in sorted(analysis.project.modules.items())]
    all_classes: Dict[str, _Methods] = {}
    for module in modules:
        for name in module.classes:
            all_classes[name] = {}
        for scope in module.functions:
            if scope.cls is not None:
                all_classes[scope.cls][scope.node.name] = scope.node

    #: (class name, method that must run, chain depth) obligations.
    obligations: List[Tuple[str, str, int]] = []
    for module in modules:
        for scope in module.functions:
            fn_node, owner_cls = scope.node, scope.cls
            if fn_node.name == "subcounter":
                continue  # the factory primitive itself
            for stmt in ast.walk(fn_node):
                if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                    continue
                value = stmt.value
                if not (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr == "subcounter"
                ):
                    continue
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    if not _absorbed_in_finally(fn_node, target.id):
                        violations.append(
                            Violation(
                                module.path,
                                stmt.lineno,
                                0,
                                "RPR022",
                                f"subcounter `{target.id}` is not absorbed "
                                "in a `finally` block of "
                                f"`{module.name}.{fn_node.name}`: an error "
                                "path leaks its accesses out of history",
                            )
                        )
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and owner_cls is not None
                ):
                    fold = _find_fold_method(all_classes[owner_cls], target.attr)
                    if fold is None:
                        violations.append(
                            Violation(
                                module.path,
                                stmt.lineno,
                                0,
                                "RPR022",
                                f"`{owner_cls}.{target.attr}` holds a "
                                "subcounter but no method of the class "
                                "absorbs it: the stream's accesses can "
                                "never fold into history",
                            )
                        )
                    else:
                        obligations.append((owner_cls, fold, 0))
                else:
                    violations.append(
                        Violation(
                            module.path,
                            stmt.lineno,
                            0,
                            "RPR022",
                            "subcounter() result bound to an untrackable "
                            "target: the fold-once protocol cannot be "
                            "verified statically",
                        )
                    )

    # Transitive obligation (depth-bounded worklist): whoever constructs
    # a fold-owning class must guarantee its fold method runs; a storing
    # class needs a cleanup method, whose own callers are checked one
    # further hop out.
    seen: Set[Tuple[str, str]] = set()
    queue = list(obligations)
    while queue:
        cls_name, required, depth = queue.pop()
        if (cls_name, required) in seen:
            continue
        seen.add((cls_name, required))
        _check_constructions(
            modules, all_classes, cls_name, required, depth, queue, violations
        )
    return violations


def _find_fold_method(methods: _Methods, attr: str) -> Optional[str]:
    for name, method in methods.items():
        if _calls_with_attr(method, "absorb") and _references_self_attr(method, attr):
            return name
    return None


def _check_constructions(
    modules: List[ProjectModule],
    all_classes: Dict[str, _Methods],
    cls_name: str,
    required: str,
    depth: int,
    queue: List[Tuple[str, str, int]],
    violations: List[Violation],
) -> None:
    """Every construction/acquisition of ``cls_name`` must guarantee its
    ``required`` method runs; storing classes push a deeper obligation."""
    #: Names through which the obligation is acquired one hop out: the
    #: class constructor itself plus factory methods returning it.
    factory_attrs: Set[str] = set()
    for module in modules:
        for scope in module.functions:
            fn_node = scope.node
            for stmt in ast.walk(fn_node):
                if (
                    isinstance(stmt, ast.Return)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Name)
                    and stmt.value.func.id == cls_name
                ):
                    factory_attrs.add(fn_node.name)

    for module in modules:
        for scope in module.functions:
            fn_node, owner_cls = scope.node, scope.cls
            for stmt in ast.walk(fn_node):
                if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                    continue
                value = stmt.value
                acquired = isinstance(value, ast.Call) and (
                    (
                        isinstance(value.func, ast.Name)
                        and value.func.id == cls_name
                    )
                    or (
                        isinstance(value.func, ast.Attribute)
                        and value.func.attr in factory_attrs
                    )
                )
                if not acquired:
                    continue
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    if fn_node.name in factory_attrs:
                        continue  # the factory hands the obligation on
                    if not _required_on_local(fn_node, target.id, required):
                        violations.append(
                            Violation(
                                module.path,
                                stmt.lineno,
                                0,
                                "RPR022",
                                f"`{module.name}.{fn_node.name}` acquires a "
                                f"`{cls_name}` (which owns subcounters) but "
                                f"never guarantees `{target.id}.{required}()` "
                                "on all exits (finally/with): a dropped "
                                "connection leaks its accesses out of "
                                "history",
                            )
                        )
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and owner_cls is not None
                ):
                    holder = _method_calling_on_self_attr(
                        all_classes.get(owner_cls), target.attr, required
                    )
                    if holder is None:
                        violations.append(
                            Violation(
                                module.path,
                                stmt.lineno,
                                0,
                                "RPR022",
                                f"`{owner_cls}.{target.attr}` stores a "
                                f"`{cls_name}` but no method of "
                                f"`{owner_cls}` calls its `{required}()`: "
                                "open streams leak out of history",
                            )
                        )
                    elif depth < _FOLD_CHAIN_DEPTH:
                        queue.append((owner_cls, holder, depth + 1))
                # Subscript targets (``self._streams[id] = _Stream(...)``)
                # are containers owned by the storing class.
                elif isinstance(target, ast.Subscript) and owner_cls is not None:
                    holder = _method_calling(
                        all_classes.get(owner_cls), required
                    )
                    if holder is None:
                        violations.append(
                            Violation(
                                module.path,
                                stmt.lineno,
                                0,
                                "RPR022",
                                f"`{owner_cls}` collects `{cls_name}` "
                                "instances but no method of the class "
                                f"calls `{required}()` on them",
                            )
                        )
                    elif depth < _FOLD_CHAIN_DEPTH:
                        queue.append((owner_cls, holder, depth + 1))


def _required_on_local(fn: ast.AST, name: str, required: str) -> bool:
    """Is ``name.required()`` guaranteed: a ``finally`` or ``with``?"""
    for body in _finally_bodies(fn):
        for stmt in body:
            for call in _calls_with_attr(stmt, required):
                if _references_name(call.func, name):
                    return True
    for node in ast.walk(fn):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _references_name(item.context_expr, name):
                    return True
    return False


def _method_calling(methods: Optional[_Methods], attr: str) -> Optional[str]:
    """A method of the class calling ``.attr(...)``; ``close`` preferred
    (it is the conventional all-streams cleanup entry point)."""
    if methods is None:
        return None
    candidates = sorted(
        name for name, method in methods.items() if _calls_with_attr(method, attr)
    )
    if not candidates:
        return None
    return "close" if "close" in candidates else candidates[0]


def _method_calling_on_self_attr(
    methods: Optional[_Methods], attr: str, required: str
) -> Optional[str]:
    """A method of the class calling ``self.<attr>.<required>()``."""
    if methods is None:
        return None
    candidates = []
    for name, method in methods.items():
        for call in _calls_with_attr(method, required):
            func = call.func
            assert isinstance(func, ast.Attribute)
            if _references_self_attr(func, attr):
                candidates.append(name)
                break
    if not candidates:
        return None
    candidates.sort()
    return "close" if "close" in candidates else candidates[0]
