"""Page-accounting analysis (two passes of ``repro-lint --deep``).

The paper's headline numbers (Figure 17's EINN-vs-INN page advantage,
the SENN tier shares) are *accounting* claims: they hold only if every
R-tree node access is billed exactly once through
:class:`~repro.index.pagestats.PageAccessCounter`.  PR 6 found three
real billing bugs at runtime; this pass turns both bug classes into
static findings:

========  ============================================================
RPR021    node-scan billing discipline inside the query-reachable
          billing modules: every scanned node is metered through the
          ``RTree.read_node`` chokepoint exactly once (unbilled and
          double-billed scans both flagged, plus direct
          ``record``/``record_scan`` calls that bypass the chokepoint)
RPR022    ``subcounter()`` fold-once protocol: every subcounter
          creation has exactly one absorb-into-history path on all
          exits, including error paths (the PR 6 bug class)
========  ============================================================

**Billing model (RPR021).**  The checked scopes are the functions in
:data:`repro.analysis.config.BILLING_MODULES` reachable from the query
entry points (:data:`repro.analysis.config.BILLING_ENTRY_POINTS`) over
the call graph.  Within a scope, a name is *billed* once it is bound
from a ``read_node(node, counter)`` call that actually passes a
counter; scanning a node (``X.entries`` / ``X.arrays()``) is legal only
for billed names and parameters.  Parameter obligations flow
interprocedurally: a fixpoint computes, per function, which parameter
positions it *scans* and which it *bills* (passes to ``read_node``
itself), and every call site must pass a billed node to a
scans-without-billing position -- and must *not* pass an already billed
node to a billing position (that is the double-billing half).

**Fold-once model (RPR022).**  A ``X.subcounter()`` bound to a local
must be absorbed in a ``finally`` block of the same function; one bound
to ``self.<f>`` requires a fold method on the owning class (a method
that calls ``.absorb(...)`` and touches ``self.<f>``), and every place
that *constructs* such a class must in turn guarantee the fold method
runs: storing the object on ``self`` demands a cleanup method, and a
factory returning it demands ``close()`` under ``finally``/``with`` at
each acquisition site.  The chain is deliberately bounded at one
factory hop -- beyond that, the runtime accounting sanitizer
(:mod:`repro.analysis.runtime`) owns the check.

Known approximations, on the side of silence: keyword-passed nodes are
not tracked and ambiguous bare-name callees carry no obligation.

Wire-codec symmetry is not checked here: the hypothesis round-trip,
trailing-bytes and truncation properties of
``tests/test_service_protocol.py`` cover every message type.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import GENERIC_ATTRS
from repro.analysis.lint import Violation, _render, register_rule
from repro.analysis.project import FunctionNode, FunctionScope, Project, ProjectModule

if TYPE_CHECKING:
    from repro.analysis.deep import DeepAnalysis

__all__ = [
    "BillingSite",
    "ScopeSummary",
    "accounting_report",
    "billing_pass",
    "fold_once_pass",
]

#: The billing chokepoint: its own body legitimately scans the node it
#: meters and calls ``record_scan`` directly.
_CHOKEPOINT = "read_node"
#: Counter methods that may only be called by the chokepoint (``record``
#: / ``record_scan``); ``record_object`` is the data-record primitive
#: and stays open to the query layer.
_CHOKEPOINT_ONLY = frozenset({"record", "record_scan"})


# ----------------------------------------------------------------------
# facts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BillingSite:
    """One metering call discovered in a billing module."""

    module: str
    qualname: str
    lineno: int
    #: ``read_node`` or ``record_object``.
    kind: str
    #: Rendered counter expression (``"self.counter"``), ``""`` if absent.
    counter: str


@dataclass(frozen=True)
class _CallRec:
    """One call made inside a scope, for obligation propagation."""

    callee: str
    lineno: int
    #: Positional args: the bare name for ``ast.Name`` args, else None.
    arg_names: Tuple[Optional[str], ...]
    #: True per position when the arg is itself a metered read_node call.
    arg_billed_inline: Tuple[bool, ...]
    #: True when called through an attribute (``self.m(...)``): the
    #: callee's leading ``self`` parameter is bound by the receiver.
    via_attr: bool


@dataclass
class ScopeSummary:
    """Billing-relevant facts of one function scope (nested defs are
    their own scopes)."""

    module: str
    qualname: str
    lineno: int
    params: Tuple[str, ...]
    #: True for bound methods (``self`` occupies parameter 0).
    is_method: bool
    billed: Set[str] = field(default_factory=set)
    #: (name, lineno) for every ``X.entries`` / ``X.arrays()`` scan.
    scans: List[Tuple[str, int]] = field(default_factory=list)
    calls: List[_CallRec] = field(default_factory=list)
    read_sites: List[BillingSite] = field(default_factory=list)
    object_sites: List[BillingSite] = field(default_factory=list)
    #: Param indices passed as the node argument of a read_node call.
    bills_params: Set[int] = field(default_factory=set)
    #: (lineno, name) read_node calls whose node arg was already billed.
    double_billed: List[Tuple[int, str]] = field(default_factory=list)
    #: (lineno, method) direct record/record_scan chokepoint bypasses.
    bypasses: List[Tuple[int, str]] = field(default_factory=list)
    #: (lineno,) read_node calls that pass no counter at all.
    unmetered_reads: List[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# scope scanning
# ----------------------------------------------------------------------
def _is_read_node(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == _CHOKEPOINT
    return isinstance(func, ast.Name) and func.id == _CHOKEPOINT


def _counter_arg(call: ast.Call) -> Optional[ast.expr]:
    """The counter argument of a read_node call, if one is passed."""
    if len(call.args) >= 2:
        return call.args[1]
    for kw in call.keywords:
        if kw.arg == "counter":
            return kw.value
    return None


class _ScopeScanner:
    """Collect one scope's billing facts, skipping nested defs."""

    def __init__(self, scope: ScopeSummary) -> None:
        self.scope = scope
        #: Param name -> index, for bills_params attribution.
        self.param_index = {name: i for i, name in enumerate(scope.params)}

    def scan(self, node: FunctionNode) -> None:
        for stmt in node.body:
            self._stmt(stmt)

    # -- statements ----------------------------------------------------
    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                self._assign(target.id, stmt.value)
                if not (
                    isinstance(stmt.value, ast.Call)
                    and _is_read_node(stmt.value)
                ):
                    # _assign already recorded a read_node bind; anything
                    # else (scans, plain calls) is recorded here.
                    self._expr_node(stmt.value)
                return
        if isinstance(stmt, (ast.If, ast.While)):
            self._expr_node(stmt.test)
            for sub in stmt.body:
                self._stmt(sub)
            for sub in stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr_node(stmt.iter)
            for sub in stmt.body:
                self._stmt(sub)
            for sub in stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub)
            for sub in stmt.orelse:
                self._stmt(sub)
            for sub in stmt.finalbody:
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr_node(item.context_expr)
            for sub in stmt.body:
                self._stmt(sub)
            return
        self._walk_children(stmt)

    def _assign(self, target: str, value: ast.expr) -> None:
        """``target = value``: billing bind or alias propagation."""
        if isinstance(value, ast.Call) and _is_read_node(value):
            self._read_node_call(value, bound_to=target)
            return
        if isinstance(value, ast.Name) and value.id in self.scope.billed:
            self.scope.billed.add(target)
            return
        # Rebinding a billed name to anything else kills its billing.
        self.scope.billed.discard(target)

    # -- expressions ---------------------------------------------------
    def _walk_children(self, node: ast.AST) -> None:
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            self._expr_node(sub)

    def _expr_node(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            if _is_read_node(node):
                self._read_node_call(node, bound_to=None)
                return
            self._plain_call(node)
            self._walk_children(node)
            return
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "entries"
            and isinstance(node.value, ast.Name)
            and isinstance(node.ctx, ast.Load)
        ):
            self.scope.scans.append((node.value.id, node.lineno))
        self._walk_children(node)

    def _read_node_call(self, call: ast.Call, bound_to: Optional[str]) -> None:
        counter = _counter_arg(call)
        site = BillingSite(
            module=self.scope.module,
            qualname=self.scope.qualname,
            lineno=call.lineno,
            kind="read_node",
            counter=_render(counter) if counter is not None else "",
        )
        self.scope.read_sites.append(site)
        if counter is None:
            self.scope.unmetered_reads.append(call.lineno)
        node_arg = call.args[0] if call.args else None
        if isinstance(node_arg, ast.Name):
            name = node_arg.id
            if name in self.scope.billed and name != bound_to:
                # Re-reading an already billed node (and not the
                # self-rebind idiom ``X = read_node(X, c)``).
                self.scope.double_billed.append((call.lineno, name))
            if name in self.param_index:
                self.scope.bills_params.add(self.param_index[name])
        elif isinstance(node_arg, ast.Call) and _is_read_node(node_arg):
            self.scope.double_billed.append((call.lineno, _render(node_arg)))
        if node_arg is not None and not isinstance(node_arg, ast.Name):
            self._walk_children(node_arg)
        if counter is not None and bound_to is not None:
            self.scope.billed.add(bound_to)

    def _plain_call(self, call: ast.Call) -> None:
        func = call.func
        callee = ""
        via_attr = False
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
            via_attr = True
            if callee in _CHOKEPOINT_ONLY:
                self.scope.bypasses.append((call.lineno, callee))
            elif callee == "record_object":
                self.scope.object_sites.append(
                    BillingSite(
                        module=self.scope.module,
                        qualname=self.scope.qualname,
                        lineno=call.lineno,
                        kind="record_object",
                        counter=_render(func.value),
                    )
                )
        if callee and callee not in GENERIC_ATTRS:
            arg_names = tuple(
                arg.id if isinstance(arg, ast.Name) else None
                for arg in call.args
            )
            billed_inline = tuple(
                isinstance(arg, ast.Call)
                and _is_read_node(arg)
                and _counter_arg(arg) is not None
                for arg in call.args
            )
            self.scope.calls.append(
                _CallRec(callee, call.lineno, arg_names, billed_inline, via_attr)
            )


def _summarize(scope: FunctionScope, module: str) -> ScopeSummary:
    args = scope.node.args
    decorators = {
        d.id for d in scope.node.decorator_list if isinstance(d, ast.Name)
    }
    return ScopeSummary(
        module=module,
        qualname=scope.qualname,
        lineno=scope.node.lineno,
        params=tuple(a.arg for a in (*args.posonlyargs, *args.args)),
        is_method=scope.cls is not None and "staticmethod" not in decorators,
    )


# ----------------------------------------------------------------------
# obligation fixpoint (RPR021 interprocedural half)
# ----------------------------------------------------------------------
def _by_bare_name(scopes: Dict[str, ScopeSummary]) -> Dict[str, List[str]]:
    table: Dict[str, List[str]] = {}
    for qualname in scopes:
        table.setdefault(qualname.rsplit(".", 1)[-1], []).append(qualname)
    return table


def _resolve_callee(
    rec: _CallRec,
    caller: ScopeSummary,
    by_name: Dict[str, List[str]],
) -> Optional[str]:
    """Unique bare-name resolution, same-module first; ambiguous -> None."""
    candidates = by_name.get(rec.callee, [])
    if not candidates:
        return None
    same_module = [q for q in candidates if q.startswith(caller.module + ".")]
    pool = same_module if same_module else candidates
    if len(pool) != 1:
        return None
    return pool[0]


def _param_offset(callee: ScopeSummary, rec: _CallRec) -> int:
    """Positional-arg -> parameter-index shift (bound ``self``)."""
    return 1 if (callee.is_method and rec.via_attr) else 0


def _obligation_fixpoint(
    scopes: Dict[str, ScopeSummary],
    by_name: Dict[str, List[str]],
) -> Tuple[Dict[str, Set[int]], Dict[str, Set[int]]]:
    """Per scope: the param indices it scans, and the ones it bills."""
    scan_ob: Dict[str, Set[int]] = {}
    bill_ob: Dict[str, Set[int]] = {}
    for qualname, scope in scopes.items():
        param_index = {name: i for i, name in enumerate(scope.params)}
        direct_scans = {
            param_index[name]
            for name, _ in scope.scans
            if name in param_index
        }
        scan_ob[qualname] = direct_scans
        bill_ob[qualname] = set(scope.bills_params)

    changed = True
    while changed:
        changed = False
        for qualname, scope in scopes.items():
            param_index = {name: i for i, name in enumerate(scope.params)}
            for rec in scope.calls:
                target = _resolve_callee(rec, scope, by_name)
                if target is None or target == qualname:
                    continue
                offset = _param_offset(scopes[target], rec)
                for pos, name in enumerate(rec.arg_names):
                    if name is None or name not in param_index:
                        continue
                    callee_param = pos + offset
                    mine = param_index[name]
                    if callee_param in bill_ob[target]:
                        if mine not in bill_ob[qualname]:
                            bill_ob[qualname].add(mine)
                            changed = True
                    elif callee_param in scan_ob[target]:
                        if mine not in scan_ob[qualname]:
                            scan_ob[qualname].add(mine)
                            changed = True
    return scan_ob, bill_ob


# ----------------------------------------------------------------------
# RPR021 verdicts
# ----------------------------------------------------------------------
def _billing_verdicts(
    project: Project,
    scopes: Dict[str, ScopeSummary],
    checked: Set[str],
    scan_obligations: Dict[str, Set[int]],
    billed_params: Dict[str, Set[int]],
) -> List[Violation]:
    violations: List[Violation] = []
    by_name = _by_bare_name(scopes)
    for qualname in sorted(checked):
        scope = scopes[qualname]
        path = project.modules[scope.module].path
        param_index = {name: i for i, name in enumerate(scope.params)}
        for lineno in scope.unmetered_reads:
            violations.append(
                Violation(
                    path,
                    lineno,
                    0,
                    "RPR021",
                    f"`{qualname}` calls read_node without a counter: the "
                    "page access is never billed",
                )
            )
        for name, lineno in scope.scans:
            if name in scope.billed or name in param_index:
                continue
            violations.append(
                Violation(
                    path,
                    lineno,
                    0,
                    "RPR021",
                    f"`{qualname}` scans `{name}.entries` but `{name}` was "
                    "never metered through read_node: the page access is "
                    "unbilled",
                )
            )
        for lineno, name in scope.double_billed:
            violations.append(
                Violation(
                    path,
                    lineno,
                    0,
                    "RPR021",
                    f"`{qualname}` re-meters `{name}` through read_node: "
                    "the page access is billed twice",
                )
            )
        for lineno, method in scope.bypasses:
            violations.append(
                Violation(
                    path,
                    lineno,
                    0,
                    "RPR021",
                    f"`{qualname}` calls `{method}(...)` directly, "
                    "bypassing the read_node chokepoint (the global "
                    "rtree.node_reads counter misses the access)",
                )
            )
        for rec in scope.calls:
            target = _resolve_callee(rec, scope, by_name)
            if target is None or target == qualname:
                continue
            offset = _param_offset(scopes[target], rec)
            for pos, name in enumerate(rec.arg_names):
                callee_param = pos + offset
                needs_billed = (
                    callee_param in scan_obligations.get(target, ())
                    and callee_param not in billed_params.get(target, ())
                )
                if not needs_billed:
                    if (
                        name is not None
                        and name in scope.billed
                        and callee_param in billed_params.get(target, ())
                    ):
                        violations.append(
                            Violation(
                                path,
                                rec.lineno,
                                0,
                                "RPR021",
                                f"`{qualname}` passes already billed "
                                f"`{name}` to `{rec.callee}`, which meters "
                                "it again: the page access is billed twice",
                            )
                        )
                    continue
                if rec.arg_billed_inline[pos]:
                    continue
                if name is not None and (
                    name in scope.billed or name in param_index
                ):
                    continue
                shown = name if name is not None else "<expression>"
                violations.append(
                    Violation(
                        path,
                        rec.lineno,
                        0,
                        "RPR021",
                        f"`{qualname}` passes unmetered `{shown}` to "
                        f"`{rec.callee}`, which scans it without billing: "
                        "the page access is unbilled",
                    )
                )
    return violations


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


# ----------------------------------------------------------------------
# RPR021: the billing pass
# ----------------------------------------------------------------------
@register_rule(
    "RPR021",
    "billing-discipline",
    "node scan in a query-reachable billing module that is not "
    "metered through read_node exactly once (unbilled or "
    "double-billed), or a direct record/record_scan call bypassing "
    "the chokepoint",
    whole_program=True,
)
def billing_pass(analysis: DeepAnalysis) -> List[Violation]:
    """RPR021, and the ``checked`` / ``billing_sites`` tables of ``analysis``."""
    project, policy = analysis.project, analysis.policy
    scopes: Dict[str, ScopeSummary] = {}
    tops: Dict[str, str] = {}
    for name, module in sorted(project.modules.items()):
        if name not in policy.billing_modules:
            continue
        for scope in module.scopes:
            if scope.node.name == _CHOKEPOINT:
                continue  # the billing primitive scans what it meters
            summary = _summarize(scope, name)
            _ScopeScanner(summary).scan(scope.node)
            scopes[scope.qualname] = summary
            tops[scope.qualname] = scope.top

    # Checked scopes: nested defs are checked iff their enclosing
    # graph-visible function is query-reachable.
    reachable = analysis.graph.call_closure(policy.billing_entry_points)
    analysis.checked = {q for q, top in tops.items() if top in reachable}

    scan_obligations, billed_params = _obligation_fixpoint(
        scopes, _by_bare_name(scopes)
    )
    for qualname in sorted(scopes):
        analysis.billing_sites.extend(scopes[qualname].read_sites)
        analysis.billing_sites.extend(scopes[qualname].object_sites)
    analysis.billing_sites.sort(key=lambda s: (s.module, s.lineno))
    return _billing_verdicts(
        project, scopes, analysis.checked, scan_obligations, billed_params
    )


def accounting_report(analysis: DeepAnalysis) -> List[str]:
    """The billing table (site -> counter), for ``--report``."""
    lines: List[str] = ["accounting: billing table (site -> counter)"]
    if analysis.billing_sites:
        labels = [
            f"{site.module}:{site.lineno} {site.kind} "
            f"[{site.qualname.rsplit('.', 1)[-1]}]"
            for site in analysis.billing_sites
        ]
        width = max(len(label) for label in labels)
        for label, site in zip(labels, analysis.billing_sites):
            counter = site.counter if site.counter else "(unbilled)"
            lines.append(f"  {label.ljust(width)}  -> {counter}")
    else:
        lines.append("  (no billing sites)")
    lines.append("accounting: checked scopes (query-reachable)")
    if analysis.checked:
        lines.extend(f"  {qualname}" for qualname in sorted(analysis.checked))
    else:
        lines.append("  (none)")
    return lines
