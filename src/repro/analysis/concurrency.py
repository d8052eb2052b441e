"""Whole-program asyncio hygiene (one pass of ``repro-lint --deep``).

The TCP server is callbacks on one asyncio event loop, run on a
background thread by :class:`~repro.service.asyncserver.BackgroundServer`;
blocking TCP clients run on their callers' threads.  What can still go
wrong between those contexts is what stalls or loses work on the loop,
and this pass checks it statically:

========  ============================================================
RPR016    blocking call (socket, ``time.sleep``, subprocess) reachable
          from a coroutine without ``run_in_executor``
          (:func:`infer_effects`, the one inferred effect)
RPR017    ``await`` while holding a ``threading.Lock``
RPR018    ``create_task``/``ensure_future`` result dropped on the floor
========  ============================================================

It also lists every thread and executor entry point it finds, which
``--report`` prints.

A lock is *held* inside a ``with`` / ``async with`` on ``self.<attr>``
or on a local, where the attribute or local is assigned from
``threading.Lock()``/``RLock()`` or ``asyncio.Lock()`` (an attribute
named ``lock``/``*_lock`` whose value the pass cannot see counts as a
thread lock).  Nested function bodies are not scanned: they run later,
under a different stack.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.lint import Violation, _dotted, register_rule
from repro.analysis.project import FunctionNode, Project, ProjectModule

if TYPE_CHECKING:
    from repro.analysis.deep import DeepAnalysis

__all__ = [
    "EffectWitness",
    "concurrency_pass",
    "concurrency_report",
    "infer_effects",
]

_TASK_FACTORIES = frozenset({"create_task", "ensure_future"})

#: A held lock: how the source spells it, and ``thread`` / ``async``.
_Held = Tuple[str, str]


@dataclass
class _ModuleFacts:
    """Everything one module contributed to the pass."""

    #: (qualname, lock, lineno) await-under-thread-lock sites (RPR017).
    await_under_lock: List[Tuple[str, str, int]] = field(default_factory=list)
    #: (qualname, factory, lineno) dropped task creations (RPR018).
    dropped_tasks: List[Tuple[str, str, int]] = field(default_factory=list)
    #: Human-readable thread/task entry points discovered in the module.
    entries: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# lock classification
# ----------------------------------------------------------------------
def _lock_kind(value: ast.expr) -> Optional[str]:
    """``thread`` / ``async`` when ``value`` constructs a lock."""
    if not isinstance(value, ast.Call):
        return None
    dotted = _dotted(value.func)
    if dotted.rsplit(".", 1)[-1] not in {"Lock", "RLock"}:
        return None
    return "async" if dotted.startswith("asyncio.") else "thread"


def _assignments(node: ast.AST) -> List[Tuple[ast.expr, ast.expr]]:
    """``(target, value)`` of every assignment under ``node``."""
    pairs: List[Tuple[ast.expr, ast.expr]] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            pairs.extend((target, sub.value) for target in sub.targets)
        elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
            pairs.append((sub.target, sub.value))
    return pairs


def _class_locks(node: ast.ClassDef) -> Dict[str, str]:
    """Lock-like ``self.<attr>`` assignments anywhere in the class body."""
    locks: Dict[str, str] = {}
    for target, value in _assignments(node):
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        kind = _lock_kind(value)
        if kind is not None:
            locks[target.attr] = kind
        elif (target.attr == "lock" or target.attr.endswith("_lock")) and (
            target.attr not in locks
        ):
            locks[target.attr] = "thread"
    return locks


# ----------------------------------------------------------------------
# per-function scan
# ----------------------------------------------------------------------
class _FunctionScanner:
    """Walk one function body tracking the lexically held lock stack."""

    def __init__(
        self,
        module: ProjectModule,
        qualname: str,
        class_locks: Dict[str, str],
        facts: _ModuleFacts,
    ) -> None:
        self.module = module
        self.qualname = qualname
        self.class_locks = class_locks
        self.facts = facts
        self.local_locks: Dict[str, str] = {}

    def scan(self, node: FunctionNode) -> None:
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for target, value in _assignments(stmt):
                kind = _lock_kind(value)
                if kind is not None and isinstance(target, ast.Name):
                    self.local_locks[target.id] = kind
        self._stmts(node.body, ())

    def _held(self, expr: ast.expr) -> Optional[_Held]:
        if isinstance(expr, ast.Name) and expr.id in self.local_locks:
            return expr.id, self.local_locks[expr.id]
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in self.class_locks
        ):
            return f"self.{expr.attr}", self.class_locks[expr.attr]
        return None

    def _stmts(self, body: Sequence[ast.stmt], held: Tuple[_Held, ...]) -> None:
        for stmt in body:
            self._stmt(stmt, held)

    def _stmt(self, stmt: ast.stmt, held: Tuple[_Held, ...]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            stack = held
            for item in stmt.items:
                self._exprs(item.context_expr, stack)
                lock = self._held(item.context_expr)
                if lock is not None:
                    stack = stack + (lock,)
            self._stmts(stmt.body, stack)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._exprs(stmt.test, held)
            self._stmts(stmt.body, held)
            self._stmts(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exprs(stmt.iter, held)
            self._stmts(stmt.body, held)
            self._stmts(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._stmts(stmt.body, held)
            for handler in stmt.handlers:
                self._stmts(handler.body, held)
            self._stmts(stmt.orelse, held)
            self._stmts(stmt.finalbody, held)
            return
        self._exprs(stmt, held)

    def _exprs(self, node: ast.AST, held: Tuple[_Held, ...]) -> None:
        """Walk an expression tree, skipping nested function bodies."""
        for sub in ast.iter_child_nodes(node):
            if isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            self._expr_node(sub, held)
            self._exprs(sub, held)

    def _expr_node(self, sub: ast.AST, held: Tuple[_Held, ...]) -> None:
        if isinstance(sub, ast.Await):
            thread_held = [name for name, kind in held if kind == "thread"]
            if thread_held:
                self.facts.await_under_lock.append(
                    (self.qualname, thread_held[-1], sub.lineno)
                )
            return
        if not isinstance(sub, ast.Call):
            return
        tail = _dotted(sub.func).rsplit(".", 1)[-1]
        if tail == "Thread":
            targets = [kw.value for kw in sub.keywords if kw.arg == "target"]
            self._entry(targets, "thread", sub.lineno)
        elif tail in {"submit", "run_in_executor", "to_thread"}:
            args = sub.args[1:] if tail == "run_in_executor" else sub.args
            self._entry(args[:1], "executor", sub.lineno)

    def _entry(self, targets: List[ast.expr], kind: str, lineno: int) -> None:
        for target in targets:
            name = _dotted(target)
            if name:
                self.facts.entries.append(
                    f"{self.module.name}:{lineno} {kind} -> {name}"
                )


def _scan_dropped_tasks(
    qualname: str, node: FunctionNode, facts: _ModuleFacts
) -> None:
    """RPR018: expression statements whose value is a task factory call."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Expr) or not isinstance(sub.value, ast.Call):
            continue
        dotted = _dotted(sub.value.func)
        tail = dotted.rsplit(".", 1)[-1] if dotted else ""
        if tail in _TASK_FACTORIES:
            facts.dropped_tasks.append((qualname, tail, sub.value.lineno))


def _scan_module(module: ProjectModule) -> _ModuleFacts:
    facts = _ModuleFacts()
    locks = {name: _class_locks(node) for name, node in module.classes.items()}
    for scope in module.functions:
        class_locks = locks[scope.cls] if scope.cls is not None else {}
        _FunctionScanner(module, scope.qualname, class_locks, facts).scan(scope.node)
        _scan_dropped_tasks(scope.qualname, scope.node, facts)
    return facts


# ----------------------------------------------------------------------
# the blocking effect (RPR016)
# ----------------------------------------------------------------------
#: Calls that can park the calling thread for an unbounded or
#: network-scale time.  ``print`` and file writes finish promptly enough
#: for a CLI banner and are not listed; ``.acquire()`` is deliberately
#: absent -- seeding it here would flag every coroutine that touches an
#: asyncio primitive whose method names mirror the threading ones.
_BLOCKING_NAMES = frozenset({"input"})
_BLOCKING_DOTTED = frozenset({"time.sleep"})
_BLOCKING_DOTTED_PREFIXES: Tuple[str, ...] = ("socket.", "subprocess.")
#: Socket-ish receiver methods: ``x.recv(...)`` blocks whatever ``x`` is
#: in this codebase (only socket code spells these names).
_BLOCKING_METHODS = frozenset(
    {"accept", "makefile", "recv", "recv_into", "send", "sendall"}
)


@dataclass(frozen=True)
class EffectWitness:
    """Where blocking enters a function (directly or via a call chain)."""

    lineno: int
    description: str


def infer_effects(project: Project, graph: CallGraph) -> Dict[str, EffectWitness]:
    """Every function that can block its thread, with where it does.

    Seeded by each function's first blocking call, then propagated to
    callers until a fixpoint.  Name-matched attribute calls dispatch
    through :meth:`CallGraph.callees`, only to modules the caller can
    import; ``run_in_executor`` /
    ``to_thread`` dispatch sites resolve to *no* candidates, so handing
    blocking work to an executor does not taint the dispatching
    coroutine.
    """
    blocking: Dict[str, EffectWitness] = {}
    for module in project.modules.values():
        for scope in module.functions:
            witness = _first_blocking_call(scope.node)
            if witness is not None:
                blocking[scope.qualname] = witness

    changed = True
    while changed:
        changed = False
        for qualname, info in graph.functions.items():
            if qualname in blocking:
                continue
            reached = next(
                (
                    (site.lineno, callee)
                    for site in info.call_sites
                    for callee in graph.callees(info, site)
                    if callee in blocking
                ),
                None,
            )
            if reached is not None:
                lineno, callee = reached
                blocking[qualname] = EffectWitness(
                    lineno, f"calls {callee} ({blocking[callee].description})"
                )
                changed = True
    return blocking


def _first_blocking_call(node: FunctionNode) -> Optional[EffectWitness]:
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        dotted = _dotted(sub.func)
        if (
            dotted in _BLOCKING_NAMES
            or dotted in _BLOCKING_DOTTED
            or dotted.startswith(_BLOCKING_DOTTED_PREFIXES)
            or (
                isinstance(sub.func, ast.Attribute)
                and dotted.rsplit(".", 1)[-1] in _BLOCKING_METHODS
            )
        ):
            return EffectWitness(sub.lineno, f"blocking call `{dotted}`")
    return None


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
@register_rule(
    "RPR016",
    "blocking-call-in-coroutine",
    "coroutine can reach a blocking call (socket, time.sleep, "
    "subprocess) without handing it to run_in_executor",
    whole_program=True,
)
@register_rule(
    "RPR017",
    "await-under-thread-lock",
    "await expression while a threading.Lock is held (stalls every "
    "task on the loop until release)",
    whole_program=True,
)
@register_rule(
    "RPR018",
    "dropped-task",
    "create_task/ensure_future result discarded: the task can be "
    "garbage-collected mid-flight and its exceptions are lost",
    whole_program=True,
)
def concurrency_pass(analysis: DeepAnalysis) -> List[Violation]:
    """RPR016-RPR018; fills in ``analysis.thread_entries``."""
    modules = analysis.project.modules
    graph, effects = analysis.graph, analysis.effects
    per_module = {name: _scan_module(module) for name, module in modules.items()}
    violations: List[Violation] = []

    coroutines = {
        scope.qualname
        for module in modules.values()
        for scope in module.functions
        if isinstance(scope.node, ast.AsyncFunctionDef)
    }
    for qualname in sorted(coroutines):
        witness = effects.get(qualname)
        if witness is not None:
            violations.append(
                Violation(
                    modules[graph.functions[qualname].module].path,
                    witness.lineno,
                    0,
                    "RPR016",
                    f"coroutine `{qualname}` can reach a blocking call "
                    f"({witness.description}); hand it to "
                    "run_in_executor or split the blocking part out",
                )
            )
    for name in sorted(per_module):
        facts = per_module[name]
        analysis.thread_entries.extend(facts.entries)
        for qualname, lock, lineno in facts.await_under_lock:
            violations.append(
                Violation(
                    modules[name].path,
                    lineno,
                    0,
                    "RPR017",
                    f"`{qualname}` awaits while holding thread lock "
                    f"`{lock}`: every task on the loop stalls until it "
                    "is released (use an asyncio.Lock or release first)",
                )
            )
        for qualname, factory, lineno in facts.dropped_tasks:
            violations.append(
                Violation(
                    modules[name].path,
                    lineno,
                    0,
                    "RPR018",
                    f"`{qualname}` discards the result of `{factory}(...)`: "
                    "an unreferenced task can be garbage-collected "
                    "mid-flight and its exception is lost; retain or "
                    "await it",
                )
            )
    analysis.thread_entries.sort()
    return violations


def concurrency_report(analysis: DeepAnalysis) -> List[str]:
    """The thread/executor entry-point table, for ``--report``."""
    lines: List[str] = ["concurrency: thread/executor entry points"]
    if analysis.thread_entries:
        lines.extend(f"  {entry}" for entry in analysis.thread_entries)
    else:
        lines.append("  (none)")
    return lines
