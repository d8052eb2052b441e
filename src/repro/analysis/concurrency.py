"""Whole-program concurrency analysis (one pass of ``repro-lint --deep``).

The service era (PR 6) mixed three execution contexts -- the caller's
thread, the asyncio event-loop thread of
:class:`~repro.service.asyncserver.BackgroundServer`, and the client
worker threads -- around shared mutable state.  This pass statically
checks the discipline that keeps them honest:

========  ============================================================
RPR015    shared field written without the lock its other writes hold
          (or outside its declared ``guarded-by`` guard)
RPR016    blocking call (socket, ``time.sleep``, subprocess) reachable
          from a coroutine without ``run_in_executor``
          (:func:`infer_effects`, the one inferred effect)
RPR017    ``await`` while holding a ``threading.Lock``
RPR018    ``create_task``/``ensure_future`` result dropped on the floor
RPR019    lock-order cycle (potential deadlock), incl. self-deadlock on
          a non-reentrant lock
RPR020    shared field with unlocked writes and no
          ``# repro: guarded-by(<lock>)`` annotation
========  ============================================================

**What counts as shared.**  A class is analyzed for field discipline
when it (a) owns a lock-like attribute (assigned from
``threading.Lock()``/``asyncio.Lock()``/``named_lock(...)`` or named
``*_lock``), (b) hands one of its bound methods to
``threading.Thread(target=...)``, or (c) is listed in
:data:`repro.analysis.config.CONCURRENT_CLASSES`.  Everything else
(R-trees, candidate heaps, page counters) is single-context by the
documented thread model and deliberately out of scope -- flagging every
reachable object would drown the signal.

**Guard inference.**  Writes inside ``__init__``/``__post_init__`` are
exempt (the object has not escaped).  A field whose every other write
happens under one canonical lock gets a ``field -> lock`` entry in the
guarded-by table (emitted into the report); mixed locked/unlocked
writes are RPR015; all-unlocked writes demand an explicit annotation
(RPR020), either a lock name or an ownership sentinel from
:data:`repro.analysis.config.GUARDED_BY_OWNERS`.

**Lock order.**  Lexical ``with`` nesting plus one interprocedural hop
(call under a held lock -> the callee's transitively acquired locks,
fixpoint over the call graph with the same import-reachability filter
the blocking effect uses) builds a :class:`~repro.analysis.locks.
LockOrderGraph`; cycles are RPR019.  The runtime race sanitizer
(:mod:`repro.analysis.runtime`) records the same graph from live
acquisitions, and the service tests assert the observed edges are a
subset of the static ones.

Known approximations, on the side of silence: nested function bodies
are not scanned for field writes/lock scopes (closures in this codebase
only touch locals), and writes through a global alias (``OBS.enabled``)
are not attributed to the class.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis import config
from repro.analysis.callgraph import CallGraph
from repro.analysis.lint import Violation, _dotted, register_rule
from repro.analysis.locks import LockOrderGraph, LockSite, canonical_lock_name
from repro.analysis.project import FunctionNode, Project, ProjectModule

if TYPE_CHECKING:
    from repro.analysis.deep import DeepAnalysis

__all__ = [
    "EffectWitness",
    "FieldWrite",
    "LockDecl",
    "SharedClass",
    "concurrency_pass",
    "concurrency_report",
    "infer_effects",
]

_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})
_TASK_FACTORIES = frozenset({"create_task", "ensure_future"})
_GUARDED_RE = re.compile(r"#\s*repro:\s*guarded-by\(([^)]+)\)")
#: Receiver-mutating method names treated as writes of ``self.field``
#: when called as ``self.field.method(...)`` (the builtin mutators that
#: matter for containers used as shared state).
_MUTATOR_METHODS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "popitem", "clear",
     "add", "discard", "update", "setdefault"}
)

# ----------------------------------------------------------------------
# facts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LockDecl:
    """One lock-like attribute/local discovered in the source."""

    canonical: str
    #: ``thread`` / ``async`` / ``unknown`` (lock-named attr whose value
    #: the classifier cannot see, e.g. assigned from a parameter).
    kind: str
    reentrant: bool
    lineno: int


@dataclass(frozen=True)
class FieldWrite:
    """One write to ``self.<field>`` inside a method."""

    field: str
    method: str
    lineno: int
    #: Canonical names of locks lexically held at the write.
    held: FrozenSet[str]
    in_init: bool
    #: Raw ``guarded-by`` spec on the write's line, if any.
    annotation: Optional[str]


@dataclass
class SharedClass:
    """A class the pass treats as reachable from more than one context."""

    module: str
    name: str
    lineno: int
    reason: str
    locks: Dict[str, LockDecl] = field(default_factory=dict)
    writes: List[FieldWrite] = field(default_factory=list)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class _ClassFacts:
    """Raw per-class scan results (shared or not -- decided later)."""

    module: str
    name: str
    lineno: int
    locks: Dict[str, LockDecl] = field(default_factory=dict)
    writes: List[FieldWrite] = field(default_factory=list)
    thread_target: bool = False


@dataclass
class _ModuleFacts:
    """Everything one module contributed to the pass."""

    classes: Dict[str, _ClassFacts] = field(default_factory=dict)
    #: qualname -> canonical locks acquired directly in that function.
    direct_acquires: Dict[str, Set[str]] = field(default_factory=dict)
    #: qualname -> [(lineno, held)] for every call made under a lock.
    calls_under_lock: Dict[str, List[Tuple[int, Tuple[str, ...]]]] = field(
        default_factory=dict
    )
    #: (outer, inner, lineno) lexical nesting edges.
    nest_edges: List[Tuple[str, str, int]] = field(default_factory=list)
    #: (canonical, lineno) self-reacquisitions of non-reentrant locks.
    self_edges: List[Tuple[str, int]] = field(default_factory=list)
    #: (qualname, lock, lineno) await-under-thread-lock sites (RPR017).
    await_under_lock: List[Tuple[str, str, int]] = field(default_factory=list)
    #: (qualname, factory, lineno) dropped task creations (RPR018).
    dropped_tasks: List[Tuple[str, str, int]] = field(default_factory=list)
    #: Human-readable thread/task entry points discovered in the module.
    entries: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# lock classification
# ----------------------------------------------------------------------
def _lock_value(value: ast.expr) -> Optional[Tuple[str, bool, Optional[str]]]:
    """``(kind, reentrant, explicit_name)`` when ``value`` builds a lock."""
    if not isinstance(value, ast.Call):
        return None
    dotted = _dotted(value.func)
    tail = dotted.rsplit(".", 1)[-1]
    if tail in {"Lock", "RLock"}:
        kind = "async" if dotted.startswith("asyncio.") else "thread"
        return kind, tail == "RLock", None
    if tail == "named_lock":
        name: Optional[str] = None
        if value.args and isinstance(value.args[0], ast.Constant):
            raw = value.args[0].value
            if isinstance(raw, str):
                name = raw
        return "thread", False, name
    return None


def _is_lock_name(attr: str) -> bool:
    return attr == "lock" or attr.endswith("_lock")


def _self_field(target: ast.expr) -> Optional[str]:
    """``self.x``, ``self.x[...]`` or deeper chains rooted at ``self.x``."""
    current: ast.expr = target
    last_attr: Optional[str] = None
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if isinstance(current, ast.Attribute):
            last_attr = current.attr
        current = current.value
    if isinstance(current, ast.Name) and current.id == "self":
        return last_attr
    return None


def _class_lock_table(node: ast.ClassDef, cls_name: str) -> Dict[str, LockDecl]:
    """Lock-like ``self.<attr>`` assignments anywhere in the class body."""
    locks: Dict[str, LockDecl] = {}
    for sub in ast.walk(node):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(sub, ast.Assign):
            targets, value = list(sub.targets), sub.value
        elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
            targets, value = [sub.target], sub.value
        if value is None:
            continue
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            classified = _lock_value(value)
            if classified is not None:
                kind, reentrant, explicit = classified
                canonical = canonical_lock_name(explicit or f"{cls_name}.{attr}")
                locks[attr] = LockDecl(canonical, kind, reentrant, sub.lineno)
            elif _is_lock_name(attr) and attr not in locks:
                canonical = canonical_lock_name(f"{cls_name}.{attr}")
                locks[attr] = LockDecl(canonical, "unknown", False, sub.lineno)
    return locks


# ----------------------------------------------------------------------
# per-function scan
# ----------------------------------------------------------------------
class _FunctionScanner:
    """Walk one function body tracking the lexically held lock stack.

    Nested function definitions are *not* descended into (their bodies
    execute later, under a different stack); ``with``/``async with``
    scoping is tracked exactly.
    """

    def __init__(
        self,
        module: ProjectModule,
        qualname: str,
        cls: Optional[_ClassFacts],
        class_locks: Dict[str, LockDecl],
        facts: _ModuleFacts,
    ) -> None:
        self.module = module
        self.qualname = qualname
        self.cls = cls
        self.class_locks = class_locks
        self.facts = facts
        self.method = qualname.rsplit(".", 1)[-1]
        self.local_locks: Dict[str, LockDecl] = {}
        self.acquires: Set[str] = set()
        self.calls: List[Tuple[int, Tuple[str, ...]]] = []

    # -- lock expression canonicalization -----------------------------
    def _canon(self, expr: ast.expr) -> Optional[LockDecl]:
        if isinstance(expr, ast.Name):
            return self.local_locks.get(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return self.class_locks.get(expr.attr)
        return None

    # -- main walk -----------------------------------------------------
    def scan(self, node: FunctionNode) -> None:
        self._prescan_locals(node.body)
        self._stmts(node.body, ())
        self.facts.direct_acquires[self.qualname] = self.acquires
        if self.calls:
            self.facts.calls_under_lock[self.qualname] = self.calls

    def _prescan_locals(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target = sub.targets[0]
                    classified = _lock_value(sub.value)
                    if classified is not None and isinstance(target, ast.Name):
                        kind, reentrant, explicit = classified
                        canonical = canonical_lock_name(
                            explicit
                            or f"{self.qualname.split('.')[-2]}."
                            f"{self.method}.{target.id}"
                        )
                        self.local_locks[target.id] = LockDecl(
                            canonical, kind, reentrant, sub.lineno
                        )

    def _acquired(self, decl: LockDecl, held: Tuple[LockDecl, ...], lineno: int) -> None:
        self.acquires.add(decl.canonical)
        for outer in held:
            if outer.canonical == decl.canonical:
                if not decl.reentrant:
                    self.facts.self_edges.append((decl.canonical, lineno))
            else:
                self.facts.nest_edges.append(
                    (outer.canonical, decl.canonical, lineno)
                )

    def _stmts(self, body: Sequence[ast.stmt], held: Tuple[LockDecl, ...]) -> None:
        for stmt in body:
            self._stmt(stmt, held)

    def _stmt(self, stmt: ast.stmt, held: Tuple[LockDecl, ...]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: List[LockDecl] = []
            stack = held
            for item in stmt.items:
                self._exprs(item.context_expr, stack)
                if item.optional_vars is not None:
                    self._exprs(item.optional_vars, stack)
                decl = self._canon(item.context_expr)
                if decl is not None:
                    self._acquired(decl, stack, stmt.lineno)
                    acquired.append(decl)
                    stack = stack + (decl,)
            self._stmts(stmt.body, stack)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._exprs(stmt.test, held)
            self._stmts(stmt.body, held)
            self._stmts(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exprs(stmt.iter, held)
            self._exprs(stmt.target, held)
            self._stmts(stmt.body, held)
            self._stmts(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._stmts(stmt.body, held)
            for handler in stmt.handlers:
                if handler.type is not None:
                    self._exprs(handler.type, held)
                self._stmts(handler.body, held)
            self._stmts(stmt.orelse, held)
            self._stmts(stmt.finalbody, held)
            return
        # Simple statement: record writes, then walk its expressions.
        self._record_writes(stmt, held)
        self._exprs(stmt, held)

    def _record_writes(self, stmt: ast.stmt, held: Tuple[LockDecl, ...]) -> None:
        if self.cls is None:
            return
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
                return
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _MUTATOR_METHODS
            ):
                owner = call.func.value
                field_name = _self_field(owner)
                if field_name is not None:
                    self._add_write(field_name, stmt.lineno, held)
            return
        for target in targets:
            field_name = _self_field(target)
            if field_name is not None and field_name not in self.class_locks:
                self._add_write(field_name, stmt.lineno, held)

    def _add_write(
        self, field_name: str, lineno: int, held: Tuple[LockDecl, ...]
    ) -> None:
        assert self.cls is not None
        line = (
            self.module.lines[lineno - 1]
            if 0 < lineno <= len(self.module.lines)
            else ""
        )
        match = _GUARDED_RE.search(line)
        self.cls.writes.append(
            FieldWrite(
                field=field_name,
                method=self.method,
                lineno=lineno,
                held=frozenset(decl.canonical for decl in held),
                in_init=self.method in _INIT_METHODS,
                annotation=match.group(1).strip() if match else None,
            )
        )

    def _exprs(self, node: ast.AST, held: Tuple[LockDecl, ...]) -> None:
        """Walk an expression tree, skipping nested function bodies."""
        for sub in ast.iter_child_nodes(node):
            if isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            self._expr_node(sub, held)
            self._exprs(sub, held)

    def _expr_node(self, sub: ast.AST, held: Tuple[LockDecl, ...]) -> None:
        if isinstance(sub, ast.Await):
            thread_held = [
                decl for decl in held if decl.kind in ("thread", "unknown")
            ]
            if thread_held:
                self.facts.await_under_lock.append(
                    (self.qualname, thread_held[-1].canonical, sub.lineno)
                )
            return
        if not isinstance(sub, ast.Call):
            return
        call = sub
        if held:
            self.calls.append(
                (call.lineno, tuple(decl.canonical for decl in held))
            )
        dotted = _dotted(call.func)
        tail = dotted.rsplit(".", 1)[-1] if dotted else ""
        # Explicit .acquire() on a known lock counts as an acquisition
        # event for ordering (no scope tracking: .release() placement is
        # the runtime sanitizer's job).
        if tail == "acquire" and isinstance(call.func, ast.Attribute):
            decl = self._canon(call.func.value)
            if decl is not None:
                self._acquired(decl, held, call.lineno)
        # Thread entry points.
        if tail == "Thread":
            for keyword in call.keywords:
                if keyword.arg == "target":
                    self._thread_target(keyword.value, call.lineno)
        elif tail in {"submit", "run_in_executor", "to_thread"}:
            args = call.args[1:] if tail == "run_in_executor" else call.args
            if args:
                name = _dotted(args[0])
                if name:
                    self.facts.entries.append(
                        f"{self.module.name}:{call.lineno} "
                        f"executor -> {name}"
                    )

    def _thread_target(self, value: ast.expr, lineno: int) -> None:
        name = _dotted(value)
        if name:
            self.facts.entries.append(
                f"{self.module.name}:{lineno} thread -> {name}"
            )
        if (
            self.cls is not None
            and isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            self.cls.thread_target = True


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


# ----------------------------------------------------------------------
# module scan
# ----------------------------------------------------------------------
def _scan_module(module: ProjectModule) -> _ModuleFacts:
    facts = _ModuleFacts()
    for name, node in module.classes.items():
        facts.classes[name] = _ClassFacts(
            module.name, name, node.lineno, locks=_class_lock_table(node, name)
        )
    for scope in module.functions:
        owner = facts.classes[scope.cls] if scope.cls is not None else None
        locks = owner.locks if owner is not None else {}
        _FunctionScanner(module, scope.qualname, owner, locks, facts).scan(scope.node)
        _scan_dropped_tasks(scope.qualname, scope.node, facts)
    return facts


# ----------------------------------------------------------------------
# field-discipline verdicts (RPR015 / RPR020)
# ----------------------------------------------------------------------
def _known_locks(per_module: Dict[str, _ModuleFacts]) -> Set[str]:
    known: Set[str] = set()
    for facts in per_module.values():
        for cls in facts.classes.values():
            known.update(decl.canonical for decl in cls.locks.values())
        for acquired in facts.direct_acquires.values():
            known.update(acquired)
    known.update(config.LOCK_ALIASES.values())
    return known


def _canon_spec(spec: str, cls_name: str) -> str:
    spec = spec.strip()
    if spec in config.GUARDED_BY_OWNERS:
        return f"owner:{spec}"
    if spec.startswith("self."):
        return canonical_lock_name(f"{cls_name}.{spec[len('self.'):]}")
    return canonical_lock_name(spec)


def _field_verdicts(
    shared: SharedClass,
    known_locks: Set[str],
    path: str,
    guarded_by: Dict[str, str],
    violations: List[Violation],
) -> None:
    by_field: Dict[str, List[FieldWrite]] = {}
    for write in shared.writes:
        by_field.setdefault(write.field, []).append(write)

    for field_name in sorted(by_field):
        writes = by_field[field_name]
        label = f"{shared.name}.{field_name}"
        # Annotations declared on *any* write line (init included) apply
        # to the field as a whole.
        specs = {
            _canon_spec(write.annotation, shared.name)
            for write in writes
            if write.annotation is not None
        }
        for spec in sorted(specs):
            if not spec.startswith("owner:") and spec not in known_locks:
                first = writes[0]
                violations.append(
                    Violation(
                        path,
                        first.lineno,
                        0,
                        "RPR020",
                        f"unknown guarded-by spec on `{label}`: not a "
                        "declared lock or an owner sentinel "
                        f"({', '.join(sorted(config.GUARDED_BY_OWNERS))})",
                    )
                )
                return
        live = [write for write in writes if not write.in_init]
        owners = {spec for spec in specs if spec.startswith("owner:")}
        lock_specs = {spec for spec in specs if not spec.startswith("owner:")}

        if owners:
            guarded_by[label] = sorted(owners)[0]
            continue
        if lock_specs:
            guard = sorted(lock_specs)[0]
            guarded_by[label] = guard
            for write in live:
                if guard not in write.held:
                    violations.append(
                        Violation(
                            path,
                            write.lineno,
                            0,
                            "RPR015",
                            f"`{shared.qualname}.{write.method}` writes "
                            f"`{label}` without holding its declared "
                            f"guard `{guard}`",
                        )
                    )
            continue
        if not live:
            continue
        common = frozenset.intersection(*(write.held for write in live))
        if common:
            guarded_by[label] = sorted(common)[0]
            continue
        candidates: Set[str] = set()
        for write in live:
            candidates.update(write.held)
        if not candidates:
            first = live[0]
            violations.append(
                Violation(
                    path,
                    first.lineno,
                    0,
                    "RPR020",
                    f"shared class `{shared.qualname}` ({shared.reason}) "
                    f"writes field `{field_name}` without any lock; add a "
                    "lock or a `# repro: guarded-by(<lock-or-owner>)` "
                    "annotation",
                )
            )
            continue
        lock_hint = sorted(candidates)[0]
        for write in live:
            if not write.held & candidates:
                violations.append(
                    Violation(
                        path,
                        write.lineno,
                        0,
                        "RPR015",
                        f"`{shared.qualname}.{write.method}` writes "
                        f"`{label}` without `{lock_hint}`, which other "
                        "writes of the field hold",
                    )
                )


# ----------------------------------------------------------------------
# lock-order graph (RPR019)
# ----------------------------------------------------------------------
def _build_lock_graph(
    graph: CallGraph, per_module: Dict[str, _ModuleFacts]
) -> LockOrderGraph:
    lock_graph = LockOrderGraph()
    for name, facts in per_module.items():
        for outer, inner, lineno in facts.nest_edges:
            lock_graph.add_edge(outer, inner, LockSite(name, lineno, "nested with"))

    # Fixpoint: locks transitively acquired by each function.
    acquires: Dict[str, Set[str]] = {}
    for facts in per_module.values():
        for qualname, direct in facts.direct_acquires.items():
            acquires[qualname] = set(direct)

    def candidates_of(qualname: str) -> Dict[int, List[str]]:
        info = graph.functions.get(qualname)
        table: Dict[int, List[str]] = {}
        if info is None:
            return table
        for site in info.call_sites:
            names = graph.callees(info, site)
            if names:
                table.setdefault(site.lineno, []).extend(names)
        return table

    site_tables = {qualname: candidates_of(qualname) for qualname in acquires}
    changed = True
    while changed:
        changed = False
        for qualname, table in site_tables.items():
            mine = acquires[qualname]
            before = len(mine)
            for names in table.values():
                for callee in names:
                    if callee != qualname and callee in acquires:
                        mine |= acquires[callee]
            changed |= len(mine) != before

    # Interprocedural edges: a call made under a held lock reaches every
    # lock its candidates transitively acquire.
    for name, facts in per_module.items():
        for qualname, calls in facts.calls_under_lock.items():
            table = site_tables.get(qualname, {})
            for lineno, held in calls:
                for callee in table.get(lineno, ()):
                    if callee == qualname:
                        continue
                    for inner in acquires.get(callee, ()):
                        for outer in held:
                            if inner != outer:
                                lock_graph.add_edge(
                                    outer,
                                    inner,
                                    LockSite(
                                        name, lineno, f"via {callee}"
                                    ),
                                )
    for name, facts in per_module.items():
        for canonical, lineno in facts.self_edges:
            lock_graph.add_edge(
                canonical,
                canonical,
                LockSite(name, lineno, "re-acquired while held"),
            )
    return lock_graph


# ----------------------------------------------------------------------
# the blocking effect (RPR016)
# ----------------------------------------------------------------------
#: Calls that can park the calling thread for an unbounded or
#: network-scale time.  ``print`` and file writes finish promptly enough
#: for a CLI banner and are not listed; ``.acquire()`` is deliberately
#: absent -- lock blocking is RPR017/RPR019 territory, and seeding it
#: here would flag every coroutine that touches an asyncio primitive
#: whose method names mirror the threading ones.
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
    through :meth:`CallGraph.callees` with the generic names left in,
    and only to modules the caller can import; ``run_in_executor`` /
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
                    for callee in graph.callees(info, site, generic=True)
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
    "RPR015",
    "unguarded-shared-write",
    "field of a cross-context class written without the lock its "
    "other writes hold, or outside its declared guarded-by guard",
    whole_program=True,
)
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
@register_rule(
    "RPR019",
    "lock-order-cycle",
    "two code paths acquire the same locks in opposite orders (or "
    "re-acquire a non-reentrant lock): potential deadlock",
    whole_program=True,
)
@register_rule(
    "RPR020",
    "unannotated-shared-field",
    "field of a cross-context class with unlocked writes and no "
    "`# repro: guarded-by(<lock-or-owner>)` annotation",
    whole_program=True,
)
def concurrency_pass(analysis: DeepAnalysis) -> List[Violation]:
    """RPR015-RPR020, and the concurrency tables of ``analysis``.

    Fills in ``shared_classes``, ``guarded_by``, ``lock_graph`` and
    ``thread_entries``.
    """
    modules = analysis.project.modules
    graph, effects = analysis.graph, analysis.effects
    per_module = {name: _scan_module(module) for name, module in modules.items()}
    violations: List[Violation] = []

    # -- shared classes + field discipline (RPR015/RPR020) ------------
    known = _known_locks(per_module)
    for name in sorted(per_module):
        facts = per_module[name]
        for cls in facts.classes.values():
            qualname = f"{name}.{cls.name}"
            if cls.locks:
                reason = "owns lock " + ", ".join(
                    sorted({d.canonical for d in cls.locks.values()})
                )
            elif cls.thread_target:
                reason = "hands a bound method to threading.Thread"
            elif qualname in config.CONCURRENT_CLASSES:
                reason = "listed in config.CONCURRENT_CLASSES"
            else:
                continue
            shared = SharedClass(
                module=name,
                name=cls.name,
                lineno=cls.lineno,
                reason=reason,
                locks=cls.locks,
                writes=cls.writes,
            )
            analysis.shared_classes[qualname] = shared
            _field_verdicts(
                shared, known, modules[name].path, analysis.guarded_by, violations
            )
        analysis.thread_entries.extend(facts.entries)
    analysis.thread_entries.sort()

    # -- asyncio hygiene (RPR016/RPR017/RPR018) ------------------------
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

    # -- lock order (RPR019) -------------------------------------------
    analysis.lock_graph = _build_lock_graph(graph, per_module)
    for cycle in analysis.lock_graph.cycles():
        module_name, lineno = _cycle_site(analysis.lock_graph, cycle)
        rendered = " -> ".join(cycle + [cycle[0]])
        violations.append(
            Violation(
                modules[module_name].path,
                lineno,
                0,
                "RPR019",
                f"potential deadlock: lock-order cycle {rendered}",
            )
        )
    return violations


def _cycle_site(lock_graph: LockOrderGraph, cycle: List[str]) -> Tuple[str, int]:
    """Anchor a cycle finding at the first witnessed edge inside it."""
    members = set(cycle)
    for (outer, inner), sites in sorted(lock_graph.edges.items()):
        if outer in members and inner in members and sites:
            return sites[0].module, sites[0].lineno
    raise AssertionError(f"lock-order cycle {cycle} has no witnessed edge")


def concurrency_report(analysis: DeepAnalysis) -> List[str]:
    """The guarded-by table + lock-order graph, for ``--report``."""
    lines: List[str] = ["concurrency: guarded-by table"]
    if analysis.guarded_by:
        width = max(len(k) for k in analysis.guarded_by)
        for label in sorted(analysis.guarded_by):
            lines.append(f"  {label.ljust(width)}  -> {analysis.guarded_by[label]}")
    else:
        lines.append("  (no shared fields)")
    lines.append("concurrency: lock-order graph")
    rendered = analysis.lock_graph.render()
    if rendered:
        lines.extend(f"  {line}" for line in rendered)
    else:
        lines.append("  (no lock nesting observed)")
    lines.append("concurrency: thread/executor entry points")
    if analysis.thread_entries:
        lines.extend(f"  {entry}" for entry in analysis.thread_entries)
    else:
        lines.append("  (none)")
    return lines
