"""Module import graph and name-resolution call graph (deep pass 1).

Two graphs over the parsed :class:`~repro.analysis.project.Project`:

- the **import graph**: module -> imported project modules, split into
  top-level and deferred (function-scope) imports.  The layering
  contract (:mod:`repro.analysis.layers`) and the import-cycle check
  are judged on the top-level edges only, because deferred imports are
  the sanctioned cycle-breaking device in this codebase; the oracle
  import contract is judged on every edge;
- the **call graph**: an AST-built graph over every top-level function
  and class method.  Calls through bare names are resolved through the
  module's import/def table; ``self.m()`` resolves to the enclosing
  class; all other attribute calls fall back to *name matching* (every
  known function with that name becomes a candidate).  The graph is
  therefore an over-approximation, the safe side for the blocking
  effect (RPR016).

"What can this call site reach" is decided in one place,
:meth:`CallGraph.callees`, which the blocking-effect fixpoint asks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint import _dotted
from repro.analysis.project import Project, ProjectModule

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "ImportGraph",
    "ImportRecord",
    "build_call_graph",
    "build_import_graph",
]

# ----------------------------------------------------------------------
# import graph
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ImportRecord:
    """One import statement edge, resolved to a project module."""

    source: str  # importing module
    target: str  # imported project module (dotted)
    lineno: int
    top_level: bool


@dataclass
class ImportGraph:
    """Module-level dependency graph restricted to project modules."""

    records: List[ImportRecord] = field(default_factory=list)

    def edges(self, top_level_only: bool = True) -> Dict[str, Set[str]]:
        result: Dict[str, Set[str]] = {}
        for record in self.records:
            if top_level_only and not record.top_level:
                continue
            result.setdefault(record.source, set()).add(record.target)
        return result

    def reachability(self) -> Dict[str, Set[str]]:
        """Transitive closure of module imports (deferred imports included).

        One traversal per module: deferred imports form cycles, and a
        closure memoized across a cycle would depend on visiting order.
        """
        direct = self.edges(top_level_only=False)
        closure: Dict[str, Set[str]] = {}
        for module in direct:
            reached: Set[str] = set()
            stack = list(direct[module])
            while stack:
                target = stack.pop()
                if target not in reached:
                    reached.add(target)
                    stack.extend(direct.get(target, ()))
            closure[module] = reached
        return closure

    def cycles(self) -> List[List[str]]:
        """Elementary cycles among top-level imports (Tarjan SCCs > 1)."""
        graph = self.edges(top_level_only=True)
        index_counter = [0]
        stack: List[str] = []
        lowlink: Dict[str, int] = {}
        index: Dict[str, int] = {}
        on_stack: Set[str] = set()
        result: List[List[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = lowlink[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in sorted(graph.get(node, ())):
                if succ not in index:
                    strongconnect(succ)
                    lowlink[node] = min(lowlink[node], lowlink[succ])
                elif succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph.get(node, ()):
                    result.append(sorted(component))

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)
        return result


def build_import_graph(project: Project) -> ImportGraph:
    graph = ImportGraph()
    for module in project.modules.values():
        graph.records.extend(_module_imports(project, module))
    return graph


def _module_imports(project: Project, module: ProjectModule) -> Iterator[ImportRecord]:
    top_level_nodes = set(_top_level_statements(module.tree))
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(module, node)
            if base is None:
                continue
            # `from pkg import name` may pull a submodule or a symbol;
            # resolve_import collapses both onto the defining module.
            names = [f"{base}.{alias.name}" if base else alias.name for alias in node.names]
            names.append(base)
        else:
            continue
        for raw in names:
            if not raw:
                continue
            target = project.resolve_import(raw)
            if target is None or target == module.name:
                continue
            yield ImportRecord(
                source=module.name,
                target=target,
                lineno=node.lineno,
                top_level=node in top_level_nodes,
            )


def _top_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    for node in tree.body:
        yield node
        # Imports guarded by `if TYPE_CHECKING:` (or any other top-level
        # `if`) still execute at import time unless the guard is false;
        # TYPE_CHECKING guards are recognized and treated as deferred.
        if isinstance(node, ast.If) and not _is_type_checking_guard(node.test):
            yield from node.body
            yield from node.orelse


def _is_type_checking_guard(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _resolve_relative(module: ProjectModule, node: ast.ImportFrom) -> Optional[str]:
    if node.level == 0:
        return node.module or ""
    parts = module.name.split(".")
    # For a package __init__, level 1 is the package itself.
    cut = len(parts) - node.level + (1 if module.is_package else 0)
    if cut < 0:
        return None
    base_parts = parts[:cut]
    if node.module:
        base_parts.append(node.module)
    return ".".join(base_parts)


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CallSite:
    """One call inside a function, after best-effort resolution."""

    lineno: int
    #: Candidate callee qualnames.  Exactly one for a resolved call;
    #: several for a name-matched attribute call; empty for calls into
    #: the stdlib / third-party code.
    candidates: Tuple[str, ...]
    #: True when the candidates come from exact resolution rather than
    #: bare-name matching.
    resolved: bool
    #: Bare method name for unresolved attribute calls (``x.append`` ->
    #: ``append``), which :meth:`CallGraph.callees` name-matches.
    attr: Optional[str] = None


@dataclass
class FunctionInfo:
    """One top-level function or class method: where it lives, what it calls."""

    qualname: str
    module: str
    call_sites: Tuple[CallSite, ...] = ()


@dataclass
class CallGraph:
    """The project call graph."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: bare name -> qualnames defined with that name
    by_name: Dict[str, List[str]] = field(default_factory=dict)
    #: module -> modules it can import, transitively (deferred included)
    reachable_modules: Dict[str, Set[str]] = field(default_factory=dict)

    # -- queries -------------------------------------------------------
    def callees(self, info: FunctionInfo, site: CallSite) -> List[str]:
        """Every function one call site of ``info`` may invoke.

        The resolved candidates, plus -- for an unresolved attribute
        call -- each same-named project function whose module is the
        caller's own or import-reachable from it: ``result.add(...)``
        inside ``repro.geometry`` cannot dispatch to ``CandidateHeap.add``
        because geometry never imports core.  Over-approximating is the
        safe side for the blocking effect, so even stdlib-looking names
        (``get``, ``close``) are matched.
        """
        names = list(site.candidates)
        if not site.resolved and site.attr is not None:
            allowed = self.reachable_modules.get(info.module, set())
            names.extend(
                c
                for c in self.by_name.get(site.attr, ())
                if self.functions[c].module == info.module
                or self.functions[c].module in allowed
            )
        return names


def build_call_graph(project: Project, import_graph: ImportGraph) -> CallGraph:
    """Extract call facts from every module of ``project``."""
    graph = CallGraph(reachable_modules=import_graph.reachability())
    symbols = _Symbols(project)
    for module in project.modules.values():
        resolver = symbols.scope(module)
        for scope in module.functions:
            call_sites: List[CallSite] = []
            for sub in ast.walk(scope.node):
                if isinstance(sub, ast.Call):
                    site = _resolve_call(resolver, scope.cls, sub)
                    if site is not None:
                        call_sites.append(site)
            graph.functions[scope.qualname] = FunctionInfo(
                scope.qualname, module.name, tuple(call_sites)
            )
            graph.by_name.setdefault(scope.node.name, []).append(scope.qualname)
    return graph


class _Symbols:
    """Project-wide tables of top-level definitions, built once per graph."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: qualname of every top-level function and class
        self.defs: Set[str] = set()
        #: class qualname -> qualnames of its methods, in source order
        self.methods: Dict[str, List[str]] = {}
        self._scopes: Dict[str, _ModuleScope] = {}
        for module in project.modules.values():
            for name in module.classes:
                self.defs.add(f"{module.name}.{name}")
                self.methods[f"{module.name}.{name}"] = []
            for scope in module.functions:
                if scope.cls is None:
                    self.defs.add(scope.qualname)
                else:
                    self.methods[f"{module.name}.{scope.cls}"].append(
                        scope.qualname
                    )

    def resolve_dotted(self, dotted: str) -> Optional[str]:
        """``pkg.module.symbol`` -> itself when the module defines it."""
        owner = self.project.resolve_import(dotted)
        if owner is None or owner == dotted:
            return None  # unknown, or a module rather than a function/class
        if "." in dotted[len(owner) + 1 :]:
            return None
        return dotted if dotted in self.defs else None

    def scope(self, module: ProjectModule) -> "_ModuleScope":
        """The name-resolution scope of one module, built on first use."""
        if module.name not in self._scopes:
            self._scopes[module.name] = _ModuleScope(self, module)
        return self._scopes[module.name]

    def callable_targets(self, qualname: str) -> Tuple[str, ...]:
        """Map a resolved symbol to callable targets (class -> its methods).

        Constructing a class reaches ``__init__``/``__post_init__`` and,
        conservatively, every method (instances escape the graph).
        """
        methods = self.methods.get(qualname)
        return tuple(methods) if methods else (qualname,)


class _ModuleScope:
    """Name -> qualname resolution for one module."""

    def __init__(self, symbols: _Symbols, module: ProjectModule) -> None:
        self.symbols = symbols
        self.module = module
        #: imported bare names: alias -> dotted target
        self.imports: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    self.imports[bound] = alias.name if alias.asname else alias.name.split(".", 1)[0]
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{base}.{alias.name}" if base else alias.name

    def resolve_name(self, name: str) -> Optional[str]:
        """Resolve a bare name to a project function/class qualname."""
        local = f"{self.module.name}.{name}"
        if local in self.symbols.defs:
            return local
        dotted = self.imports.get(name)
        if dotted is None:
            return None
        return self.symbols.resolve_dotted(dotted)

    def resolve_dotted(self, dotted: str) -> Optional[str]:
        """Resolve ``mod.symbol`` as written here (import aliases applied)."""
        resolved = self.symbols.resolve_dotted(dotted)
        if resolved is None and "." in dotted:
            head = dotted.split(".", 1)[0]
            mapped = self.imports.get(head)
            if mapped is not None:
                resolved = self.symbols.resolve_dotted(dotted.replace(head, mapped, 1))
        return resolved

    def resolve_method(self, cls: str, name: str) -> Optional[str]:
        """``self.name`` inside ``cls`` -> the method's qualname, if defined."""
        owner = f"{self.module.name}.{cls}"
        qualname = f"{owner}.{name}"
        return qualname if qualname in self.symbols.methods.get(owner, ()) else None

    def resolve_super(self, cls: str, name: str) -> Optional[str]:
        """``super().name`` inside ``cls`` -> the nearest project base's method.

        Bases are searched depth-first in declaration order; a base the
        project does not define (``ValueError``, ``list``) contributes
        nothing, so under it the call reaches no project function.
        """
        seen: Set[str] = set()
        pending = self._project_bases(cls)
        while pending:
            owner = pending.pop(0)
            if owner in seen:
                continue
            seen.add(owner)
            if f"{owner}.{name}" in self.symbols.methods[owner]:
                return f"{owner}.{name}"
            home, _, base_cls = owner.rpartition(".")
            module = self.symbols.project.modules.get(home)
            if module is not None:
                pending[:0] = self.symbols.scope(module)._project_bases(base_cls)
        return None

    def _project_bases(self, cls: str) -> List[str]:
        """Qualnames of the project classes ``cls`` lists as bases, in order."""
        node = self.module.classes.get(cls)
        owners: List[str] = []
        for base in node.bases if node is not None else ():
            dotted = _dotted(base)
            owner = (
                self.resolve_dotted(dotted) if "." in dotted else self.resolve_name(dotted)
            )
            if owner is not None and owner in self.symbols.methods:
                owners.append(owner)
        return owners


def _resolve_call(
    scope: _ModuleScope, cls: Optional[str], call: ast.Call
) -> Optional[CallSite]:
    symbols = scope.symbols
    func = call.func
    if isinstance(func, ast.Name):
        resolved = scope.resolve_name(func.id)
        if resolved is not None:
            return CallSite(call.lineno, symbols.callable_targets(resolved), True)
        # Unknown bare name (builtin, closure): nothing to record.
        return None
    if isinstance(func, ast.Attribute):
        receiver = func.value
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
        ):
            # Never by bare name: ``super().__init__()`` under a stdlib
            # base would otherwise match every reachable ``__init__``.
            method = scope.resolve_super(cls, func.attr) if cls is not None else None
            return CallSite(call.lineno, (method,) if method else (), True)
        if isinstance(receiver, ast.Name):
            if receiver.id in ("self", "cls") and cls is not None:
                method = scope.resolve_method(cls, func.attr)
                if method is not None:
                    return CallSite(call.lineno, (method,), True)
            resolved = scope.resolve_dotted(_dotted(func))
            if resolved is not None:
                return CallSite(call.lineno, symbols.callable_targets(resolved), True)
        # Fallback: record the bare attribute name; the callee query
        # matches the name itself.
        return CallSite(call.lineno, (), False, func.attr)
    return None
