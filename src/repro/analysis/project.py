"""Whole-program view of the ``repro`` source tree.

The whole-program passes behind :mod:`repro.analysis.deep` all need the
same raw material: every module of the project parsed once, keyed by
dotted module name, with what each pass would otherwise re-derive per
module held on the :class:`ProjectModule` -- its top-level classes, its
function scopes (top-level, method and nested) and its ``# repro: noqa``
table.  This module provides that loader and nothing else, so the
passes stay decoupled from file-system layout.

A :class:`Project` can be built from directories (the normal case) or
from in-memory sources (used by the fault-injection regression tests,
which re-run the passes over a mutated copy of a single module).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.analysis.lint import _collect_suppressions, _expand_paths, _module_name

__all__ = [
    "FunctionNode",
    "FunctionScope",
    "Project",
    "ProjectModule",
    "load_project",
    "project_from_sources",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class FunctionScope:
    """One function body of a module: top-level, method or nested def."""

    #: ``module.func``, ``module.Class.method`` or ``module.func.inner``.
    qualname: str
    node: FunctionNode
    #: Owning top-level class of a method; None for functions and for
    #: defs nested inside either.
    cls: Optional[str]
    #: The enclosing top-level function or method -- the unit the call
    #: graph knows -- which is the scope itself unless it is nested.
    top: str

    @property
    def nested(self) -> bool:
        """Is this a def inside another function body?"""
        return self.top != self.qualname


@dataclass
class ProjectModule:
    """One parsed module of the project."""

    name: str
    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @cached_property
    def classes(self) -> Dict[str, ast.ClassDef]:
        """Top-level classes by name."""
        return {
            node.name: node
            for node in self.tree.body
            if isinstance(node, ast.ClassDef)
        }

    @cached_property
    def scopes(self) -> Tuple[FunctionScope, ...]:
        """Every function scope in source order, nested defs after their parent.

        Covers top-level functions, methods of top-level classes, and
        defs that are direct statements of another scope's body.
        """
        found: List[FunctionScope] = []

        def visit(node: FunctionNode, owner: str, cls: Optional[str], top: str) -> None:
            qualname = f"{owner}.{node.name}"
            top = top or qualname
            found.append(FunctionScope(qualname, node, cls, top))
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(sub, qualname, None, top)

        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node, self.name, None, "")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        visit(item, f"{self.name}.{node.name}", node.name, "")
        return tuple(found)

    @cached_property
    def functions(self) -> Tuple[FunctionScope, ...]:
        """The scopes the call graph knows: top-level functions and methods."""
        return tuple(scope for scope in self.scopes if not scope.nested)

    @cached_property
    def noqa(self) -> Dict[int, Set[str]]:
        """Line -> codes a ``# repro: noqa`` comment suppresses there."""
        return _collect_suppressions(self.lines)

    @property
    def package(self) -> str:
        """The containing package (``repro.core`` for ``repro.core.heap``)."""
        if self.is_package:
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else self.name

    @property
    def is_package(self) -> bool:
        return Path(self.path).stem == "__init__"


@dataclass
class Project:
    """All parsed modules of the analyzed tree (normally ``src/repro``),
    keyed by dotted name."""

    modules: Dict[str, ProjectModule] = field(default_factory=dict)
    #: Files that could not be parsed: (path, message).
    errors: List[Tuple[str, str]] = field(default_factory=list)

    def resolve_import(self, name: str) -> Optional[str]:
        """Map an imported dotted name onto a project module, if any.

        ``repro.core.heap`` resolves to itself; ``repro.core.heap.Foo``
        resolves to ``repro.core.heap``; ``repro.core`` resolves to the
        package ``__init__``.
        """
        candidate = name
        while candidate:
            if candidate in self.modules:
                return candidate
            if "." not in candidate:
                return None
            candidate = candidate.rsplit(".", 1)[0]
        return None

    def replace_source(self, name: str, source: str) -> "Project":
        """A copy of the project with one module's source swapped out.

        Used by regression tests to verify that a seeded mutation is
        caught statically; raises ``KeyError`` for unknown modules and
        propagates ``SyntaxError`` for broken replacements.
        """
        module = self.modules[name]
        tree = ast.parse(source, filename=module.path)
        replacement = ProjectModule(name=name, path=module.path, source=source, tree=tree)
        modules = dict(self.modules)
        modules[name] = replacement
        return Project(modules=modules, errors=list(self.errors))


def load_project(roots: Sequence[Path]) -> Project:
    """Parse every ``*.py`` under ``roots``."""
    project = Project()
    for file_path in _expand_paths(roots):
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            project.errors.append((str(file_path), str(exc)))
            continue
        name = _module_name(str(file_path))
        project.modules[name] = ProjectModule(
            name=name, path=str(file_path), source=source, tree=tree
        )
    return project


def project_from_sources(sources: Mapping[str, str]) -> Project:
    """Build a project from ``{dotted_name: source}`` (tests/fixtures)."""
    project = Project()
    for name, source in sources.items():
        path = name.replace(".", "/") + ".py"
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            project.errors.append((path, str(exc)))
            continue
        project.modules[name] = ProjectModule(
            name=name, path=path, source=source, tree=tree
        )
    return project

