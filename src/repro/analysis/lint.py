"""The ``repro-lint`` engine: rule registry, noqa handling, file runner.

The engine is deliberately small: a rule is a callable that receives a
:class:`ModuleContext` (parsed AST plus location metadata) and yields
:class:`Violation` records.  Rules register themselves with
:func:`register_rule`; importing :mod:`repro.analysis.rules` populates
the default registry.

Suppression uses ``# repro: noqa`` comments so the project's directives
cannot collide with other tools' ``# noqa``:

- ``# repro: noqa`` on a line suppresses every rule on that line;
- ``# repro: noqa(RPR001)`` / ``# repro: noqa(RPR001, RPR004)`` suppress
  only the named rules;
- module-scope rules (those reporting line 1, e.g. ``RPR006``) can be
  suppressed by a named directive on any line of the file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

__all__ = [
    "LintReport",
    "Linter",
    "ModuleContext",
    "Rule",
    "Violation",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "register_rule",
    "select_rules",
]

#: Code reserved for files that cannot be parsed at all.
PARSE_ERROR_CODE = "RPR900"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\(\s*(?P<codes>[A-Z0-9,\s]+?)\s*\))?", re.IGNORECASE
)


@dataclass(frozen=True)
class Violation:
    """One finding: ``path:line:col CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """A registered lint rule.

    A per-module rule's ``check`` takes a :class:`ModuleContext`.  A
    whole-program rule's takes the :class:`repro.analysis.deep.
    DeepAnalysis` of a ``--deep`` run; one such pass may be registered
    under every code it can emit and still runs once.
    """

    code: str
    name: str
    description: str
    check: Callable[..., Iterable[Violation]]
    module_scope: bool = False
    whole_program: bool = False


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one module."""

    path: str
    tree: ast.Module
    source: str
    lines: List[str] = field(default_factory=list)
    #: Dotted module name relative to the package root when derivable
    #: (e.g. ``repro.network.graph``); empty otherwise.
    module: str = ""

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def violation(self, node: ast.AST, code: str, message: str) -> Violation:
        return Violation(
            self.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            code,
            message,
        )

    def module_violation(self, code: str, message: str) -> Violation:
        return Violation(self.path, 1, 0, code, message)


_REGISTRY: Dict[str, Rule] = {}

_Check = TypeVar("_Check", bound=Callable[..., Iterable[Violation]])


def register_rule(
    code: str,
    name: str,
    description: str,
    *,
    module_scope: bool = False,
    whole_program: bool = False,
) -> Callable[[_Check], _Check]:
    """Function decorator adding a rule to the one catalogue."""

    def decorator(check: _Check) -> _Check:
        if code in _REGISTRY:
            raise ValueError(f"duplicate lint rule code {code!r}")
        _REGISTRY[code] = Rule(
            code, name, description, check, module_scope, whole_program
        )
        return check

    return decorator


def iter_rules() -> List[Rule]:
    """All registered rules in code order (registering the defaults)."""
    _ensure_default_rules()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def select_rules(
    select: Optional[Iterable[str]],
    ignore: Optional[Iterable[str]],
    *,
    whole_program: bool,
) -> List[Rule]:
    """The rules of one mode after ``--select`` / ``--ignore``, in code order.

    The mode is per-module (plain ``repro-lint``) or whole-program
    (``--deep``).  Raises ``ValueError`` for a code the catalogue does
    not know and for one that only runs in the other mode.
    """
    _ensure_default_rules()
    ignored = set(ignore) if ignore is not None else set()
    named = ignored | (set(select) if select is not None else set())
    unknown = named - set(_REGISTRY)
    if unknown:
        raise ValueError(f"unknown lint rule codes: {', '.join(sorted(unknown))}")
    mode = {
        code
        for code, rule in _REGISTRY.items()
        if rule.whole_program == whole_program
    }
    misplaced = named - mode
    if misplaced:
        hint = (
            "per-module rules, run them without --deep"
            if whole_program
            else "whole-program rules, run them with --deep"
        )
        raise ValueError(f"{', '.join(sorted(misplaced))}: {hint}")
    chosen = (set(select) if select is not None else mode) - ignored
    return [_REGISTRY[code] for code in sorted(chosen)]


def _ensure_default_rules() -> None:
    # Imported for their registration side effects; cycle-safe because
    # the imports are deferred to first use.
    from repro.analysis import deep as _deep  # noqa: F401
    from repro.analysis import rules as _rules  # noqa: F401


@dataclass
class LintReport:
    """The outcome of linting a set of paths."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        return "\n".join(v.render() for v in self.violations)


class Linter:
    """Runs a rule set over files, applying noqa suppression."""

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> None:
        self.rules = select_rules(select, ignore, whole_program=False)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: str = "<string>") -> List[Violation]:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Violation(
                    path,
                    exc.lineno or 1,
                    exc.offset or 0,
                    PARSE_ERROR_CODE,
                    f"cannot parse file: {exc.msg}",
                )
            ]
        context = ModuleContext(
            path=path, tree=tree, source=source, module=_module_name(path)
        )
        raw: List[Violation] = []
        for rule in self.rules:
            raw.extend(rule.check(context))
        suppressions = _collect_suppressions(context.lines)
        file_wide = _file_wide_codes(context.lines)
        kept = []
        for violation in raw:
            codes = suppressions.get(violation.line)
            if codes is not None and (codes is ALL_CODES or violation.code in codes):
                continue
            rule = _REGISTRY.get(violation.code)
            if rule is not None and rule.module_scope and violation.code in file_wide:
                continue
            kept.append(violation)
        kept.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        return kept

    def lint_file(self, path: Path) -> List[Violation]:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return [Violation(str(path), 1, 0, PARSE_ERROR_CODE, f"cannot read file: {exc}")]
        return self.lint_source(source, str(path))

    def lint_paths(self, paths: Sequence[Path]) -> LintReport:
        report = LintReport()
        for file_path in _expand_paths(paths):
            report.files_checked += 1
            report.violations.extend(self.lint_file(file_path))
        report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        return report


#: Sentinel meaning "suppress every rule on this line".
ALL_CODES: Set[str] = set()


def _collect_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map line number -> suppressed codes (``ALL_CODES`` = everything)."""
    result: Dict[int, Set[str]] = {}
    for number, line in enumerate(lines, start=1):
        if "#" not in line:
            continue
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            result[number] = ALL_CODES
        else:
            result[number] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return result


def _file_wide_codes(lines: Sequence[str]) -> Set[str]:
    """Named codes suppressed anywhere in the file (module-scope rules)."""
    codes: Set[str] = set()
    for suppressed in _collect_suppressions(lines).values():
        if suppressed is not ALL_CODES:
            codes.update(suppressed)
    return codes


def _expand_paths(paths: Sequence[Path]) -> Iterator[Path]:
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Tuple[Path, ...] = tuple(sorted(path.rglob("*.py")))
        else:
            candidates = (path,)
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen or _is_generated(resolved):
                continue
            seen.add(resolved)
            yield candidate


def _is_generated(path: Path) -> bool:
    parts = set(path.parts)
    return any(
        part in parts
        for part in ("__pycache__", ".git", "build", "dist")
    ) or any(part.endswith(".egg-info") for part in path.parts)


def _module_name(path: str) -> str:
    """Best-effort dotted module name for a source path."""
    parts = Path(path).with_suffix("").parts
    for anchor in ("repro", "tests", "benchmarks"):
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            module_parts = parts[index:]
            if module_parts[-1] == "__init__":
                module_parts = module_parts[:-1]
            return ".".join(module_parts)
    return Path(path).stem


def _dotted(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute/name chains; empty string otherwise."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


def _render(expr: ast.expr) -> str:
    """Source text of an expression, for messages and report tables."""
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on 3.10+
        return "<expr>"


# ----------------------------------------------------------------------
# module-level conveniences
# ----------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>") -> List[Violation]:
    """Lint one source string with every registered rule."""
    return Linter().lint_source(source, path)


def lint_paths(paths: Sequence[Path]) -> LintReport:
    """Lint files/directories with every registered rule."""
    return Linter().lint_paths(paths)
