"""The project-specific lint rules (``RPR001`` .. ``RPR007``, ``RPR014``).

Each rule encodes one correctness convention of the SENN/SNNN stack;
``docs/static_analysis.md`` documents the rationale and the sanctioned
escape hatches.  Rules are pure AST checks -- no imports of the checked
code -- so the linter can run on broken trees.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from repro.analysis.lint import ModuleContext, Violation, _dotted, register_rule

__all__ = ["DISTANCE_CALL_NAMES", "DISTANCE_ATTRIBUTE_NAMES"]

#: Call names whose results are treated as distance-valued floats.
DISTANCE_CALL_NAMES: Set[str] = {
    "distance_to",
    "squared_distance_to",
    "distance",
    "squared_distance",
    "mindist",
    "maxdist",
    "network_distance",
    "path_length",
    "hypot",
    "dist",
}

#: Attribute names treated as distance-valued floats.
DISTANCE_ATTRIBUTE_NAMES: Set[str] = {
    "distance",
    "radius",
    "certain_radius",
}


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


# ----------------------------------------------------------------------
# RPR001: exact float comparison on distance expressions
# ----------------------------------------------------------------------
class _DistanceTaint(ast.NodeVisitor):
    """Flags ``==`` / ``!=`` where either side is distance-valued.

    An expression is distance-valued when it contains a call to one of
    :data:`DISTANCE_CALL_NAMES`, reads an attribute from
    :data:`DISTANCE_ATTRIBUTE_NAMES`, or is a local name previously
    assigned from a distance-valued expression in the same scope
    (single forward pass; good enough for the straight-line numeric
    code this project writes).

    Carve-out: in test modules, comparisons inside ``assert`` statements
    are exempt -- asserting an exact expected value is the test's
    business, and a float mismatch fails loudly instead of silently
    corrupting an answer.  Comparisons in test *helper logic* are still
    flagged.
    """

    def __init__(self, context: ModuleContext) -> None:
        self.context = context
        self.violations: List[Violation] = []
        self._tainted_stack: List[Set[str]] = [set()]
        self._assert_depth = 0
        top = context.module.split(".", 1)[0] if context.module else ""
        stem = context.module.rsplit(".", 1)[-1] if context.module else ""
        self._is_test_module = (
            top in ("tests", "benchmarks")
            or stem.startswith("test_")
            or stem == "conftest"
        )

    # -- scope handling -------------------------------------------------
    def _enter_scope(self) -> None:
        # Nested functions close over enclosing locals, so they inherit
        # the enclosing scope's taint (a copy: their own assignments must
        # not leak back out).
        self._tainted_stack.append(set(self._tainted))

    def _exit_scope(self) -> None:
        self._tainted_stack.pop()

    @property
    def _tainted(self) -> Set[str]:
        return self._tainted_stack[-1]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    # -- taint ----------------------------------------------------------
    def _is_distance_expr(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = _call_name(sub)
                if name in DISTANCE_CALL_NAMES:
                    return True
            elif isinstance(sub, ast.Attribute):
                if sub.attr in DISTANCE_ATTRIBUTE_NAMES:
                    return True
            elif isinstance(sub, ast.Name):
                if sub.id in self._tainted:
                    return True
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        if self._is_distance_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._tainted.add(target.id)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if (
            node.value is not None
            and isinstance(node.target, ast.Name)
            and self._is_distance_expr(node.value)
        ):
            self._tainted.add(node.target.id)

    # -- the check ------------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        self._assert_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._assert_depth -= 1

    def visit_Compare(self, node: ast.Compare) -> None:
        self.generic_visit(node)
        if self._is_test_module and self._assert_depth:
            return
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if any(_is_non_float_literal(side) for side in (left, right)):
                continue
            if self._is_distance_expr(left) or self._is_distance_expr(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                self.violations.append(
                    self.context.violation(
                        node,
                        "RPR001",
                        f"exact float `{symbol}` on a distance expression; use "
                        "repro.geometry.tolerance (feq/fne/near_zero) or add "
                        "`# repro: noqa(RPR001)` with a justification",
                    )
                )
                break


def _is_non_float_literal(node: ast.AST) -> bool:
    """Literals that make the comparison clearly not a float equality."""
    if isinstance(node, ast.Constant):
        return not isinstance(node.value, (int, float)) or isinstance(node.value, bool)
    return False


@register_rule(
    "RPR001",
    "float-eq-distance",
    "exact ==/!= on float distance expressions (use the tolerance helpers)",
)
def rule_float_eq_distance(context: ModuleContext) -> Iterator[Violation]:
    visitor = _DistanceTaint(context)
    visitor.visit(context.tree)
    yield from visitor.violations


# ----------------------------------------------------------------------
# RPR002: unseeded RNG construction outside sim.config
# ----------------------------------------------------------------------
_GLOBAL_STATE_RNG_FUNCS = {
    "seed",
    "random",
    "randint",
    "randrange",
    "uniform",
    "normal",
    "gauss",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "permutation",
    "rand",
    "randn",
}


@register_rule(
    "RPR002",
    "unseeded-rng",
    "unseeded random.Random()/numpy RNG construction or global-state RNG calls "
    "outside sim.config",
)
def rule_unseeded_rng(context: ModuleContext) -> Iterator[Violation]:
    if context.module in ("repro.sim.config",):
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        head = dotted.split(".", 1)[0] if dotted else ""
        tail = dotted.rsplit(".", 1)[-1] if dotted else ""
        seeded = bool(node.args) or any(
            kw.arg == "seed" and not _is_none(kw.value) for kw in node.keywords
        )
        if tail in ("Random", "default_rng", "RandomState") and head in (
            "random",
            "np",
            "numpy",
        ):
            if not seeded:
                yield context.violation(
                    node,
                    "RPR002",
                    f"unseeded RNG construction `{dotted}()`; pass an explicit "
                    "seed (derived from sim.config) so runs are reproducible",
                )
        elif (
            head in ("random", "np", "numpy")
            and tail in _GLOBAL_STATE_RNG_FUNCS
            and dotted in (f"random.{tail}", f"np.random.{tail}", f"numpy.random.{tail}")
        ):
            yield context.violation(
                node,
                "RPR002",
                f"global-state RNG call `{dotted}()`; construct a seeded "
                "Generator/Random instead",
            )


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


# ----------------------------------------------------------------------
# RPR003: Euclidean distance inside network/
# ----------------------------------------------------------------------
_EUCLIDEAN_CALLS = {"distance_to", "squared_distance_to", "distance", "squared_distance"}


@register_rule(
    "RPR003",
    "euclid-in-network",
    "Euclidean Point distance call inside repro.network (network distance required)",
)
def rule_euclid_in_network(context: ModuleContext) -> Iterator[Violation]:
    if not context.module.startswith("repro.network"):
        return
    if context.module.startswith("repro.testing"):
        # Oracle modules re-derive ground truth (including the network
        # kNN oracle, which runs over a flattened adjacency mapping) with
        # raw arithmetic by design -- independence from the code under
        # test is enforced by RPR007 instead.  Listed here explicitly so
        # a future widening of this rule's scope does not capture them.
        return
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _EUCLIDEAN_CALLS:
                yield context.violation(
                    node,
                    "RPR003",
                    f"Euclidean `{name}` inside repro.network; use network "
                    "(shortest-path) distance, or `# repro: noqa(RPR003)` when "
                    "the Euclidean value is an intentional lower bound",
                )


# ----------------------------------------------------------------------
# RPR004: mutable default arguments
# ----------------------------------------------------------------------
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque"}


@register_rule(
    "RPR004",
    "mutable-default",
    "mutable default argument (list/dict/set literals or constructors)",
)
def rule_mutable_default(context: ModuleContext) -> Iterator[Violation]:
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                yield context.violation(
                    default,
                    "RPR004",
                    "mutable default argument; default to None and construct "
                    "inside the function body",
                )


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        return name in _MUTABLE_CALLS
    return False


# ----------------------------------------------------------------------
# RPR005: bare except
# ----------------------------------------------------------------------
@register_rule(
    "RPR005",
    "bare-except",
    "bare `except:` clause (catch a specific exception type)",
)
def rule_bare_except(context: ModuleContext) -> Iterator[Violation]:
    for node in ast.walk(context.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield context.violation(
                node,
                "RPR005",
                "bare `except:` swallows SystemExit/KeyboardInterrupt; name the "
                "exception type (use `except Exception` at minimum)",
            )


# ----------------------------------------------------------------------
# RPR006: missing __all__ in public library modules
# ----------------------------------------------------------------------
@register_rule(
    "RPR006",
    "missing-all",
    "public repro module without an `__all__` declaration",
    module_scope=True,
)
def rule_missing_all(context: ModuleContext) -> Iterator[Violation]:
    if not context.module.startswith("repro"):
        return  # only the library package has a public API surface
    stem = context.module.rsplit(".", 1)[-1]
    if stem.startswith("_"):
        return
    has_public_definition = False
    for node in context.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                has_public_definition = True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if target.id == "__all__":
                        return
                    if not target.id.startswith("_"):
                        has_public_definition = True
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                if node.target.id == "__all__":
                    return
                if not node.target.id.startswith("_"):
                    has_public_definition = True
    if has_public_definition:
        yield context.module_violation(
            "RPR006",
            "public module defines names but no `__all__`; declare the public "
            "surface explicitly",
        )


# ----------------------------------------------------------------------
# RPR007: oracle independence (repro.testing.oracles)
# ----------------------------------------------------------------------
#: Modules holding differential-test oracles.  Their entire value is
#: recomputing ground truth from first principles, so importing the code
#: under test would silently turn the differential comparison into a
#: tautology.
_ORACLE_MODULES = ("repro.testing.oracles",)

#: The only shared vocabulary: the plain ``Point`` value type.
_ORACLE_ALLOWED_IMPORTS = ("repro.geometry.point",)


@register_rule(
    "RPR007",
    "oracle-independence",
    "differential-test oracle module importing the code under test",
)
def rule_oracle_independence(context: ModuleContext) -> Iterator[Violation]:
    if context.module not in _ORACLE_MODULES:
        return
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
            relative = False
        elif isinstance(node, ast.ImportFrom):
            targets = [node.module or ""]
            relative = node.level > 0
        else:
            continue
        for target in targets:
            if relative:
                # Relative imports resolve inside repro.testing, where the
                # implementation-facing runner lives: always a violation.
                shown = "." * getattr(node, "level", 1) + target
            elif target == "repro" or target.startswith("repro."):
                if target in _ORACLE_ALLOWED_IMPORTS:
                    continue
                shown = target
            else:
                continue  # stdlib / third-party imports are fine
            yield context.violation(
                node,
                "RPR007",
                f"oracle module imports `{shown}`; oracles must stay "
                "independent of the code under test (only "
                f"{', '.join(_ORACLE_ALLOWED_IMPORTS)} is shared)",
            )


# ----------------------------------------------------------------------
# RPR014: docs hygiene (docstrings + canonical lemma citations)
# ----------------------------------------------------------------------
#: Candidate paper citations: any spelling/casing of lemma/section/sec
#: followed by a number.  Each candidate is then tested against
#: :data:`_CANONICAL_CITATION` -- matching loosely and validating
#: strictly is what catches "lemma" in lowercase or "Sec. X.Y" drift.
_CITATION_CANDIDATE = re.compile(
    r"\b(?:lemma|section|sec)s?\.?[ \t]*\d+(?:\.\d+)*", re.IGNORECASE
)

#: The canonical citation forms used throughout the repo and docs.
_CANONICAL_CITATION = re.compile(r"(?:Lemma|Section)s? \d+(?:\.\d+)*$")

_LEMMA_NUMBER = re.compile(r"Lemmas? (\d+(?:\.\d+)*)")


def _known_lemma_numbers() -> Set[str]:
    """Paper lemma numbers: the config set plus everything pinned in
    ``floatcheck.LEMMA_TABLE`` (imported lazily; the table lives in the
    same static-analysis layer, so this cannot pull in checked code)."""
    from repro.analysis.config import KNOWN_PAPER_LEMMAS
    from repro.analysis.floatcheck import LEMMA_TABLE

    known = set(KNOWN_PAPER_LEMMAS)
    for entry in LEMMA_TABLE:
        known.update(_LEMMA_NUMBER.findall(entry.lemma))
    return known


def _is_public_def(node: ast.AST) -> bool:
    return isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ) and not node.name.startswith("_")


@register_rule(
    "RPR014",
    "docs-hygiene",
    "missing docstrings on the documented-core public API, or paper "
    "citations that are non-canonical or cite a nonexistent lemma",
)
def rule_docs_hygiene(context: ModuleContext) -> Iterator[Violation]:
    from repro.analysis.config import DOCSTRING_REQUIRED_PREFIXES

    # -- docstring presence on the documented core's public surface -----
    if any(
        context.module == prefix or context.module.startswith(prefix + ".")
        for prefix in DOCSTRING_REQUIRED_PREFIXES
    ):
        public_defs: List[ast.AST] = [
            node for node in context.tree.body if _is_public_def(node)
        ]
        for node in list(public_defs):
            if isinstance(node, ast.ClassDef):
                public_defs.extend(
                    child for child in node.body if _is_public_def(child)
                )
        for node in public_defs:
            assert isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            if ast.get_docstring(node) is None:
                kind = "class" if isinstance(node, ast.ClassDef) else "function"
                yield context.violation(
                    node,
                    "RPR014",
                    f"public {kind} `{node.name}` has no docstring; the "
                    "documented core (repro.core/index/obs) is the paper "
                    "cross-reference surface -- cite the lemma or section "
                    "it implements where one applies",
                )

    # -- canonical citation form + lemma existence ----------------------
    known_lemmas: Optional[Set[str]] = None
    for lineno, line in enumerate(context.lines, start=1):
        for match in _CITATION_CANDIDATE.finditer(line):
            cited = match.group(0)
            if not _CANONICAL_CITATION.match(cited):
                yield Violation(
                    context.path,
                    lineno,
                    match.start(),
                    "RPR014",
                    f"non-canonical paper citation `{cited}`; write "
                    "`Lemma X.Y` / `Section X.Y` so citations can be "
                    "cross-checked against the lemma table",
                )
                continue
            lemma_match = _LEMMA_NUMBER.match(cited)
            if lemma_match is None:
                continue  # a Section citation; form is all we check
            if known_lemmas is None:
                known_lemmas = _known_lemma_numbers()
            number = lemma_match.group(1)
            if number not in known_lemmas:
                yield Violation(
                    context.path,
                    lineno,
                    match.start(),
                    "RPR014",
                    f"citation of `{cited}` but the paper defines no such "
                    "lemma (see analysis.config.KNOWN_PAPER_LEMMAS); fix "
                    "the number or extend the known set",
                )
