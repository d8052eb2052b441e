"""The project-specific per-module lint rules (``RPR001``, ``RPR002``,
``RPR004`` .. ``RPR006``, ``RPR014``).

Each rule encodes one correctness convention of the SENN/SNNN stack;
``docs/static_analysis.md`` documents the rationale and the sanctioned
escape hatches.  Rules are pure AST checks -- no imports of the checked
code -- so the linter can run on broken trees.  RPR001 asks
:mod:`repro.analysis.floatcheck`'s distance taint, the one engine that
RPR011/RPR012 use too.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from repro.analysis.config import DOCSTRING_REQUIRED_PREFIXES, KNOWN_PAPER_LEMMAS
from repro.analysis.floatcheck import LEMMA_TABLE, exact_distance_equalities
from repro.analysis.lint import ModuleContext, Violation, _dotted, register_rule
from repro.analysis.project import ProjectModule

__all__: List[str] = []


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


# ----------------------------------------------------------------------
# RPR001: exact float comparison on distance expressions
# ----------------------------------------------------------------------
@register_rule(
    "RPR001",
    "float-eq-distance",
    "exact ==/!= on float distance expressions (use the tolerance helpers)",
)
def rule_float_eq_distance(context: ModuleContext) -> Iterator[Violation]:
    """The taint is :mod:`repro.analysis.floatcheck`'s, the one engine.

    Carve-out: in test modules, comparisons inside ``assert`` statements
    are exempt -- asserting an exact expected value is the test's
    business, and a float mismatch fails loudly instead of silently
    corrupting an answer.  Comparisons in test *helper logic* are still
    flagged.
    """
    top = context.module.split(".", 1)[0]
    stem = context.module.rsplit(".", 1)[-1]
    is_test_module = (
        top in ("tests", "benchmarks") or stem.startswith("test_") or stem == "conftest"
    )
    module = ProjectModule(
        name=context.module,
        path=context.path,
        source=context.source,
        tree=context.tree,
        lines=context.lines,
    )
    for node in exact_distance_equalities(module, skip_asserts=is_test_module):
        symbol = "==" if any(isinstance(op, ast.Eq) for op in node.ops) else "!="
        yield context.violation(
            node,
            "RPR001",
            f"exact float `{symbol}` on a distance expression; use "
            "repro.geometry.tolerance (feq/fne/near_zero) or add "
            "`# repro: noqa(RPR001)` with a justification",
        )


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
    ``floatcheck.LEMMA_TABLE``."""
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
