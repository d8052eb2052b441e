"""Float-comparison dataflow over distance-valued expressions.

The one distance-taint engine of ``repro.analysis``, with its
vocabulary.  The SENN/SNNN verifiers are soundness-critical float
code: Lemma 3.2 certifies a candidate with ``Dist(Q, n_i) + delta <=
Dist(P, n_k)`` and a single flipped comparison silently turns an exact
algorithm into an approximate one (differential tests catch it
eventually; this pass catches it at lint time).

Mechanism — per function, a flow-insensitive taint pass marks
*distance-valued* expressions: calls like ``distance_to``/``mindist``,
attributes like ``.distance``/``.radius``/``.certain_radius``, parameters
with distance names, and anything built from them by arithmetic,
``min``/``max``/``sqrt``-style calls, tuples, lists or comprehensions.  Every
ordering/equality comparison with a tainted operand in a strict-float
module (:data:`repro.analysis.config.STRICT_FLOAT_MODULES`) is a *site*.

Three rules consume it:

``RPR001``
    The per-module rule (:func:`exact_distance_equalities`): ``==`` /
    ``!=`` with a distance-valued side, in any module, with the
    module's top level as one more scope.  Outside the strict-float
    modules the bound attributes (``lower``, ``upper``, ...) do not
    seed taint: there they name other things (``index == self.upper``).

``RPR011``
    A site must be tolerance-routed (an operand mentions a tolerance),
    a sign guard against literal zero, sanctioned by the lemma table,
    or carry a justified ``# repro: noqa(RPR011)``.

``RPR012``
    The lemma-conformance check.  :data:`LEMMA_TABLE` pins down every
    load-bearing comparison in the verifiers, the candidate heap and
    the EINN pruning rules: its paper lemma, exact operands, and the
    required direction.  A site whose operands match a table entry but
    whose operator differs (the classic ``<=`` -> ``<`` soundness flip)
    is a violation; so is a stale table entry with no matching site, a
    missing required call (Lemma 3.8's ``covers_disk``), and — inside
    the self-check scopes — any tainted comparison the table does not
    cover at all.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis import config
from repro.analysis.project import Project, ProjectModule

__all__ = [
    "ComparisonSite",
    "LEMMA_TABLE",
    "LemmaEntry",
    "SELF_CHECK_SCOPES",
    "collect_comparison_sites",
    "exact_distance_equalities",
    "float_comparison_violations",
    "lemma_conformance_violations",
    "lemma_table_lines",
    "match_lemma_entry",
]

# ----------------------------------------------------------------------
# taint vocabulary
# ----------------------------------------------------------------------

#: Call names whose result is a distance, scalar (``distance_to``,
#: ``math.hypot``) or an array of them (the repro.geometry.vecmath
#: kernels).
_DISTANCE_CALLS: Set[str] = {
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
    "hypot_pairs",
    "point_distances",
    "point_distance_list",
    "mindist_arrays",
    "maxdist_arrays",
}

#: Attribute names holding distances in every module.
_DISTANCE_ATTRS: FrozenSet[str] = frozenset({"distance", "radius", "certain_radius"})

#: ... and, in the strict-float modules only, the bound attributes.
_STRICT_DISTANCE_ATTRS: FrozenSet[str] = _DISTANCE_ATTRS | {
    "lower",
    "upper",
    "half_width",
}

#: Parameter names seeding taint by convention.
_DISTANCE_PARAMS: Set[str] = {
    "distance",
    "dist",
    "radius",
    "delta",
    "separation",
    "mindist",
    "maxdist",
    "lower",
    "upper",
    "certain_radius",
    # Plural forms: whole-node distance columns in the vectorized index.
    "dists",
    "distances",
    "mindists",
    "maxdists",
}

#: Calls that forward their arguments' taint.
_TAINT_FORWARDING_CALLS: Set[str] = {
    "min",
    "max",
    "abs",
    "sum",
    "float",
    "round",
    "sqrt",
    "asarray",
    "fromiter",
    "tuple",
    "list",
    "sorted",
}

#: Methods that forward their *receiver's* taint (``dists.tolist()`` is
#: still an array of distances).
_TAINT_PRESERVING_METHODS: Set[str] = {"tolist", "copy"}

_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _is_tolerance_token(token: str) -> bool:
    lowered = token.lower()
    return (
        lowered in {"tol", "eps", "epsilon"}
        or "tolerance" in lowered
        or lowered.endswith("_tol")
        or lowered.endswith("_eps")
    )


def _mentions_tolerance(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _is_tolerance_token(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _is_tolerance_token(sub.attr):
            return True
    return False


def _is_zero_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and node.value in (0, 0.0)


# ----------------------------------------------------------------------
# sites
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComparisonSite:
    """One comparison with a distance-valued operand."""

    module: str
    qualname: str  # enclosing top-level function/method, fully qualified
    lineno: int
    col: int
    op: str  # ast operator class name: "Lt", "LtE", ...
    left: str  # ast.unparse of the left operand
    right: str  # ast.unparse of the (joined) comparators
    tolerance_routed: bool
    zero_guard: bool


def collect_comparison_sites(module: ProjectModule) -> List[ComparisonSite]:
    """All distance-tainted comparisons in ``module`` (strict vocabulary).

    Comparisons inside nested functions are attributed to the enclosing
    top-level function (that is where the lemma lives).
    """
    sites: List[ComparisonSite] = []
    for scope in module.functions:
        qualname, node = scope.qualname, scope.node
        tainted = _tainted_names(node, _STRICT_DISTANCE_ATTRS)
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Compare):
                continue
            if not isinstance(sub.ops[0], _COMPARE_OPS):
                continue
            operands = [sub.left, *sub.comparators]
            if not any(
                _is_distance_expr(op, tainted, _STRICT_DISTANCE_ATTRS)
                for op in operands
            ):
                continue
            right = ", ".join(ast.unparse(c) for c in sub.comparators)
            sites.append(
                ComparisonSite(
                    module=module.name,
                    qualname=qualname,
                    lineno=sub.lineno,
                    col=sub.col_offset,
                    op=type(sub.ops[0]).__name__,
                    left=ast.unparse(sub.left),
                    right=right,
                    tolerance_routed=any(_mentions_tolerance(op) for op in operands),
                    zero_guard=(
                        isinstance(sub.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                        and any(_is_zero_literal(op) for op in operands)
                    ),
                )
            )
    return sites


def exact_distance_equalities(
    module: ProjectModule, skip_asserts: bool
) -> Iterator[ast.Compare]:
    """RPR001: ``==`` / ``!=`` with a distance-valued side, in any module.

    Each top-level function or method is one taint scope (nested defs
    included, as for the strict sites), and the module's remaining
    statements, class bodies included, are one more.  ``skip_asserts``
    exempts comparisons inside ``assert`` statements.  A side that is a
    non-numeric literal (``"x"``, ``None``, ``True``) is never a float
    equality.
    """
    attrs = (
        _STRICT_DISTANCE_ATTRS
        if module.name in config.STRICT_FLOAT_MODULES
        else _DISTANCE_ATTRS
    )
    exempt: Set[int] = set()
    if skip_asserts:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                exempt.update(id(sub) for sub in ast.walk(node))
    scopes: List[ast.AST] = [scope.node for scope in module.functions]
    scopes.append(_module_scope(module.tree))
    for scope in scopes:
        tainted = _tainted_names(scope, attrs)
        for sub in ast.walk(scope):
            if not isinstance(sub, ast.Compare) or id(sub) in exempt:
                continue
            operands = [sub.left, *sub.comparators]
            for op, left, right in zip(sub.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_non_numeric_literal(left) or _is_non_numeric_literal(right):
                    continue
                if _is_distance_expr(left, tainted, attrs) or _is_distance_expr(
                    right, tainted, attrs
                ):
                    yield sub
                    break


def _module_scope(tree: ast.Module) -> ast.Module:
    """The module's statements outside every top-level function and method."""
    body: List[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            body.extend(
                item
                for item in node.body
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body.append(node)
    return ast.Module(body=body, type_ignores=[])


def _is_non_numeric_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and (
        not isinstance(node.value, (int, float)) or isinstance(node.value, bool)
    )


def _tainted_names(node: ast.AST, attrs: FrozenSet[str]) -> Set[str]:
    """Names bound to distance-valued expressions anywhere in the scope."""
    tainted: Set[str] = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg in _DISTANCE_PARAMS:
                tainted.add(arg.arg)
    # Flow-insensitive: iterate to a fixpoint over assignments.
    changed = True
    while changed:
        changed = False
        for sub in ast.walk(node):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(sub, ast.Assign):
                targets, value = list(sub.targets), sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                targets, value = [sub.target], sub.value
            elif isinstance(sub, ast.AugAssign):
                targets, value = [sub.target], sub.value
            elif isinstance(sub, ast.For):
                if _taint_for_loop(sub, tainted, attrs):
                    changed = True
                continue
            if value is None:
                continue
            if _is_distance_expr(value, tainted, attrs):
                for target in targets:
                    if isinstance(target, ast.Name) and target.id not in tainted:
                        tainted.add(target.id)
                        changed = True
            else:
                # Tuple unpacking from an opaque source (heappop and
                # friends): element-wise taint is unknowable, so fall
                # back to the naming convention for the unpacked names.
                for target in targets:
                    if not isinstance(target, ast.Tuple):
                        continue
                    for element in target.elts:
                        if (
                            isinstance(element, ast.Name)
                            and element.id in _DISTANCE_PARAMS
                            and element.id not in tainted
                        ):
                            tainted.add(element.id)
                            changed = True
    return tainted


def _taint_for_loop(loop: ast.For, tainted: Set[str], attrs: FrozenSet[str]) -> bool:
    """Taint loop targets drawn from distance-valued iterables.

    ``for d in dists:`` binds ``d`` to a distance; ``for d, t, e in
    zip(dists, ties, entries):`` binds element-wise, so each tuple target
    is matched to the corresponding ``zip`` argument.  The vectorized
    index iterates whole-node distance columns this way.
    """
    changed = False
    target, it = loop.target, loop.iter
    if isinstance(target, ast.Name):
        if (
            target.id not in tainted
            and _is_distance_expr(it, tainted, attrs)
        ):
            tainted.add(target.id)
            changed = True
        return changed
    if not isinstance(target, ast.Tuple):
        return False
    if (
        isinstance(it, ast.Call)
        and isinstance(it.func, ast.Name)
        and it.func.id == "zip"
        and len(it.args) == len(target.elts)
    ):
        pairs = zip(target.elts, it.args)
        for element, source in pairs:
            if (
                isinstance(element, ast.Name)
                and element.id not in tainted
                and _is_distance_expr(source, tainted, attrs)
            ):
                tainted.add(element.id)
                changed = True
        return changed
    # Tuple target over an opaque iterable: fall back to the naming
    # convention, mirroring the tuple-unpacking assignment case.
    for element in target.elts:
        if (
            isinstance(element, ast.Name)
            and element.id in _DISTANCE_PARAMS
            and element.id not in tainted
        ):
            tainted.add(element.id)
            changed = True
    return changed


def _is_distance_expr(node: ast.expr, tainted: Set[str], attrs: FrozenSet[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Attribute):
        return node.attr in attrs or _is_distance_expr(node.value, tainted, attrs)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name in _DISTANCE_CALLS:
            return True
        if name in _TAINT_FORWARDING_CALLS:
            return any(_is_distance_expr(arg, tainted, attrs) for arg in node.args)
        if name in _TAINT_PRESERVING_METHODS and isinstance(func, ast.Attribute):
            return _is_distance_expr(func.value, tainted, attrs)
        return False
    if isinstance(node, ast.BinOp):
        return _is_distance_expr(node.left, tainted, attrs) or _is_distance_expr(
            node.right, tainted, attrs
        )
    if isinstance(node, ast.UnaryOp):
        return _is_distance_expr(node.operand, tainted, attrs)
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_is_distance_expr(element, tainted, attrs) for element in node.elts)
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        # A comprehension carries the taint of what it builds; its own
        # loop names are tainted by distance-valued iterables.
        inner = set(tainted)
        for generator in node.generators:
            if isinstance(generator.target, ast.Name) and _is_distance_expr(
                generator.iter, inner, attrs
            ):
                inner.add(generator.target.id)
        built = node.value if isinstance(node, ast.DictComp) else node.elt
        return _is_distance_expr(built, inner, attrs)
    if isinstance(node, ast.IfExp):
        return _is_distance_expr(node.body, tainted, attrs) or _is_distance_expr(
            node.orelse, tainted, attrs
        )
    if isinstance(node, ast.Subscript):
        return _is_distance_expr(node.value, tainted, attrs)
    return False


# ----------------------------------------------------------------------
# the lemma table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LemmaEntry:
    """One sanctioned comparison (or required call) and its justification."""

    qualname: str  # fully qualified enclosing function
    lemma: str  # paper reference or invariant name
    op: str = ""  # required ast operator class name (compare entries)
    left: str = ""  # exact ast.unparse of the left operand
    right: str = ""  # exact ast.unparse of the comparators
    requires_call: str = ""  # attribute name that must be called (call entries)
    rationale: str = ""

    @property
    def is_call_entry(self) -> bool:
        return bool(self.requires_call)

    def module_of(self, module_names: Sequence[str]) -> Optional[str]:
        """The analyzed module containing this entry's function, if any.

        A qualname alone cannot distinguish ``module.func`` from
        ``module.Class.method``, so the split is resolved against the
        actual module list (module names are never prefixes of each
        other here).
        """
        for name in module_names:
            if self.qualname.startswith(name + "."):
                return name
        return None


#: Every load-bearing float comparison in the verification stack, pinned
#: to its paper lemma and required direction.  Operand strings are the
#: exact ``ast.unparse`` of the source expressions — an edit to either
#: side or to the operator surfaces as an RPR012 finding.
LEMMA_TABLE: Tuple[LemmaEntry, ...] = (
    LemmaEntry(
        qualname="repro.core.verification.verify_single_peer",
        lemma="Lemma 3.2",
        op="LtE",
        left="distance + delta",
        right="certain_radius",
        rationale=(
            "single-peer certification: Dist(Q,n_i) + delta <= Dist(P,n_k); "
            "the closed inequality is exactly the lemma statement — "
            "flipping to < drops boundary candidates and breaks exactness, "
            "widening to a tolerance would certify unsound candidates"
        ),
    ),
    LemmaEntry(
        qualname="repro.core.verification.verify_multi_peer",
        lemma="Lemma 3.8",
        requires_call="covers_disk",
        rationale=(
            "multi-peer certification must delegate to the certain-region "
            "coverage test (union of certain circles covers the candidate "
            "disk); a hand-rolled comparison here cannot be conservative"
        ),
    ),
    LemmaEntry(
        qualname="repro.geometry.coverage.disk_covered_by_disks",
        lemma="Lemma 3.8 (single-circle fast path)",
        op="LtE",
        left="separation + tr",
        right="r + -tolerance",
        rationale=(
            "the coverage kernel's fast path is Circle.contains_circle with "
            "the negated conservative tolerance: a candidate disk is "
            "certainly covered by one certain circle only when it sits "
            "strictly (by tolerance) inside it; flipping <= to < would only "
            "shrink the fast path, but any loosening would certify "
            "uncovered disks"
        ),
    ),
    LemmaEntry(
        qualname="repro.core.heap.CandidateHeap._add",
        lemma="domain invariant",
        op="Lt",
        left="distance",
        right="0.0",
        rationale=(
            "negative distances are logic errors, never rounding artefacts "
            "of the metric (hypot is non-negative); strict sign guard"
        ),
    ),
    LemmaEntry(
        qualname="repro.core.heap.CandidateHeap._insert",
        lemma="Table 1 (Section 3.2.1)",
        op="Lt",
        left="distance",
        right="worst.distance",
        rationale=(
            "an uncertain entry displaces the farthest uncertain entry only "
            "when strictly closer; ties keep the incumbent, which makes "
            "heap content deterministic under duplicate distances"
        ),
    ),
    LemmaEntry(
        qualname="repro.core.heap.CandidateHeap.add_batch",
        lemma="Table 1 (Section 3.2.1), complete heap",
        op="GtE",
        left="distance",
        right="certain_bucket[-1].distance",
        rationale=(
            "a complete heap holds k certain entries and no uncertain one, "
            "so an offer at or beyond D_ct can displace nothing: ties keep "
            "the incumbent, which is why equality settles the offer too; "
            "> would only send ties the long way round, a tolerance would "
            "settle offers strictly closer than D_ct, which must displace"
        ),
    ),
    LemmaEntry(
        qualname="repro.index.knn._push_run",
        lemma="Section 3.3, rule 1 (downward pruning)",
        op="Lt",
        left="maxdists[row[2] - order]",
        right="lower",
        rationale=(
            "an MBR is skipped only when strictly inside the certain circle "
            "C_r; at MAXDIST == D_ct a POI may sit exactly on the boundary "
            "and must still be enumerated (<= would drop it)"
        ),
    ),
    LemmaEntry(
        qualname="repro.index.knn._push_run",
        lemma="Section 3.3, rule 2 (upward pruning; leaf admission)",
        op="LtE",
        left="row[0]",
        right="upper",
        rationale=(
            "one distance-only filter per node against the running k-th "
            "cut: an MBR is discarded only when its MINDIST strictly "
            "exceeds the cut distance (the node tie key sorts before every "
            "payload tie, so for a child the distance decides alone and "
            "boundary MBRs are still expanded); a leaf object enters the "
            "queue when its distance is admissible -- ties at the bound are "
            "admissible by definition of the cut, and this is a superset of "
            "the (distance, tie) test: an equal-distance entry whose tie "
            "key loses is stopped by the pop-time comparison instead"
        ),
    ),
    LemmaEntry(
        qualname="repro.index.knn.k_nearest_einn",
        lemma="Section 3.3, rule 2 (upward pruning, pop)",
        op="Gt",
        left="key",
        right="cut",
        rationale=(
            "best-first termination: once the queue head strictly exceeds "
            "the k-th cut nothing better remains (queue is distance-ordered)"
        ),
    ),
    LemmaEntry(
        qualname="repro.index.knn.k_nearest_depth_first",
        lemma="branch-and-bound cut (Roussopoulos et al.)",
        op="Lt",
        left="key",
        right="kth_cut()",
        rationale=(
            "a leaf entry improves the result set only when strictly below "
            "the k-th (distance, tie) cut; at equality it is the same "
            "candidate rank and must not displace"
        ),
    ),
    LemmaEntry(
        qualname="repro.index.knn.k_nearest_depth_first",
        lemma="branch-and-bound cut (subtree descent)",
        op="Lt",
        left="(entry.bbox.mindist(query), _NODE_TIE)",
        right="kth_cut()",
        rationale=(
            "a subtree is visited when its MINDIST paired with the node tie "
            "is strictly below the cut; the node tie sorts first so an MBR "
            "touching the k-th distance can still contribute a better tie"
        ),
    ),
    LemmaEntry(
        qualname="repro.index.knn.k_nearest_einn",
        lemma="result-order invariant",
        op="Gt",
        left="keys[index - 1]",
        right="key",
        rationale=(
            "insertion scans left while the predecessor strictly exceeds "
            "the new key, keeping equal keys in insertion order (stable)"
        ),
    ),
)

#: Scopes in which *every* distance-tainted comparison must be matched by
#: a :data:`LEMMA_TABLE` entry — the soundness-critical verifier surface.
#: A prefix of the site qualname (``CandidateHeap`` covers every method).
SELF_CHECK_SCOPES: Tuple[str, ...] = (
    "repro.core.verification.verify_single_peer",
    "repro.core.verification.verify_multi_peer",
    "repro.core.heap.CandidateHeap",
)


def match_lemma_entry(site: ComparisonSite) -> Optional[LemmaEntry]:
    """The table entry whose scope and operands match ``site``, if any.

    Matching deliberately ignores the operator: a direction flip must
    still *match* so RPR012 can report the mismatch instead of RPR011
    reporting an unknown comparison.
    """
    for entry in LEMMA_TABLE:
        if entry.is_call_entry:
            continue
        if (
            entry.qualname == site.qualname
            and entry.left == site.left
            and entry.right == site.right
        ):
            return entry
    return None


def _in_self_check_scope(qualname: str) -> bool:
    return any(
        qualname == scope or qualname.startswith(scope + ".")
        for scope in SELF_CHECK_SCOPES
    )


# ----------------------------------------------------------------------
# rule front ends
# ----------------------------------------------------------------------
def _strict_modules(project: Project) -> Iterator[ProjectModule]:
    for name in config.STRICT_FLOAT_MODULES:
        module = project.modules.get(name)
        if module is not None:
            yield module


def float_comparison_violations(
    project: Project,
) -> Iterator[Tuple[ComparisonSite, str]]:
    """RPR011: raw distance comparisons bypassing the tolerance layer."""
    for module in _strict_modules(project):
        for site in collect_comparison_sites(module):
            if site.tolerance_routed or site.zero_guard:
                continue
            if match_lemma_entry(site) is not None:
                # Sanctioned -- or a direction mismatch, which is
                # RPR012's finding; avoid double reporting the line.
                continue
            yield (
                site,
                f"raw `{_op_symbol(site.op)}` on distance-valued expression "
                f"`{site.left} {_op_symbol(site.op)} {site.right}`; route it "
                "through repro.geometry.tolerance, add a LEMMA_TABLE entry, "
                "or justify with `# repro: noqa(RPR011)`",
            )


def lemma_conformance_violations(
    project: Project,
) -> Iterator[Tuple[str, int, str]]:
    """RPR012: (module_name, lineno, message) per conformance breach."""
    sites_by_module: Dict[str, List[ComparisonSite]] = {}
    for module in _strict_modules(project):
        sites_by_module[module.name] = collect_comparison_sites(module)

    matched_entries: Set[LemmaEntry] = set()
    for sites in sites_by_module.values():
        for site in sites:
            entry = match_lemma_entry(site)
            if entry is None:
                if _in_self_check_scope(site.qualname):
                    yield (
                        site.module,
                        site.lineno,
                        f"comparison `{site.left} {_op_symbol(site.op)} "
                        f"{site.right}` in {site.qualname} is not covered by "
                        "the lemma table; every verifier/heap comparison "
                        "must cite its lemma (repro.analysis.floatcheck."
                        "LEMMA_TABLE)",
                    )
                continue
            matched_entries.add(entry)
            if entry.op != site.op:
                yield (
                    site.module,
                    site.lineno,
                    f"comparison direction violates {entry.lemma}: "
                    f"`{site.left} {_op_symbol(site.op)} {site.right}` but "
                    f"the lemma requires `{_op_symbol(entry.op)}` "
                    f"({entry.rationale})",
                )

    module_names = list(sites_by_module)
    for entry in LEMMA_TABLE:
        entry_module = entry.module_of(module_names)
        if entry_module is None:
            continue  # module not analyzed in this (partial) run
        if entry.is_call_entry:
            if not _function_calls(
                project.modules[entry_module], entry.qualname, entry.requires_call
            ):
                yield (
                    entry_module,
                    1,
                    f"{entry.qualname} no longer calls "
                    f"`{entry.requires_call}` required by {entry.lemma} "
                    f"({entry.rationale})",
                )
        elif entry not in matched_entries:
            yield (
                entry_module,
                1,
                f"stale lemma table entry: no comparison "
                f"`{entry.left} ... {entry.right}` found in "
                f"{entry.qualname}; update LEMMA_TABLE alongside the code",
            )


def _function_calls(module: ProjectModule, qualname: str, call_name: str) -> bool:
    """Does the named function of ``module`` contain a call to ``call_name``?"""
    for scope in module.functions:
        if scope.qualname != qualname:
            continue
        for sub in ast.walk(scope.node):
            if isinstance(sub, ast.Call):
                target = sub.func
                name = target.attr if isinstance(target, ast.Attribute) else (
                    target.id if isinstance(target, ast.Name) else ""
                )
                if name == call_name:
                    return True
    return False


_OP_SYMBOLS: Dict[str, str] = {
    "Lt": "<",
    "LtE": "<=",
    "Gt": ">",
    "GtE": ">=",
    "Eq": "==",
    "NotEq": "!=",
}


def _op_symbol(op: str) -> str:
    return _OP_SYMBOLS.get(op, op)


def lemma_table_lines() -> List[str]:
    """The table rendered for the docs."""
    lines: List[str] = []
    for entry in LEMMA_TABLE:
        if entry.is_call_entry:
            lines.append(
                f"{entry.qualname}: must call `{entry.requires_call}` "
                f"[{entry.lemma}]"
            )
        else:
            lines.append(
                f"{entry.qualname}: `{entry.left} {_op_symbol(entry.op)} "
                f"{entry.right}` [{entry.lemma}]"
            )
    return lines
