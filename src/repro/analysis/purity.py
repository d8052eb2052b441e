"""Interprocedural purity and determinism inference (deep pass 2).

Every function gets a set of inferred *effects*, seeded by an
intraprocedural scan and propagated to callers over the call graph until
a fixpoint:

``MUTATES_ARG``
    assigns into, deletes from, or calls a mutating method on one of its
    parameters (``self`` included).  Propagates to a caller only when the
    caller passes one of *its own* parameters into the mutating callee —
    mutating a locally constructed list is not an effect.
``MUTATES_GLOBAL``
    rebinding via ``global``/``nonlocal``, or mutating a module-level
    name.  Propagates unconditionally.
``IO``
    file-system / stream / process access.  Propagates unconditionally.
``NONDET``
    anything that can differ between two runs on the same input: global
    RNG state, wall-clock reads, ``id()``, ``hash()`` (salted for
    strings), ``os.urandom``, UUIDs, and **iteration over sets** (hash
    order).  Propagates unconditionally.
``BLOCKING``
    can park the calling thread for an unbounded/IO-scale time:
    ``time.sleep``, socket construction and socket send/recv methods,
    ``subprocess``, ``input``.  Deliberately *narrower* than ``IO``
    (``print`` and file writes are I/O but finish promptly enough for a
    CLI banner); the concurrency pass (RPR016) flags coroutines that
    reach a ``BLOCKING`` function, because a blocked event loop stalls
    every connection.  Propagates unconditionally -- but note that
    ``run_in_executor``/``to_thread`` dispatch sites resolve to *no*
    candidates in the call graph, so handing blocking work to an
    executor does not taint the dispatching coroutine.

Two rule front ends consume the fixpoint (wired up in
:mod:`repro.analysis.deep`): RPR009 enforces the purity zones of
:data:`repro.analysis.config.PURITY_ZONES` — ``repro.testing.oracles``
and the geometry predicates must stay externally pure — and RPR010
enforces the determinism zones, because differential replay strings and
oracle verdicts must be bit-exact across processes.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis import config
from repro.analysis.callgraph import CallGraph, CallSite, FunctionInfo
from repro.analysis.lint import _dotted
from repro.analysis.project import FunctionNode, Project

__all__ = [
    "Effect",
    "EffectWitness",
    "FunctionEffects",
    "determinism_violations",
    "infer_effects",
    "purity_violations",
]


class Effect(enum.Enum):
    MUTATES_ARG = "mutates-argument"
    MUTATES_GLOBAL = "mutates-global"
    IO = "performs-io"
    NONDET = "nondeterministic"
    BLOCKING = "blocking"


#: Methods that mutate their receiver in place (builtins; project methods
#: are handled by propagation instead).
_MUTATOR_METHODS: Set[str] = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "sort",
    "reverse",
    "add",
    "discard",
    "update",
    "setdefault",
    "appendleft",
    "extendleft",
    "popleft",
    "__setitem__",
    "__delitem__",
}

_IO_NAMES: Set[str] = {"open", "input", "print", "breakpoint"}
_IO_DOTTED_PREFIXES: Tuple[str, ...] = (
    "os.",
    "sys.stdout",
    "sys.stderr",
    "sys.stdin",
    "subprocess.",
    "shutil.",
    "logging.",
    "socket.",
)
_IO_METHODS: Set[str] = {
    "write",
    "writelines",
    "write_text",
    "write_bytes",
    "read_text",
    "read_bytes",
    "mkdir",
    "unlink",
    "rmdir",
    "touch",
    "flush",
}

#: Seeds of the BLOCKING effect (RPR016).  Narrower than the IO
#: catalogue on purpose: only calls that can park a thread for an
#: unbounded or network-scale time.  ``.acquire()`` is deliberately
#: absent -- lock blocking is RPR017/RPR019 territory, and seeding it
#: here would flag every coroutine that touches an asyncio primitive
#: whose method names mirror the threading ones.
_BLOCKING_NAMES: Set[str] = {"input"}
_BLOCKING_DOTTED: Set[str] = {"time.sleep"}
_BLOCKING_DOTTED_PREFIXES: Tuple[str, ...] = ("socket.", "subprocess.")
#: Socket-ish receiver methods: ``x.recv(...)`` blocks whatever ``x`` is
#: in this codebase (only socket code spells these names).
_BLOCKING_METHODS: Set[str] = {
    "accept",
    "makefile",
    "recv",
    "recv_into",
    "send",
    "sendall",
}

_NONDET_NAMES: Set[str] = {"id", "hash", "vars", "globals", "locals"}
_NONDET_DOTTED: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "os.urandom",
    "os.getpid",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
}
#: Global-state RNG functions (mirrors RPR002's catalogue).
_GLOBAL_RNG_FUNCS: Set[str] = {
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


@dataclass(frozen=True)
class EffectWitness:
    """Where an effect enters a function (directly or via a call chain)."""

    lineno: int
    description: str


@dataclass
class FunctionEffects:
    """The inferred effect set of one function."""

    qualname: str
    effects: Dict[Effect, EffectWitness] = field(default_factory=dict)
    #: Parameters this function mutates (names; ``self`` included).
    mutated_params: Set[str] = field(default_factory=set)

    def has(self, effect: Effect) -> bool:
        return effect in self.effects

    def add(self, effect: Effect, witness: EffectWitness) -> bool:
        if effect in self.effects:
            return False
        self.effects[effect] = witness
        return True


def infer_effects(project: Project, graph: CallGraph) -> Dict[str, FunctionEffects]:
    """Seed intraprocedural effects, then propagate to a fixpoint.

    A ``# repro: noqa`` at the line where an effect *originates* keeps it
    from being seeded, so a justified suppression at the origin call
    kills the whole propagated chain instead of forcing a noqa onto
    every transitive caller.  Name-matched attribute calls dispatch
    through :meth:`CallGraph.callees` with the generic names left in.
    """
    nodes = {
        scope.qualname: scope.node
        for module in project.modules.values()
        for scope in module.functions
    }
    effects: Dict[str, FunctionEffects] = {}
    for qualname, info in graph.functions.items():
        node = nodes.get(qualname)
        if node is None:
            effects[qualname] = FunctionEffects(qualname)
            continue
        effects[qualname] = _scan_function(project, info, node)

    # Fixpoint propagation over call sites.
    changed = True
    while changed:
        changed = False
        for qualname, info in graph.functions.items():
            caller = effects[qualname]
            for site in info.call_sites:
                for candidate in graph.callees(info, site, generic=True):
                    callee = effects.get(candidate)
                    if callee is None or candidate == qualname:
                        continue
                    changed |= _propagate(
                        caller, callee, graph.functions[candidate], site
                    )
    return effects


def _propagate(
    caller: FunctionEffects,
    callee: FunctionEffects,
    callee_info: FunctionInfo,
    site: CallSite,
) -> bool:
    changed = False
    for effect in (
        Effect.MUTATES_GLOBAL,
        Effect.IO,
        Effect.NONDET,
        Effect.BLOCKING,
    ):
        if callee.has(effect) and not caller.has(effect):
            origin = callee.effects[effect]
            changed |= caller.add(
                effect,
                EffectWitness(
                    site.lineno,
                    f"calls {callee.qualname} ({origin.description})",
                ),
            )
    if callee.has(Effect.MUTATES_ARG):
        tainted = _tainted_params(callee, callee_info, site)
        fresh = [name for name in tainted if name not in caller.mutated_params]
        if fresh:
            caller.mutated_params.update(fresh)
            changed = True
        if tainted and not caller.has(Effect.MUTATES_ARG):
            origin = callee.effects[Effect.MUTATES_ARG]
            changed |= caller.add(
                Effect.MUTATES_ARG,
                EffectWitness(
                    site.lineno,
                    f"passes parameter {tainted[0]!r} to {callee.qualname} "
                    f"({origin.description})",
                ),
            )
    return changed


def _tainted_params(
    callee: FunctionEffects, callee_info: FunctionInfo, site: CallSite
) -> List[str]:
    """Caller parameters that land on a parameter the callee mutates.

    Passing a value to a mutating function is only an effect when it is
    the *mutated* parameter that receives it: ``region.contains_point(a)``
    does not taint ``a`` when ``contains_point`` only mutates ``self``.
    """
    params = list(callee_info.params)
    first = params[0] if params else None
    bound = callee_info.cls is not None and first in {"self", "cls"}
    tainted: List[str] = []
    if site.receiver_param and bound and first in callee.mutated_params:
        tainted.append(site.receiver_param)
    offset = 1 if bound else 0
    for index, name in site.param_args:
        target = index + offset
        if target < len(params) and params[target] in callee.mutated_params:
            tainted.append(name)
    return tainted


# ----------------------------------------------------------------------
# intraprocedural scan
# ----------------------------------------------------------------------
#: Rule code under which each effect is reported / suppressed at origin.
_EFFECT_CODE: Dict[Effect, str] = {
    Effect.MUTATES_ARG: "RPR009",
    Effect.MUTATES_GLOBAL: "RPR009",
    Effect.IO: "RPR009",
    Effect.NONDET: "RPR010",
    Effect.BLOCKING: "RPR016",
}


class _SuppressingEffects(FunctionEffects):
    """``FunctionEffects`` whose ``add`` consults the suppression oracle.

    A ``# repro: noqa(RPR009)`` / ``(RPR010)`` on the line where an effect
    *originates* prevents the effect from being seeded at all, so the
    justification lives at the origin instead of on every transitive
    caller.  The same check applies during propagation, letting a single
    call site be exempted too.
    """

    def __init__(self, qualname: str, module: str, project: Project) -> None:
        super().__init__(qualname)
        self._module = module
        self._project = project

    def add(self, effect: Effect, witness: EffectWitness) -> bool:
        if self._project.is_suppressed(
            self._module, witness.lineno, _EFFECT_CODE[effect]
        ):
            return False
        return super().add(effect, witness)


def _scan_function(
    project: Project, info: FunctionInfo, node: FunctionNode
) -> FunctionEffects:
    result = _SuppressingEffects(info.qualname, info.module, project)
    params = set(info.params)
    set_valued = _set_valued_names(node)

    for sub in ast.walk(node):
        if isinstance(sub, (ast.Global, ast.Nonlocal)):
            result.add(
                Effect.MUTATES_GLOBAL,
                EffectWitness(sub.lineno, f"`{type(sub).__name__.lower()}` declaration"),
            )
        elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.Delete)):
            for target in _assign_targets(sub):
                base = _subscript_or_attr_base(target)
                if base is None:
                    continue
                if base in params:
                    result.add(
                        Effect.MUTATES_ARG,
                        EffectWitness(sub.lineno, f"assigns into parameter `{base}`"),
                    )
                    result.mutated_params.add(base)
        elif isinstance(sub, ast.Call):
            _scan_call(sub, params, set_valued, result)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            if _is_set_expr(sub.iter, set_valued):
                result.add(
                    Effect.NONDET,
                    EffectWitness(
                        sub.lineno,
                        "iterates over a set (hash order varies across runs)",
                    ),
                )
        elif isinstance(sub, ast.comprehension):
            if _is_set_expr(sub.iter, set_valued):
                result.add(
                    Effect.NONDET,
                    EffectWitness(
                        getattr(sub.iter, "lineno", node.lineno),
                        "comprehension iterates over a set (hash order varies)",
                    ),
                )
    return result


def _scan_call(
    call: ast.Call,
    params: Set[str],
    set_valued: Set[str],
    result: FunctionEffects,
) -> None:
    dotted = _dotted(call.func)
    name = dotted.rsplit(".", 1)[-1] if dotted else ""

    # --- I/O ---------------------------------------------------------
    if dotted in _IO_NAMES or name in _IO_METHODS and isinstance(call.func, ast.Attribute):
        result.add(Effect.IO, EffectWitness(call.lineno, f"calls `{dotted or name}`"))
    elif any(dotted.startswith(prefix) for prefix in _IO_DOTTED_PREFIXES):
        result.add(Effect.IO, EffectWitness(call.lineno, f"calls `{dotted}`"))

    # --- blocking (RPR016 seeds) -------------------------------------
    if (
        dotted in _BLOCKING_NAMES
        or dotted in _BLOCKING_DOTTED
        or any(dotted.startswith(prefix) for prefix in _BLOCKING_DOTTED_PREFIXES)
        or (name in _BLOCKING_METHODS and isinstance(call.func, ast.Attribute))
    ):
        result.add(
            Effect.BLOCKING,
            EffectWitness(call.lineno, f"blocking call `{dotted or name}`"),
        )

    # --- nondeterminism ----------------------------------------------
    if dotted in _NONDET_NAMES or dotted in _NONDET_DOTTED:
        result.add(
            Effect.NONDET, EffectWitness(call.lineno, f"calls `{dotted}`")
        )
    elif dotted in {f"random.{fn}" for fn in _GLOBAL_RNG_FUNCS} or dotted in {
        f"np.random.{fn}" for fn in _GLOBAL_RNG_FUNCS
    } | {f"numpy.random.{fn}" for fn in _GLOBAL_RNG_FUNCS}:
        result.add(
            Effect.NONDET,
            EffectWitness(call.lineno, f"global-state RNG call `{dotted}`"),
        )
    # list()/tuple()/enumerate() over a set exposes hash order.
    if (
        isinstance(call.func, ast.Name)
        and call.func.id in {"list", "tuple", "enumerate", "iter", "next"}
        and call.args
        and _is_set_expr(call.args[0], set_valued)
    ):
        result.add(
            Effect.NONDET,
            EffectWitness(
                call.lineno,
                f"`{call.func.id}()` over a set (hash order varies across runs)",
            ),
        )

    # --- parameter mutation ------------------------------------------
    if isinstance(call.func, ast.Attribute) and call.func.attr in _MUTATOR_METHODS:
        receiver = _subscript_or_attr_base(call.func)
        if receiver in params:
            result.add(
                Effect.MUTATES_ARG,
                EffectWitness(
                    call.lineno,
                    f"calls `.{call.func.attr}()` on parameter `{receiver}`",
                ),
            )
            if receiver is not None:
                result.mutated_params.add(receiver)


def _assign_targets(node: ast.Assign | ast.AugAssign | ast.Delete) -> List[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, ast.AugAssign):
        return [node.target]
    return list(node.targets)


def _subscript_or_attr_base(node: ast.expr) -> Optional[str]:
    """Innermost base name of ``x.a.b`` / ``x[i].a`` chains; else None.

    A plain ``Name`` target is a rebind, not a mutation, so it returns
    None for bare names.
    """
    current: ast.expr = node
    seen_container = False
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        seen_container = True
        current = current.value
    if seen_container and isinstance(current, ast.Name):
        return current.id
    return None


def _set_valued_names(node: ast.AST) -> Set[str]:
    """Local names assigned from set-typed expressions (forward pass)."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            if _is_set_expr(sub.value, names):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
            if _is_set_expr(sub.value, names) and isinstance(sub.target, ast.Name):
                names.add(sub.target.id)
    return names


def _is_set_expr(node: ast.expr, set_valued: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_valued
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_valued) or _is_set_expr(
            node.right, set_valued
        )
    return False


# ----------------------------------------------------------------------
# contract front ends
# ----------------------------------------------------------------------
def _zone_allows_self_mutation(module: str) -> Optional[bool]:
    """None when the module is outside every purity zone."""
    best: Optional[Tuple[int, bool]] = None
    for prefix, allow_self in config.PURITY_ZONES.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), allow_self)
    return best[1] if best is not None else None


def _in_determinism_zone(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in config.DETERMINISM_ZONES
    )


def purity_violations(
    graph: CallGraph, effects: Dict[str, FunctionEffects]
) -> Iterator[Tuple[FunctionInfo, Effect, EffectWitness]]:
    """RPR009: side effects inside a declared purity zone."""
    for qualname, info in sorted(graph.functions.items()):
        allow_self = _zone_allows_self_mutation(info.module)
        if allow_self is None:
            continue
        report = effects[qualname]
        for effect in (Effect.IO, Effect.MUTATES_GLOBAL, Effect.MUTATES_ARG):
            if not report.has(effect):
                continue
            if (
                effect is Effect.MUTATES_ARG
                and allow_self
                and report.mutated_params <= {"self", "cls"}
            ):
                continue
            yield info, effect, report.effects[effect]


def determinism_violations(
    graph: CallGraph, effects: Dict[str, FunctionEffects]
) -> Iterator[Tuple[FunctionInfo, EffectWitness]]:
    """RPR010: nondeterminism inside a declared determinism zone."""
    for qualname, info in sorted(graph.functions.items()):
        if not _in_determinism_zone(info.module):
            continue
        report = effects[qualname]
        if report.has(Effect.NONDET):
            yield info, report.effects[Effect.NONDET]
