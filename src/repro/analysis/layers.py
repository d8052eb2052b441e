"""Layering contract over the module import graph (deep pass 4, RPR013).

The declared architecture is a strict DAG of layers::

    geometry ──► index / network ──► core ──► continuous / io / sim /
                                              testing ──► experiments ──►
                                              cli / analysis

(ranks in :data:`repro.analysis.config.LAYER_RANKS`; longest prefix
wins, so single modules can override their package).  A module may
import only modules of its own or a lower rank; the judgment applies to
**top-level** imports — deferred function-scope imports are the
sanctioned cycle-breaking device and stay exempt.

On top of the rank check, three restricted contracts:

- the static-analysis side of ``repro.analysis`` may import nothing
  from ``repro`` outside itself (it must lint broken trees);
- a differential-test oracle module may import only the project
  modules :data:`repro.analysis.config.ORACLE_ALLOWED_IMPORTS` grants
  it, judged on **every** import, deferred ones included: an oracle
  that calls the code under test agrees with it by construction;
- no top-level import cycles anywhere (a submodule importing its own
  package ``__init__`` is the classic offender).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis import config
from repro.analysis.callgraph import ImportGraph, ImportRecord

__all__ = ["cycle_violations", "layer_rank", "layer_violations", "layering_table"]


def layer_rank(module: str) -> Optional[int]:
    """Rank by longest configured prefix; None for unranked modules."""
    best: Optional[Tuple[int, int]] = None  # (prefix length, rank)
    for prefix, rank in config.LAYER_RANKS.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), rank)
    return best[1] if best is not None else None


def _is_static_analysis(module: str) -> bool:
    return module in config.STATIC_ANALYSIS_MODULES


def layer_violations(
    graph: ImportGraph,
) -> Iterator[Tuple[ImportRecord, str]]:
    """Yield (record, message) for every contract breach.

    ``from pkg import a, b, c`` produces one :class:`ImportRecord` per
    alias; the breach is per (source, target, line), so duplicates are
    folded here.
    """
    seen: Set[Tuple[str, str, int]] = set()
    for record in graph.records:
        key = (record.source, record.target, record.lineno)
        if key in seen:
            continue
        seen.add(key)
        allowed = config.ORACLE_ALLOWED_IMPORTS.get(record.source)
        if allowed is not None:
            if record.target not in allowed:
                yield (
                    record,
                    f"oracle module `{record.source}` imports "
                    f"`{record.target}`; oracles must stay independent of "
                    f"the code under test (only {', '.join(allowed)} is "
                    "shared)",
                )
            continue
        if not record.top_level:
            continue
        if _is_static_analysis(record.source) and not _is_static_analysis(
            record.target
        ):
            yield (
                record,
                f"static-analysis module `{record.source}` imports "
                f"`{record.target}`; the lint side must run on broken trees "
                "and may only import repro.analysis itself",
            )
            continue
        source_rank = layer_rank(record.source)
        target_rank = layer_rank(record.target)
        if source_rank is None or target_rank is None:
            continue
        if target_rank > source_rank:
            yield (
                record,
                f"`{record.source}` (layer {source_rank}) imports "
                f"`{record.target}` (layer {target_rank}); the layering "
                "contract is geometry -> index/network -> core -> "
                "sim/experiments/testing (defer the import into the using "
                "function if it is a sanctioned cycle-breaker)",
            )


def cycle_violations(graph: ImportGraph) -> Iterator[Tuple[str, str]]:
    """Yield (module, message) for each top-level import cycle."""
    for component in graph.cycles():
        chain = " -> ".join(component + component[:1])
        yield (
            component[0],
            f"top-level import cycle: {chain}; break it with a deferred "
            "(function-scope) import or by importing the sibling module "
            "directly instead of its package",
        )


def layering_table() -> List[str]:
    """The declared contract, rendered for --explain output and docs."""
    by_rank: dict[int, List[str]] = {}
    for prefix, rank in sorted(config.LAYER_RANKS.items()):
        by_rank.setdefault(rank, []).append(prefix)
    lines = []
    for rank in sorted(by_rank):
        lines.append(f"layer {rank}: " + ", ".join(sorted(by_rank[rank])))
    return lines
