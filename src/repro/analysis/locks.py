"""The lock-order graph: shared vocabulary of the concurrency pass.

Both halves of the concurrency tooling speak in *canonical lock names*:

* the static pass (:mod:`repro.analysis.concurrency`) derives them from
  the program text -- ``self._lock`` inside ``TcpTransport`` becomes
  ``TcpTransport._lock``, while ``named_lock("MetricsRegistry._lock")``
  takes the string literal passed to the factory;
* the runtime race sanitizer (:mod:`repro.analysis.runtime`) gets them
  verbatim from :func:`~repro.analysis.runtime.named_lock` call sites.

Because the names agree by construction, the runtime-observed acquisition
graph can be checked as a *subset* of the static one
(:meth:`LockOrderGraph.missing_edges`), which is the acceptance check the
service stress tests run.

:data:`repro.analysis.config.LOCK_ALIASES` folds locks that are one
object travelling under several attribute names (the registry lock handed
into each metric instrument) onto a single canonical node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Set, Tuple

from repro.analysis import config

__all__ = ["LockOrderGraph", "LockSite", "canonical_lock_name"]


def canonical_lock_name(
    name: str, aliases: Mapping[str, str] = config.LOCK_ALIASES
) -> str:
    """Fold an observed lock name onto its canonical node.

    Aliases are applied once (no chains): the tables in ``config`` map
    every synonym directly to the canonical name.
    """
    return aliases.get(name, name)


@dataclass(frozen=True)
class LockSite:
    """Provenance of one lock-order edge (where the inner acquire sits)."""

    module: str
    lineno: int
    note: str = ""


@dataclass
class LockOrderGraph:
    """Directed graph: edge ``a -> b`` means ``b`` acquired while holding ``a``."""

    #: (outer, inner) -> every site that witnessed the edge.
    edges: Dict[Tuple[str, str], List[LockSite]] = field(default_factory=dict)

    def add_edge(self, outer: str, inner: str, site: LockSite) -> None:
        """Record that ``inner`` was acquired while ``outer`` was held."""
        outer = canonical_lock_name(outer)
        inner = canonical_lock_name(inner)
        self.edges.setdefault((outer, inner), []).append(site)

    def nodes(self) -> List[str]:
        """Every lock that participates in at least one edge, sorted."""
        seen: Set[str] = set()
        for outer, inner in self.edges:
            seen.add(outer)
            seen.add(inner)
        return sorted(seen)

    def successors(self, lock: str) -> List[str]:
        """Locks acquired (somewhere) while ``lock`` is held, sorted."""
        return sorted({inner for outer, inner in self.edges if outer == lock})

    def cycles(self) -> List[List[str]]:
        """Elementary deadlock cycles (Tarjan SCCs of size > 1, plus self-loops).

        A cycle ``A -> B -> A`` means two code paths acquire the same two
        locks in opposite orders; a self-loop means a non-reentrant lock
        is re-acquired while already held.  Either is a potential
        deadlock (RPR019).
        """
        graph: Dict[str, Set[str]] = {}
        for outer, inner in self.edges:
            graph.setdefault(outer, set()).add(inner)
            graph.setdefault(inner, set())
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

    def witness(self, outer: str, inner: str) -> List[LockSite]:
        """Every recorded site for one edge (empty when absent)."""
        return list(self.edges.get((outer, inner), ()))

    def missing_edges(
        self, observed: Iterable[Tuple[str, str]]
    ) -> List[Tuple[str, str]]:
        """Observed edges the static graph does not predict, sorted.

        The runtime sanitizer feeds its recorded graph in here; a
        non-empty result means execution took a lock nesting the static
        pass never saw -- either an analysis gap or a genuinely dynamic
        acquisition order, both worth a test failure.
        """
        return sorted(set(observed) - set(self.edges))

    def render(self) -> List[str]:
        """Human-readable ``outer -> inner  (module:line)`` lines, sorted."""
        lines: List[str] = []
        for (outer, inner) in sorted(self.edges):
            site = self.edges[(outer, inner)][0]
            suffix = f"  ({site.module}:{site.lineno})" if site.module else ""
            lines.append(f"{outer} -> {inner}{suffix}")
        return lines
