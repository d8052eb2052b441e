"""Page access accounting for the spatial index.

The paper's server-side metric is the *page access rate* (PAR): the number
of R*-tree nodes (index pages and data pages) touched per query.  Node
access counts predict I/O cost well because any reasonably large data set
does not fit in main memory (Section 4.4).

Two layers are provided:

- :class:`PageAccessCounter` -- raw node access counting, resettable per
  query, with running totals per query batch;
- :class:`BufferPool` -- an optional LRU buffer model on top of the
  counter, splitting accesses into main-memory hits and disk misses to
  expose the two extremes the paper discusses (everything cached versus
  every access hitting disk).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence

from repro.obs import OBS, ServerRecord

__all__ = ["PageAccessCounter", "BufferPool", "AccessBreakdown"]


@dataclass
class AccessBreakdown:
    """Summary of a finished query's page accesses.

    ``data_records`` counts object-record fetches: the paper's "data
    node" accesses.  An R*-tree leaf stores ``(point, object id)``
    entries; returning a full POI record to the client costs one more
    page.  EINN skips the records the client already holds, which is a
    large part of its advantage over INN (Section 4.4: "the EINN usually
    requests fewer R*-tree nodes and objects than INN").

    ``entries_scanned`` counts node entries examined by whole-node
    vectorized scans (see :meth:`PageAccessCounter.record_scan`).  It is
    a CPU-side diagnostic and never contributes to ``total``: scanning a
    node's entire entry block costs one page access, not one per entry.
    """

    total: int
    index_nodes: int
    leaf_nodes: int
    data_records: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    entries_scanned: int = 0


class PageAccessCounter:
    """Counts R-tree node accesses, distinguishing index and leaf pages.

    A counter can be shared by many queries: call :meth:`start_query`
    before each query and :meth:`finish_query` after, then read per-query
    breakdowns from :attr:`history` or aggregate with :meth:`mean_per_query`.

    ``tally`` is the open query's :class:`~repro.obs.ServerRecord`: the
    traversals add EINN's pruned MBRs there and the server its shipped
    records, algorithm and pages; the node reads join it from this
    counter's registers.  :meth:`finish_query` flushes it -- the query's
    one registry update -- and starts the next.
    """

    def __init__(self, buffer_pool: Optional["BufferPool"] = None) -> None:
        self.buffer_pool = buffer_pool
        self._current_index = 0
        self._current_leaf = 0
        self._current_data = 0
        self._current_hits = 0
        self._current_misses = 0
        self._current_entries = 0
        self.history: List[AccessBreakdown] = []
        self.total_accesses = 0
        self.total_entries_scanned = 0
        self.tally = ServerRecord()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, page_id: int, is_leaf: bool) -> None:
        """Record one access to the node with identity ``page_id``."""
        if is_leaf:
            self._current_leaf += 1
        else:
            self._current_index += 1
        self.total_accesses += 1
        self._buffer_access(page_id)

    def record_scan(self, page_id: int, is_leaf: bool, entries: int) -> None:
        """Record one *whole-node* scan: one page access, ``entries`` rows.

        The vectorized kernels examine every entry of a node in a single
        array pass.  That pass touches exactly one page — the node — no
        matter how many entries it holds, so this bills one node access
        (identical to :meth:`record`) and tracks the scanned entry count
        separately for CPU-side diagnostics.  Using this method instead
        of per-entry :meth:`record` calls is what keeps the Figure-17
        page counts invariant under vectorization.
        """
        if entries < 0:
            raise ValueError("entries must be non-negative")
        self.record(page_id, is_leaf)
        self._current_entries += entries
        self.total_entries_scanned += entries

    def record_objects(self, object_ids: Sequence[Hashable]) -> None:
        """Record fetching one answer's object records (data-node accesses).

        One call per answer: the count joins the registers at once, and
        the buffer pool sees each record's page in ``object_ids`` order.
        """
        count = len(object_ids)
        self._current_data += count
        self.total_accesses += count
        if self.buffer_pool is not None:
            for object_id in object_ids:
                self._buffer_access(("data", object_id))

    def _buffer_access(self, page_id: Hashable) -> None:
        if self.buffer_pool is not None:
            if self.buffer_pool.access(page_id):
                self._current_hits += 1
            else:
                self._current_misses += 1

    # ------------------------------------------------------------------
    # query lifecycle
    # ------------------------------------------------------------------
    def start_query(self) -> None:
        """Reset the per-query counters (totals are preserved)."""
        self._current_index = 0
        self._current_leaf = 0
        self._current_data = 0
        self._current_hits = 0
        self._current_misses = 0
        self._current_entries = 0

    def current_breakdown(self) -> AccessBreakdown:
        """The open query's breakdown so far (nothing is closed or flushed)."""
        return AccessBreakdown(
            total=self._current_index + self._current_leaf + self._current_data,
            index_nodes=self._current_index,
            leaf_nodes=self._current_leaf,
            data_records=self._current_data,
            buffer_hits=self._current_hits,
            buffer_misses=self._current_misses,
            entries_scanned=self._current_entries,
        )

    def finish_query(self) -> AccessBreakdown:
        """Close the current query and append its breakdown to history."""
        breakdown = self.current_breakdown()
        self.history.append(breakdown)
        self.flush_tally()
        return breakdown

    def flush_tally(self) -> None:
        """Publish the open query's record and start a fresh one.

        The query's node reads are this counter's own registers; they
        join the record here.  :meth:`finish_query` calls it; a query
        that raises calls it to count what it did before the raise.
        """
        tally, self.tally = self.tally, ServerRecord()
        if OBS.enabled:
            tally.index_reads += self._current_index
            tally.leaf_reads += self._current_leaf
            tally.flush()

    @property
    def current_total(self) -> int:
        """Accesses recorded since the last :meth:`start_query`."""
        return self._current_index + self._current_leaf + self._current_data

    def mean_per_query(self) -> float:
        """Mean page accesses per finished query (0.0 with no history)."""
        if not self.history:
            return 0.0
        return sum(item.total for item in self.history) / len(self.history)

    def reset(self) -> None:
        """Clear everything, including history and totals."""
        self.history.clear()
        self.total_accesses = 0
        self.total_entries_scanned = 0
        self.start_query()


class BufferPool:
    """A simple LRU page buffer model.

    ``capacity`` is the number of pages held in memory.  :meth:`access`
    returns True on a hit and False on a miss (after which the page is
    resident).  With ``capacity=0`` every access misses, modelling the
    cold-disk end of the spectrum from Section 4.4.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._pages: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, page_id: int) -> bool:
        """Touch a page; returns True on buffer hit."""
        if self.capacity == 0:
            self.misses += 1
            return False
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            self.hits += 1
            return True
        self.misses += 1
        self._pages[page_id] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
        return False

    @property
    def resident_pages(self) -> int:
        """Number of pages currently held by the buffer."""
        return len(self._pages)

    def hit_ratio(self) -> float:
        """Fraction of accesses served from memory (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Evict everything and reset statistics."""
        self._pages.clear()
        self.hits = 0
        self.misses = 0
