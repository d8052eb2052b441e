"""Spatial indexing substrate: R-tree family and nearest-neighbor search.

The paper's spatial database server indexes points of interest with an
R*-tree [Beckmann et al. 1990] and answers kNN queries with the best-first
incremental algorithm of Hjaltason & Samet [1999] (called INN in the
paper).  Section 3.3 extends INN with client-supplied pruning bounds into
EINN; Section 4.4 compares the two by page accesses.

- :mod:`repro.index.pagestats` -- node/page access accounting and an LRU
  buffer pool model (the PAR metric);
- :mod:`repro.index.node` -- tree nodes and entries;
- :mod:`repro.index.rtree` -- insertion (Guttman quadratic split or R*
  split with forced reinsertion), bulk loading, range search;
- :mod:`repro.index.knn` -- INN, the depth-first branch-and-bound
  baseline, and EINN with the paper's downward/upward pruning rules.
"""

from repro.index.knn import (
    NeighborResult,
    PruningBounds,
    incremental_nearest,
    k_nearest,
    k_nearest_depth_first,
    k_nearest_einn,
)
from repro.index.pagestats import BufferPool, PageAccessCounter
from repro.index.rtree import RTree, RTreeConfig, SplitPolicy

__all__ = [
    "BufferPool",
    "NeighborResult",
    "PageAccessCounter",
    "PruningBounds",
    "RTree",
    "RTreeConfig",
    "SplitPolicy",
    "incremental_nearest",
    "k_nearest",
    "k_nearest_depth_first",
    "k_nearest_einn",
]
