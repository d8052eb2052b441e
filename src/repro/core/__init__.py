"""The paper's primary contribution: sharing-based NN query processing.

Modules:

- :mod:`repro.core.heap` -- the candidate heap ``H`` (Table 1) holding
  certain and uncertain POIs, with the six states of Section 3.3;
- :mod:`repro.core.cache` -- per-host cached query results and the two
  cache management policies of Section 4.1;
- :mod:`repro.core.verification` -- Lemma 3.2 single-peer verification
  (``kNN_single``) and Lemma 3.8 multi-peer verification
  (``kNN_multiple``);
- :mod:`repro.core.bounds` -- the branch-expanding upper/lower bounds
  derived from the heap state (Section 3.3);
- :mod:`repro.core.senn` -- Algorithm 1, SENN;
- :mod:`repro.core.snnn` -- Algorithm 2, SNNN (network distances);
- :mod:`repro.core.server` -- the remote spatial database server (R*-tree
  + INN/EINN);
- :mod:`repro.core.host` -- the mobile host tying cache, SENN and server
  fallback together.
"""

from repro.core.bounds import derive_pruning_bounds
from repro.core.cache import CachedQueryResult, QueryCache
from repro.core.heap import CandidateHeap, HeapEntry, HeapState
from repro.core.host import MobileHost
from repro.core.naive_sharing import NaiveShareResult, naive_share_query
from repro.core.senn import ResolutionTier, SennConfig, SennResult, senn_query
from repro.core.server import SpatialDatabaseServer
from repro.core.snnn import SnnnResult, snnn_query
from repro.core.verification import verify_multi_peer, verify_single_peer

__all__ = [
    "CachedQueryResult",
    "CandidateHeap",
    "HeapEntry",
    "HeapState",
    "MobileHost",
    "NaiveShareResult",
    "QueryCache",
    "ResolutionTier",
    "SennConfig",
    "SennResult",
    "SnnnResult",
    "SpatialDatabaseServer",
    "derive_pruning_bounds",
    "naive_share_query",
    "senn_query",
    "snnn_query",
    "verify_multi_peer",
    "verify_single_peer",
]
