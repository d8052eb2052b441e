"""repro -- sharing-based spatial queries in mobile environments.

A from-scratch reproduction of *Location-based Spatial Queries with Data
Sharing in Mobile Environments* (Ku, Zimmermann & Wan, ICDE 2006): the
SENN / SNNN peer-to-peer kNN algorithms, the R*-tree server they prune,
the road-network substrate, and the full mobility simulation used in the
paper's evaluation.

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the full
system inventory.
"""

from __future__ import annotations

import importlib
from typing import List

from repro.version import __version__

#: Each export's home package, imported on first access (PEP 562), so
#: importing a submodule -- the linter's ``repro.analysis`` above all --
#: never loads the product and still runs on a tree whose import fails.
_EXPORTS = {
    "BoundingBox": "repro.geometry",
    "Circle": "repro.geometry",
    "Point": "repro.geometry",
    "Polygon": "repro.geometry",
    "MobileHost": "repro.core",
    "ResolutionTier": "repro.core",
    "SennConfig": "repro.core",
    "SpatialDatabaseServer": "repro.core",
    "senn_query": "repro.core",
    "snnn_query": "repro.core",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str) -> object:
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(home), name)


def __dir__() -> List[str]:
    return sorted(__all__)
