"""Scenario generation and deterministic replay for differential testing.

A :class:`Scenario` is a complete, self-contained query configuration:
the POI set, the peers (each peer's cache is rebuilt from ground truth at
materialization time, so caches are always *valid* -- the harness tests
the verifiers, not cache corruption), the query point, ``k`` and the
relevant SENN knobs.

Scenarios round-trip through a compact one-line *scenario string*
(:func:`encode_scenario` / :func:`decode_scenario`), which is what the
shrinker prints, what golden regression files under ``tests/golden/``
store, and what ``repro-difftest --replay`` consumes.

:class:`ScenarioGen` derives scenario ``i`` of seed ``s`` from an
isolated ``random.Random`` instance, so any single scenario can be
regenerated without replaying the stream.  Families rotate through
adversarial shapes: uniform and clustered POI clouds, dyadic-grid
configurations with duplicate and collinear POIs (exact float
arithmetic), constructions with candidates and peers *exactly on*
certain-circle boundaries, and degenerate setups (zero-radius caches,
empty caches, ``k`` larger than every cache, ``k`` larger than the POI
set).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = [
    "PeerSpec",
    "Scenario",
    "ScenarioGen",
    "decode_scenario",
    "encode_scenario",
]

_FORMAT_VERSION = "repro1"
#: Every key :func:`encode_scenario` writes; the only ones a string may hold.
_FIELDS = frozenset(
    ("k", "cap", "cov", "sides", "own", "exact", "net", "q", "pois", "peers")
)
_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")


@dataclass(frozen=True)
class PeerSpec:
    """One peer: its position and how many NNs its cache holds.

    ``cache_k == 0`` models a peer with a cold (empty) cache.
    """

    x: float
    y: float
    cache_k: int

    def __post_init__(self) -> None:
        if self.cache_k < 0:
            raise ValueError("cache_k must be non-negative")


@dataclass(frozen=True)
class Scenario:
    """A fully explicit differential-test input."""

    k: int
    query: Tuple[float, float]
    pois: Tuple[Tuple[float, float, str], ...]
    peers: Tuple[PeerSpec, ...] = ()
    cache_capacity: int = 8
    coverage: str = "exact"  # "exact" | "polygon"
    polygon_sides: int = 32
    use_own_cache: bool = False
    #: Dyadic-grid scenario: float arithmetic on it is exact, so the
    #: completeness checks may demand certification at slack == 0.0.
    exact: bool = False
    check_network: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.pois:
            raise ValueError("a scenario needs at least one POI")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be at least 1")
        if self.coverage not in ("exact", "polygon"):
            raise ValueError(f"unknown coverage method {self.coverage!r}")
        if self.polygon_sides < 3:
            raise ValueError("polygon_sides must be at least 3")
        seen = set()
        for _, _, poi_id in self.pois:
            if not _ID_RE.match(poi_id):
                raise ValueError(f"POI id {poi_id!r} must match [A-Za-z0-9_-]+")
            if poi_id in seen:
                raise ValueError(f"duplicate POI id {poi_id!r}")
            seen.add(poi_id)
        if self.use_own_cache and not self.peers:
            raise ValueError("use_own_cache requires at least one peer entry")


# ----------------------------------------------------------------------
# scenario-string codec
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    """Shortest exact decimal form (``float(repr(x)) == x``)."""
    return repr(float(value))


def encode_scenario(scenario: Scenario) -> str:
    """Serialize to the compact one-line replay format."""
    parts = [
        _FORMAT_VERSION,
        f"k={scenario.k}",
        f"cap={scenario.cache_capacity}",
        f"cov={scenario.coverage}",
        f"sides={scenario.polygon_sides}",
        f"own={int(scenario.use_own_cache)}",
        f"exact={int(scenario.exact)}",
        f"net={int(scenario.check_network)}",
        f"q={_fmt(scenario.query[0])}:{_fmt(scenario.query[1])}",
    ]
    parts.append(
        "pois="
        + ",".join(f"{_fmt(x)}:{_fmt(y)}:{pid}" for x, y, pid in scenario.pois)
    )
    parts.append(
        "peers="
        + ",".join(
            f"{_fmt(p.x)}:{_fmt(p.y)}:{p.cache_k}" for p in scenario.peers
        )
    )
    return ";".join(parts)


def decode_scenario(text: str) -> Scenario:
    """Parse a scenario string back into a :class:`Scenario`.

    Raises ``ValueError`` on malformed input, including a field
    :func:`encode_scenario` does not write (a misspelt or retired key);
    round-trips exactly with
    :func:`encode_scenario` (floats use ``repr`` form).
    """
    fields = text.strip().split(";")
    if not fields or fields[0] != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported scenario format (expected leading {_FORMAT_VERSION!r})"
        )
    values: Dict[str, str] = {}
    for item in fields[1:]:
        if "=" not in item:
            raise ValueError(f"malformed scenario field {item!r}")
        key, _, value = item.partition("=")
        if key not in _FIELDS:
            raise ValueError(f"unknown scenario field {key!r}")
        if key in values:
            raise ValueError(f"duplicate scenario field {key!r}")
        values[key] = value
    try:
        qx, qy = values["q"].split(":")
        pois = []
        if values["pois"]:
            for chunk in values["pois"].split(","):
                x, y, pid = chunk.split(":")
                pois.append((float(x), float(y), pid))
        peers = []
        if values.get("peers"):
            for chunk in values["peers"].split(","):
                x, y, cache_k = chunk.split(":")
                peers.append(PeerSpec(float(x), float(y), int(cache_k)))
        return Scenario(
            k=int(values["k"]),
            query=(float(qx), float(qy)),
            pois=tuple(pois),
            peers=tuple(peers),
            cache_capacity=int(values.get("cap", "8")),
            coverage=values.get("cov", "exact"),
            polygon_sides=int(values.get("sides", "32")),
            use_own_cache=values.get("own", "0") == "1",
            exact=values.get("exact", "0") == "1",
            check_network=values.get("net", "0") == "1",
        )
    except KeyError as exc:
        raise ValueError(f"scenario string is missing field {exc.args[0]!r}") from exc


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
@dataclass
class ScenarioGen:
    """Deterministic adversarial scenario source.

    ``generate(i)`` depends only on ``(seed, i)``; the family rotates
    round-robin so every budget covers every family.
    """

    seed: int
    families: Tuple[str, ...] = (
        "uniform",
        "boundary",
        "clustered",
        "grid",
        "degenerate",
        "network",
    )

    def generate(self, index: int) -> Scenario:
        rng = random.Random(f"repro-difftest:{self.seed}:{index}")
        family = self.families[index % len(self.families)]
        builder = getattr(self, f"_build_{family}")
        scenario: Scenario = builder(rng)
        return scenario

    def stream(self, budget: int, start: int = 0) -> Iterator[Tuple[int, Scenario]]:
        for index in range(start, start + budget):
            yield index, self.generate(index)

    # -- shared pieces --------------------------------------------------
    @staticmethod
    def _ids_for(count: int) -> List[str]:
        return [f"p{i}" for i in range(count)]

    @staticmethod
    def _knobs(rng: random.Random, exact: bool) -> dict:
        coverage = "polygon" if (not exact and rng.random() < 0.25) else "exact"
        return {
            "cache_capacity": rng.randint(2, 8),
            "coverage": coverage,
            "polygon_sides": rng.choice((8, 16, 32)),
            "use_own_cache": rng.random() < 0.5,
            "check_network": rng.random() < 0.25,
        }

    @staticmethod
    def _peers(
        rng: random.Random, count: int, coord: Callable[[random.Random], float]
    ) -> Tuple[PeerSpec, ...]:
        return tuple(
            PeerSpec(coord(rng), coord(rng), rng.randint(0, 6)) for _ in range(count)
        )

    # -- families -------------------------------------------------------
    def _build_uniform(self, rng: random.Random) -> Scenario:
        count = rng.randint(4, 24)
        pois = tuple(
            (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), pid)
            for pid in self._ids_for(count)
        )
        peers = self._peers(rng, rng.randint(1, 5), lambda r: r.uniform(0.0, 1.0))
        return Scenario(
            k=rng.randint(1, 6),
            query=(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)),
            pois=pois,
            peers=peers,
            **self._knobs(rng, exact=False),
        )

    def _build_clustered(self, rng: random.Random) -> Scenario:
        centers = [
            (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
            for _ in range(rng.randint(1, 3))
        ]
        count = rng.randint(6, 20)
        pois = []
        for pid in self._ids_for(count):
            cx, cy = rng.choice(centers)
            pois.append((rng.gauss(cx, 0.05), rng.gauss(cy, 0.05), pid))
        cx, cy = rng.choice(centers)
        peers = tuple(
            PeerSpec(rng.gauss(cx, 0.08), rng.gauss(cy, 0.08), rng.randint(1, 6))
            for _ in range(rng.randint(1, 4))
        )
        return Scenario(
            k=rng.randint(1, 5),
            query=(rng.gauss(cx, 0.05), rng.gauss(cy, 0.05)),
            pois=tuple(pois),
            peers=peers,
            **self._knobs(rng, exact=False),
        )

    def _build_grid(self, rng: random.Random) -> Scenario:
        """Dyadic lattice with duplicate locations and collinear runs."""

        def lattice(r: random.Random) -> float:
            return r.randint(0, 8) / 8.0
        count = rng.randint(4, 14)
        coords: List[Tuple[float, float]] = []
        for _ in range(count):
            if coords and rng.random() < 0.2:
                coords.append(rng.choice(coords))  # duplicate location
            elif coords and rng.random() < 0.3:
                x, y = rng.choice(coords)  # collinear with an existing POI
                coords.append((lattice(rng), y) if rng.random() < 0.5 else (x, lattice(rng)))
            else:
                coords.append((lattice(rng), lattice(rng)))
        pois = tuple(
            (x, y, pid) for (x, y), pid in zip(coords, self._ids_for(count))
        )
        peers = self._peers(rng, rng.randint(1, 4), lattice)
        # Dyadic coordinates, but distances involve sqrt -- arithmetic is
        # NOT exact, so the scenario must not claim ``exact``.
        knobs = self._knobs(rng, exact=False)
        return Scenario(
            k=rng.randint(1, 5),
            query=(lattice(rng), lattice(rng)),
            pois=pois,
            peers=peers,
            **knobs,
        )

    def _build_boundary(self, rng: random.Random) -> Scenario:
        """Exact boundary-equality constructions (axis-aligned, dyadic).

        The peer ``P``, the query ``Q`` and the candidate POI are
        collinear on a horizontal line, so ``Dist(Q, n_i) + Dist(Q, P)``
        equals ``Dist(P, n_i)`` *bit-for-bit* -- Lemma 3.2's ``<=`` holds
        with equality and a verifier with a flipped inequality fails to
        certify.  A second peer is sometimes placed exactly on the first
        peer's certain-circle boundary.
        """
        step = 0.125
        y = rng.randint(0, 8) * step
        px = rng.randint(0, 4) * step
        reach = rng.randint(2, 4)  # candidate distance from P, in steps
        cand_x = px + reach * step
        qx = px + rng.randint(1, reach - 1) * step  # strictly between P and n_i
        pois: List[Tuple[float, float, str]] = [(cand_x, y, "p0")]
        # Filler POIs strictly outside the peer's certain circle keep the
        # scenario non-trivial without disturbing the equality.
        for index in range(rng.randint(0, 3)):
            fx = px + (reach + 1 + rng.randint(0, 3)) * step
            fy = rng.randint(0, 8) * step
            pois.append((fx, fy, f"p{index + 1}"))
        peers = [PeerSpec(px, y, 1)]
        if rng.random() < 0.5:
            # A peer exactly on the first peer's certain-circle boundary.
            peers.append(PeerSpec(px + reach * step, y, rng.randint(0, 2)))
        knobs = self._knobs(rng, exact=True)
        knobs["use_own_cache"] = False
        return Scenario(
            k=rng.randint(1, 2),
            query=(qx, y),
            pois=tuple(pois),
            peers=tuple(peers),
            exact=True,
            **knobs,
        )

    def _build_network(self, rng: random.Random) -> Scenario:
        """POI-heavy, always network-checked: SNNN and the index checks.

        Larger POI sets push the difftest grid network to its bigger
        sizes (see ``_check_network_index``) so the hierarchical index
        is exercised at real partition depth, with ``k`` occasionally
        exceeding the POI count and duplicate locations forcing ties at
        the k-th network distance.
        """
        count = rng.randint(12, 40)
        coords: List[Tuple[float, float]] = []
        for _ in range(count):
            if coords and rng.random() < 0.15:
                coords.append(rng.choice(coords))  # tie at the k-th distance
            else:
                coords.append((rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
        pois = tuple(
            (x, y, pid) for (x, y), pid in zip(coords, self._ids_for(count))
        )
        peers = self._peers(rng, rng.randint(1, 4), lambda r: r.uniform(0.0, 1.0))
        knobs = self._knobs(rng, exact=False)
        knobs["check_network"] = True
        return Scenario(
            k=rng.randint(1, 8) + (3 if rng.random() < 0.1 else 0),
            query=(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)),
            pois=pois,
            peers=peers,
            **knobs,
        )

    def _build_degenerate(self, rng: random.Random) -> Scenario:
        """Zero-radius caches, empty caches, k beyond every cache/POI set."""

        def lattice(r: random.Random) -> float:
            return r.randint(0, 4) / 4.0
        count = rng.randint(1, 6)
        base = (lattice(rng), lattice(rng))
        coords = [base]
        for _ in range(count - 1):
            # Heavy duplication: many POIs collapse onto one location.
            coords.append(base if rng.random() < 0.5 else (lattice(rng), lattice(rng)))
        pois = tuple(
            (x, y, pid) for (x, y), pid in zip(coords, self._ids_for(count))
        )
        peers = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.4:
                # Peer sitting exactly on a POI: its 1-NN cache has a
                # zero-radius certain circle.
                x, y = rng.choice(coords)
                peers.append(PeerSpec(x, y, 1))
            elif rng.random() < 0.4:
                peers.append(PeerSpec(lattice(rng), lattice(rng), 0))  # cold cache
            else:
                peers.append(PeerSpec(lattice(rng), lattice(rng), rng.randint(1, 2)))
        # Off-axis sqrt distances can coincide with an oracle slack of
        # exactly 0.0 while the implementation's (different) float
        # expression misses by an ulp, so ``exact`` stays off here; only
        # the axis-aligned collinear boundary family may claim it.
        knobs = self._knobs(rng, exact=False)
        return Scenario(
            # k routinely exceeds both the cache sizes and the POI count.
            k=rng.randint(1, count + 3),
            query=(lattice(rng), lattice(rng)),
            pois=pois,
            peers=tuple(peers),
            **knobs,
        )
