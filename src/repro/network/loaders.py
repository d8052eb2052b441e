"""Real road-graph loaders: TIGER edge lists and OSM XML.

The paper's experiments run on TIGER/Line street segments for the Los
Angeles and Riverside regions (Section 4.1.2).  This module turns the
two interchange formats those graphs ship in into a
:class:`~repro.network.graph.SpatialNetwork`:

- **TIGER edge lists** -- the ``.cnode`` / ``.cedge`` pair used
  throughout the road-network kNN literature ("kNN on Road Networks: A
  Journey in Experimentation", arXiv:1601.01549): one whitespace-
  separated node per line (``id x y``) and one edge per line
  (``id u v length [class]``).  :func:`write_tiger` emits the same
  format, byte-reproducibly, so extracts can be committed.
- **OSM XML** -- ``<node>`` / ``<way>`` documents from the Overpass API
  or ``osmium``-converted extracts.  Binary ``.pbf`` extracts are
  rejected with a pointer to the XML conversion (parsing PBF needs a
  protobuf stack this project deliberately does not depend on).

Geographic coordinates are normalized through a :class:`RegionFrame`
(equirectangular lon/lat -> miles around a region anchor; frames for
the paper's two regions ship predefined), and
:func:`downsample` grows a deterministic connected extract so CI can
exercise a committed ~5k-node graph instead of a 100k+-node region.
All readers are gzip-transparent.
"""

from __future__ import annotations

import gzip
import io
import math
import os
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Tuple, Union

from repro.geometry.point import Point
from repro.network.graph import RoadClass, SpatialNetwork

__all__ = [
    "LOS_ANGELES",
    "MILES_PER_DEGREE",
    "RIVERSIDE",
    "RegionFrame",
    "bundled_extract_paths",
    "downsample",
    "load_bundled_extract",
    "load_osm_xml",
    "load_tiger",
    "write_tiger",
]

PathLike = Union[str, "os.PathLike[str]"]

#: Length of one degree of latitude in statute miles (WGS-84 mean).
MILES_PER_DEGREE = 69.172


@dataclass(frozen=True)
class RegionFrame:
    """Equirectangular projection anchored on one experiment region.

    ``project`` maps geographic coordinates into the plane the rest of
    the system works in: miles east/north of ``(anchor_lon,
    anchor_lat)``, with longitudes shrunk by the anchor latitude's
    cosine.  Over a metro-sized region the distortion is far below the
    road-length noise, which is all the paper's cost model needs.
    """

    name: str
    anchor_lon: float
    anchor_lat: float

    def project(self, lon: float, lat: float) -> Point:
        """Geographic ``(lon, lat)`` degrees -> plane :class:`Point` in miles."""
        scale = math.cos(math.radians(self.anchor_lat))
        return Point(
            (lon - self.anchor_lon) * scale * MILES_PER_DEGREE,
            (lat - self.anchor_lat) * MILES_PER_DEGREE,
        )


#: The paper's two experiment regions (Section 4.1.2).
LOS_ANGELES = RegionFrame("los-angeles", anchor_lon=-118.41, anchor_lat=34.02)
RIVERSIDE = RegionFrame("riverside", anchor_lon=-117.40, anchor_lat=33.95)

#: TIGER CFCC prefixes -> modeling road class (Section 4.1.2 assigns the
#: per-class speeds).  ``A1`` primary highways, ``A2`` secondary roads,
#: everything else local/rural.
_CFCC_CLASSES: Dict[str, RoadClass] = {
    "A1": RoadClass.PRIMARY_HIGHWAY,
    "A2": RoadClass.SECONDARY_ROAD,
    "A3": RoadClass.RURAL_ROAD,
    "A4": RoadClass.RURAL_ROAD,
}

#: OSM ``highway=`` values -> modeling road class; unlisted tags are
#: rural/local.
_OSM_HIGHWAY_CLASSES: Dict[str, RoadClass] = {
    "motorway": RoadClass.PRIMARY_HIGHWAY,
    "trunk": RoadClass.PRIMARY_HIGHWAY,
    "primary": RoadClass.PRIMARY_HIGHWAY,
    "secondary": RoadClass.SECONDARY_ROAD,
    "tertiary": RoadClass.SECONDARY_ROAD,
    "residential": RoadClass.RURAL_ROAD,
    "unclassified": RoadClass.RURAL_ROAD,
}


def _open_text(path: PathLike) -> IO[str]:
    """Open a possibly-gzipped text file for reading."""
    raw = open(path, "rb")
    magic = raw.read(2)
    raw.seek(0)
    if magic == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.GzipFile(fileobj=raw), encoding="utf-8")
    return io.TextIOWrapper(raw, encoding="utf-8")


def _parse_error(path: PathLike, line_no: int, message: str) -> ValueError:
    """Uniform ``file:line: message`` parse failure."""
    return ValueError(f"{os.fspath(path)}:{line_no}: {message}")


# ----------------------------------------------------------------------
# TIGER edge lists
# ----------------------------------------------------------------------


def load_tiger(
    nodes_path: PathLike,
    edges_path: PathLike,
    scale: float = 1.0,
) -> SpatialNetwork:
    """Load a ``.cnode`` / ``.cedge`` pair into a :class:`SpatialNetwork`.

    Node lines are ``id x y`` (plane coordinates, already projected);
    edge lines are ``id u v length`` with an optional trailing CFCC
    class code (``A1`` .. ``A4``).  ``scale`` multiplies coordinates
    *and* lengths (e.g. to convert meters to miles).  Malformed or
    truncated input raises :class:`ValueError` naming the file, line
    and field at fault; edge lengths below the Euclidean chord are
    rejected by the graph's lower-bound invariant with the same
    context.
    """
    network = SpatialNetwork()
    id_map: Dict[int, int] = {}
    with _open_text(nodes_path) as handle:
        for line_no, line in enumerate(handle, start=1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != 3:
                raise _parse_error(
                    nodes_path,
                    line_no,
                    f"expected 3 fields `id x y`, got {len(fields)}",
                )
            try:
                file_id = int(fields[0])
                x, y = float(fields[1]), float(fields[2])
            except ValueError as exc:
                raise _parse_error(
                    nodes_path, line_no, f"non-numeric field: {exc}"
                ) from None
            if file_id in id_map:
                raise _parse_error(
                    nodes_path, line_no, f"duplicate node id {file_id}"
                )
            id_map[file_id] = network.add_node(Point(x * scale, y * scale))
    with _open_text(edges_path) as handle:
        for line_no, line in enumerate(handle, start=1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) not in (4, 5):
                raise _parse_error(
                    edges_path,
                    line_no,
                    "expected 4 or 5 fields `id u v length [class]`, "
                    f"got {len(fields)}",
                )
            try:
                u, v = int(fields[1]), int(fields[2])
                length = float(fields[3])
            except ValueError as exc:
                raise _parse_error(
                    edges_path, line_no, f"non-numeric field: {exc}"
                ) from None
            road_class = RoadClass.SECONDARY_ROAD
            if len(fields) == 5:
                cfcc = fields[4][:2].upper()
                if cfcc not in _CFCC_CLASSES:
                    raise _parse_error(
                        edges_path,
                        line_no,
                        f"unknown CFCC class {fields[4]!r} "
                        f"(expected one of {sorted(_CFCC_CLASSES)})",
                    )
                road_class = _CFCC_CLASSES[cfcc]
            for endpoint in (u, v):
                if endpoint not in id_map:
                    raise _parse_error(
                        edges_path,
                        line_no,
                        f"edge references unknown node id {endpoint}",
                    )
            if u == v:
                raise _parse_error(
                    edges_path, line_no, f"self-loop edge on node {u}"
                )
            try:
                network.add_edge(
                    id_map[u], id_map[v], road_class, length * scale
                )
            except ValueError as exc:
                raise _parse_error(edges_path, line_no, str(exc)) from None
    return network


_CLASS_CFCC = {
    RoadClass.PRIMARY_HIGHWAY: "A1",
    RoadClass.SECONDARY_ROAD: "A2",
    RoadClass.RURAL_ROAD: "A3",
}


def write_tiger(
    network: SpatialNetwork, nodes_path: PathLike, edges_path: PathLike
) -> None:
    """Write the ``.cnode`` / ``.cedge`` pair :func:`load_tiger` reads.

    Output is byte-deterministic for a given graph: nodes in id order,
    edges in canonical-key order, ``repr``-exact floats, and gzip (when
    a path ends in ``.gz``) with a zeroed mtime and no embedded name --
    so a committed extract can be re-generated and diffed.
    """

    def _sink(path: PathLike) -> IO[str]:
        if os.fspath(path).endswith(".gz"):
            raw = open(path, "wb")
            return io.TextIOWrapper(
                gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0),
                encoding="utf-8",
            )
        return open(path, "w", encoding="utf-8")

    with _sink(nodes_path) as nodes:
        for node in sorted(network.node_ids()):
            position = network.node_position(node)
            nodes.write(f"{node} {position.x!r} {position.y!r}\n")
    with _sink(edges_path) as edges:
        ordered = sorted(network.edges(), key=lambda edge: edge.key())
        for edge_id, edge in enumerate(ordered):
            a, b = edge.key()
            cfcc = _CLASS_CFCC[edge.road_class]
            edges.write(f"{edge_id} {a} {b} {edge.length!r} {cfcc}\n")


# ----------------------------------------------------------------------
# OSM XML
# ----------------------------------------------------------------------


def load_osm_xml(
    path: PathLike,
    frame: Optional[RegionFrame] = None,
    keep_untagged_ways: bool = False,
) -> SpatialNetwork:
    """Load an OSM XML extract (``.osm``, optionally gzipped).

    Ways carrying a ``highway`` tag contribute one edge per consecutive
    ``<nd>`` pair; nodes referenced by no kept way are dropped.  Edge
    lengths are the projected chord lengths through ``frame`` (default:
    an equirectangular frame anchored at the extract's mean
    coordinate).  ``keep_untagged_ways`` also admits ways without a
    ``highway`` tag, as rural roads.

    Binary ``.pbf`` extracts are rejected up front: convert with
    ``osmium cat extract.pbf -o extract.osm`` first.
    """
    fs_path = os.fspath(path)
    with open(path, "rb") as probe:
        head = probe.read(4)
    if fs_path.endswith(".pbf") or head[:4] == b"\x00\x00\x00\x0d":
        raise ValueError(
            f"{fs_path}: OSM PBF extracts are not supported (parsing them "
            "needs a protobuf dependency); convert to XML first, e.g. "
            "`osmium cat extract.pbf -o extract.osm`"
        )
    try:
        with _open_text(path) as handle:
            tree = ElementTree.parse(handle)
    except ElementTree.ParseError as exc:
        raise ValueError(f"{fs_path}: not well-formed OSM XML: {exc}") from None
    root = tree.getroot()
    if root.tag != "osm":
        raise ValueError(
            f"{fs_path}: root element is <{root.tag}>, expected <osm>"
        )

    coords: Dict[int, Tuple[float, float]] = {}
    for element in root.iter("node"):
        try:
            osm_id = int(element.attrib["id"])
            lon = float(element.attrib["lon"])
            lat = float(element.attrib["lat"])
        except (KeyError, ValueError) as exc:
            raise ValueError(
                f"{fs_path}: <node> missing or non-numeric id/lon/lat: {exc}"
            ) from None
        coords[osm_id] = (lon, lat)

    ways: List[Tuple[List[int], RoadClass]] = []
    for way in root.iter("way"):
        highway: Optional[str] = None
        for tag in way.iter("tag"):
            if tag.attrib.get("k") == "highway":
                highway = tag.attrib.get("v", "")
        if highway is None and not keep_untagged_ways:
            continue
        refs: List[int] = []
        for nd in way.iter("nd"):
            try:
                ref = int(nd.attrib["ref"])
            except (KeyError, ValueError) as exc:
                raise ValueError(
                    f"{fs_path}: <nd> missing or non-numeric ref in way "
                    f"{way.attrib.get('id', '?')}: {exc}"
                ) from None
            if ref not in coords:
                raise ValueError(
                    f"{fs_path}: way {way.attrib.get('id', '?')} references "
                    f"node {ref} absent from the extract (truncated file?)"
                )
            refs.append(ref)
        if len(refs) < 2:
            continue
        road_class = _OSM_HIGHWAY_CLASSES.get(
            highway or "", RoadClass.RURAL_ROAD
        )
        ways.append((refs, road_class))

    if frame is None:
        if not coords:
            raise ValueError(f"{fs_path}: extract contains no <node> elements")
        lons = [lon for lon, _lat in coords.values()]
        lats = [lat for _lon, lat in coords.values()]
        frame = RegionFrame(
            "auto", sum(lons) / len(lons), sum(lats) / len(lats)
        )

    network = SpatialNetwork()
    id_map: Dict[int, int] = {}
    for refs, _road_class in ways:
        for ref in refs:
            if ref not in id_map:
                lon, lat = coords[ref]
                id_map[ref] = network.add_node(frame.project(lon, lat))
    for refs, road_class in ways:
        for a, b in zip(refs, refs[1:]):
            if a == b or network.edge_between(id_map[a], id_map[b]) is not None:
                continue
            try:
                network.add_edge(id_map[a], id_map[b], road_class)
            except ValueError:
                # Coincident nodes (duplicate survey points) produce
                # zero-length chords; skip the degenerate segment.
                continue
    return network


# ----------------------------------------------------------------------
# Deterministic downsampling + the committed extract
# ----------------------------------------------------------------------


def downsample(
    network: SpatialNetwork, target_nodes: int, seed: int = 0
) -> SpatialNetwork:
    """Grow a connected ~``target_nodes`` extract, deterministically.

    Breadth-first ball growth from a seed-chosen start inside the
    largest component, then the induced subgraph with nodes renumbered
    in sorted-id order -- a pure function of ``(network, target_nodes,
    seed)``, so the same call always reproduces the committed extract
    byte for byte (see :func:`write_tiger`).
    """
    if target_nodes < 1:
        raise ValueError("target_nodes must be positive")
    component = sorted(network.largest_component_nodes())
    if not component:
        return SpatialNetwork()
    # A Lehmer step keeps the start choice deterministic without
    # involving `random` (the module stays importable in determinism
    # audits): map the seed into the component.
    start = component[(seed * 48271 + 11) % len(component)]
    keep: List[int] = []
    seen = {start}
    frontier = [start]
    while frontier and len(keep) < target_nodes:
        next_frontier: List[int] = []
        for node in frontier:
            if len(keep) >= target_nodes:
                break
            keep.append(node)
            for neighbor, _edge in network.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    kept = set(keep)
    extract = SpatialNetwork()
    id_map: Dict[int, int] = {}
    for node in sorted(kept):
        id_map[node] = extract.add_node(network.node_position(node))
    for edge in sorted(network.edges(), key=lambda e: e.key()):
        if edge.u in kept and edge.v in kept:
            extract.add_edge(
                id_map[edge.u], id_map[edge.v], edge.road_class, edge.length
            )
    return extract


def bundled_extract_paths() -> Tuple[str, str]:
    """Filesystem paths of the committed ~5k-node LA-frame extract."""
    data_dir = os.path.join(os.path.dirname(__file__), "data")
    return (
        os.path.join(data_dir, "la_extract_5k.cnode.gz"),
        os.path.join(data_dir, "la_extract_5k.cedge.gz"),
    )


def load_bundled_extract() -> SpatialNetwork:
    """Load the committed ~5k-node extract CI benchmarks against."""
    nodes_path, edges_path = bundled_extract_paths()
    return load_tiger(nodes_path, edges_path)
