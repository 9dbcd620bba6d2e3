"""Rotation-system embeddings: face tracing, Euler characteristic, boundaries.

A rotation map equips every node with a cyclic order on its incident darts,
which determines a cellular embedding of the graph on an orientable
surface. Faces are the orbits of the tracing successor

    next(d) = rotation_at(head(d)).successor(reverse(d))

and together their boundaries use every dart exactly once. Between two
positions on one face boundary there are two walks in the symmetrised
graph, one with the tracing order and one against it; these are the
segment pairs that walk homotopy may exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from .graph import (
    CyclicOrder,
    Dart,
    Graph,
    ValidationError,
    incident_darts,
    validate_cyclic_order,
)
from .walk import Walk


class RotationError(ValidationError):
    """A node's rotation list is not a permutation of its incident darts."""

    def __init__(self, node: int, issues):
        self.node = node
        self.issues = tuple(issues)
        detail = "; ".join(str(i) for i in self.issues)
        super().__init__(f"invalid rotation at node {node}: {detail}")


@dataclass(frozen=True, slots=True)
class RotationMap:
    """A graph together with a validated cyclic order at every node.

    ``faces`` is traced once, when the map is built, and takes no part in
    comparison.
    """

    graph: Graph
    rotations: tuple[CyclicOrder, ...]
    faces: tuple[Face, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faces", trace_faces(self))

    def rotation_at(self, x: int) -> CyclicOrder:
        return self.rotations[x]

    def face_successor(self, d: Dart) -> Dart:
        """The dart after ``d`` along its face boundary."""
        return self.rotations[self.graph.head(d)].successor(d.reverse())


def build_rotation_map(g: Graph, rotation: Mapping[int, Sequence[Dart]]) -> RotationMap:
    """Validate per-node dart orders against the incident sets and assemble a map.

    Every node must be covered by a list that is a permutation of its
    incident darts; nodes without incident darts may be omitted. Raises
    RotationError naming the node and each defect distinctly.
    """
    for x in rotation:
        if not (0 <= x < g.node_count):
            raise ValidationError(f"rotation given for unknown node {x}")
    orders = []
    for x in range(g.node_count):
        listed = tuple(rotation.get(x, ()))
        issues = validate_cyclic_order(incident_darts(g, x), listed)
        if issues:
            raise RotationError(x, issues)
        orders.append(CyclicOrder(listed))
    return RotationMap(g, tuple(orders))


@dataclass(frozen=True, slots=True)
class Face:
    """A face of the embedding: one orbit of the tracing successor.

    The boundary is cyclic; it is stored rotated so its smallest dart comes
    first, making face identities independent of where tracing started.
    """

    id: int
    boundary: tuple[Dart, ...]

    def __len__(self) -> int:
        return len(self.boundary)


class BoundaryAnchor(NamedTuple):
    """A position on a face boundary (faces of general maps may repeat nodes)."""

    face: int
    position: int


class BoundaryWalks(NamedTuple):
    cw: Walk
    ccw: Walk


def trace_faces(m: RotationMap) -> tuple[Face, ...]:
    """All faces of the map; their boundaries partition the dart universe.

    Faces are numbered in order of their smallest contained dart, so the
    result is canonical for a given map.
    """
    g = m.graph
    pending = set()
    for e in g.edges:
        pending.add(Dart(e.id, True))
        pending.add(Dart(e.id, False))
    orbits: list[tuple[Dart, ...]] = []
    for start in sorted(pending, key=lambda d: d.sort_key):
        if start not in pending:
            continue
        orbit = [start]
        pending.discard(start)
        d = m.face_successor(start)
        while d != start:
            orbit.append(d)
            pending.discard(d)
            d = m.face_successor(d)
        low = min(range(len(orbit)), key=lambda i: orbit[i].sort_key)
        orbits.append(tuple(orbit[low:] + orbit[:low]))
    orbits.sort(key=lambda b: b[0].sort_key)
    return tuple(Face(i, b) for i, b in enumerate(orbits))


def euler_characteristic(m: RotationMap) -> int:
    """V - E + F for the embedding defined by the map.

    A node without incident darts is an isolated point, a sphere of its
    own, and counts as one face. Equals 2 exactly on sphere embeddings of
    connected graphs; check connectivity separately before reading it as a
    sphericity verdict.
    """
    g = m.graph
    points = sum(1 for r in m.rotations if not r.elements)
    return g.node_count - g.edge_count + len(m.faces) + points


def _cw_steps(boundary: tuple[Dart, ...], a: int, b: int) -> tuple[Dart, ...]:
    n = len(boundary)
    k = (b - a) % n
    if k == 0 and a == b:
        k = n  # same anchor: the full boundary loop
    return tuple(boundary[(a + j) % n] for j in range(k))


def _ccw_steps(boundary: tuple[Dart, ...], a: int, b: int) -> tuple[Dart, ...]:
    n = len(boundary)
    k = (a - b) % n  # same anchor: the trivial walk
    return tuple(boundary[(a - 1 - j) % n].reverse() for j in range(k))


def boundary_walks(m: RotationMap, a: BoundaryAnchor, b: BoundaryAnchor) -> BoundaryWalks:
    """The two boundary walks from anchor ``a`` to anchor ``b`` of one face.

    ``cw`` reads the boundary darts in tracing order, ``ccw`` runs against
    tracing order on reversed darts. Both start at the node under ``a`` and
    end at the node under ``b``. With equal anchors, ``cw`` is the full
    boundary loop and ``ccw`` the trivial walk.
    """
    if a.face != b.face:
        raise ValueError(f"anchors lie on different faces ({a.face} != {b.face})")
    if not (0 <= a.face < len(m.faces)):
        raise ValueError(f"no face {a.face}")
    boundary = m.faces[a.face].boundary
    for anchor in (a, b):
        if not (0 <= anchor.position < len(boundary)):
            raise ValueError(f"anchor position {anchor.position} outside boundary")
    g = m.graph
    start = g.tail(boundary[a.position])
    cw = Walk(g, start, _cw_steps(boundary, a.position, b.position), symmetric=True)
    ccw = Walk(g, start, _ccw_steps(boundary, a.position, b.position), symmetric=True)
    return BoundaryWalks(cw, ccw)
