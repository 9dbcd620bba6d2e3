"""Rotation-system embeddings: face tracing, Euler characteristic, boundaries.

A rotation map equips every node with a cyclic order on its incident darts,
which determines a cellular embedding of the graph on an orientable
surface. Faces are the orbits of the tracing successor

    next(d) = rotation_at(head(d)).successor(reverse(d))

and together their boundaries use every dart exactly once; a map checks its
orders before it traces, so ``next`` is a permutation. One ordered pass
traces each face from its smallest dart. Between two positions on one face
boundary there are two walks in the symmetrised graph, one with and one
against tracing order; ``_boundary_segments`` cuts their darts, the segment
pairs walk homotopy may exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .graph import (
    CyclicOrder,
    Dart,
    Graph,
    ValidationError,
    incident_darts,
    symmetrise,
    validate_cyclic_order,
)


class RotationError(ValidationError):
    """A node's rotation list is not a permutation of its incident darts."""

    def __init__(self, node: int, issues):
        self.node = node
        self.issues = tuple(issues)
        detail = "; ".join(str(i) for i in self.issues)
        super().__init__(f"invalid rotation at node {node}: {detail}")


@dataclass(frozen=True, slots=True)
class RotationMap:
    """A graph with a cyclic order of each node's incident darts, checked when built.

    Orders may be any dart sequences and are stored as ``CyclicOrder``.
    ``faces`` is traced once, after the check, and takes no part in comparison.
    """

    graph: Graph
    rotations: tuple[CyclicOrder, ...]
    faces: tuple[Face, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.graph
        if len(self.rotations) != g.node_count:
            raise ValidationError(f"expected one order per node, got {len(self.rotations)}")
        for x, listed in enumerate(self.rotations):
            issues = validate_cyclic_order(incident_darts(g, x), listed)
            if issues:
                raise RotationError(x, issues)
        object.__setattr__(self, "rotations", tuple(map(CyclicOrder, self.rotations)))
        object.__setattr__(self, "faces", trace_faces(self))

    def rotation_at(self, x: int) -> CyclicOrder:
        return self.rotations[x]

    def face_successor(self, d: Dart) -> Dart:
        """The dart after ``d`` along its face boundary."""
        return self.rotations[self.graph.head(d)].successor(d.reverse())


def build_rotation_map(g: Graph, rotation: Mapping[int, Sequence[Dart]]) -> RotationMap:
    """Assemble a map from per-node dart orders, which ``RotationMap`` checks.

    Every node must be covered by a list that is a permutation of its
    incident darts; nodes without incident darts may be omitted. Raises
    RotationError naming the node and each defect distinctly.
    """
    for x in rotation:
        if not (0 <= x < g.node_count):
            raise ValidationError(f"rotation given for unknown node {x}")
    return RotationMap(g, tuple(rotation.get(x, ()) for x in range(g.node_count)))


@dataclass(frozen=True, slots=True)
class Face:
    """A face of the embedding: one orbit of the tracing successor.

    The boundary is cyclic; it starts at its smallest dart, where tracing
    started, so face identities are canonical for a given map.
    """

    id: int
    boundary: tuple[Dart, ...]

    def __len__(self) -> int:
        return len(self.boundary)


def trace_faces(m: RotationMap) -> tuple[Face, ...]:
    """All faces of the map; their boundaries partition the dart universe.

    A pass over the darts in (edge, orientation) order traces the orbit of each
    dart not yet seen, which is its orbit's smallest: every smaller dart lies in
    an orbit already traced. So faces start at, and are numbered by, that dart.
    """
    seen: set[Dart] = set()
    faces: list[Face] = []
    for start in symmetrise(m.graph):
        if start in seen:
            continue
        orbit = [start]
        d = m.face_successor(start)
        while d != start:
            orbit.append(d)
            d = m.face_successor(d)
        seen.update(orbit)
        faces.append(Face(len(faces), tuple(orbit)))
    return tuple(faces)


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


def _boundary_segments(
    m: RotationMap, face: int, a: int, b: int
) -> tuple[tuple[Dart, ...], tuple[Dart, ...]]:
    """The darts ``(cw, ccw)`` of the two walks from position ``a`` to ``b`` of ``face``.

    ``cw`` is never empty: with ``a == b`` it is the whole boundary and ``ccw`` is
    trivial. Raises ValueError for a face or position the map does not have.
    """
    if not (0 <= face < len(m.faces)):
        raise ValueError(f"no face {face}")
    boundary = m.faces[face].boundary
    n = len(boundary)
    for pos in (a, b):
        if not (0 <= pos < n):
            raise ValueError(f"anchor position {pos} outside boundary of face {face}")
    cw = tuple(boundary[(a + j) % n] for j in range((b - a) % n or n))
    ccw = tuple(boundary[(a - 1 - j) % n].reverse() for j in range((a - b) % n))
    return cw, ccw

