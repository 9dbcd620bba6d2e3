"""Finite directed multigraphs, their darts, and per-node cyclic orders."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence


class ValidationError(ValueError):
    """Structural validation failure in graph, walk, or rotation data."""


@dataclass(frozen=True, slots=True)
class EdgeRecord:
    """Directed edge with a dense integer identifier."""

    id: int
    source: int
    target: int


@dataclass(frozen=True, slots=True)
class Dart:
    """One of the two oriented traversals of an edge.

    A forward dart runs source -> target, a reverse dart target -> source.
    Every edge contributes exactly one of each, so the dart universe of a
    graph realizes its symmetrisation.
    """

    edge: int
    forward: bool = True

    def reverse(self) -> Dart:
        return Dart(self.edge, not self.forward)

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.edge, 0 if self.forward else 1)

    def __str__(self) -> str:
        return f"e{self.edge}{'+' if self.forward else '-'}"


_DART_RE = re.compile(r"^e?(\d+)([+-])$")


def parse_dart(text: str) -> Dart:
    """Parse a dart literal such as ``e3+`` or ``7-``."""
    m = _DART_RE.match(text.strip())
    if m is None:
        raise ValidationError(f"invalid dart literal {text!r}")
    return Dart(int(m.group(1)), m.group(2) == "+")


@dataclass(frozen=True, slots=True)
class Graph:
    """Finite directed multigraph with dense node and edge identifiers.

    Immutable after construction; parallel edges and self-loops are allowed.
    """

    node_count: int
    edges: tuple[EdgeRecord, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def tail(self, d: Dart) -> int:
        e = self.edges[d.edge]
        return e.source if d.forward else e.target

    def head(self, d: Dart) -> int:
        e = self.edges[d.edge]
        return e.target if d.forward else e.source


def build_graph(node_count: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph, assigning dense edge ids in input order.

    Raises ValidationError naming the offending edge index when an endpoint
    is out of range.
    """
    records = []
    for i, (s, t) in enumerate(edge_list):
        if not (0 <= s < node_count) or not (0 <= t < node_count):
            raise ValidationError(
                f"edge {i}: endpoint ({s}, {t}) out of range for {node_count} nodes"
            )
        records.append(EdgeRecord(i, s, t))
    return Graph(node_count, tuple(records))


def symmetrise(g: Graph) -> tuple[Dart, ...]:
    """The indexed dart universe of ``g``: one forward and one reverse dart per edge."""
    out: list[Dart] = []
    for e in g.edges:
        out.append(Dart(e.id, True))
        out.append(Dart(e.id, False))
    return tuple(out)


def _check_node(g: Graph, x: int) -> None:
    if not (0 <= x < g.node_count):
        raise ValidationError(f"node {x} out of range for {g.node_count} nodes")


def out_darts(g: Graph, x: int) -> tuple[Dart, ...]:
    """Forward darts leaving ``x``: the steps available to directed walks."""
    _check_node(g, x)
    return tuple(Dart(e.id, True) for e in g.edges if e.source == x)


def incident_darts(g: Graph, x: int) -> tuple[Dart, ...]:
    """Darts based at ``x`` in the symmetrised graph, sorted by (edge, orientation).

    A self-loop at ``x`` contributes both of its darts.
    """
    _check_node(g, x)
    out: list[Dart] = []
    for e in g.edges:
        if e.source == x:
            out.append(Dart(e.id, True))
        if e.target == x:
            out.append(Dart(e.id, False))
    return tuple(sorted(out, key=lambda d: d.sort_key))


def is_connected(g: Graph) -> bool:
    """Whether ``g`` is connected when edge directions are ignored.

    The graph without nodes is not: it has no component at all.
    """
    if g.node_count <= 1:
        return g.node_count == 1
    adjacency: list[list[int]] = [[] for _ in range(g.node_count)]
    for e in g.edges:
        adjacency[e.source].append(e.target)
        adjacency[e.target].append(e.source)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == g.node_count


@dataclass(frozen=True, slots=True)
class RotationIssue:
    """One defect found while checking a cyclic order against an incident dart set."""

    kind: str  # "duplicate" | "foreign" | "missing"
    dart: Dart

    def __str__(self) -> str:
        return f"{self.kind} dart {self.dart}"


def validate_cyclic_order(
    darts_at_node: Iterable[Dart], order: Sequence[Dart]
) -> tuple[RotationIssue, ...]:
    """Check that ``order`` lists exactly the given incident darts, each once.

    Returns one issue per defect: ``duplicate`` for a repeated entry,
    ``foreign`` for an entry outside the incident set, ``missing`` for an
    incident dart absent from the order. An empty result means the order is
    a valid single cycle: with a duplicate-free list read circularly, the
    successor iteration necessarily visits all elements before returning.
    """
    expected = set(darts_at_node)
    issues: list[RotationIssue] = []
    seen: set[Dart] = set()
    for d in order:
        if d in seen:
            issues.append(RotationIssue("duplicate", d))
            continue
        seen.add(d)
        if d not in expected:
            issues.append(RotationIssue("foreign", d))
    for d in sorted(expected - seen, key=lambda d: d.sort_key):
        issues.append(RotationIssue("missing", d))
    return tuple(issues)


@dataclass(frozen=True, slots=True)
class CyclicOrder:
    """A cyclic successor order, stored as a sequence read circularly."""

    elements: tuple[Dart, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise ValidationError(f"cyclic order has duplicate elements: {self.elements}")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, d: Dart) -> bool:
        return d in self.elements

    def successor(self, d: Dart) -> Dart:
        i = self.elements.index(d)
        return self.elements[(i + 1) % len(self.elements)]

    def predecessor(self, d: Dart) -> Dart:
        i = self.elements.index(d)
        return self.elements[(i - 1) % len(self.elements)]
