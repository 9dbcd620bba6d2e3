"""Walks in a graph: composition, node membership, quasi-simpleness, splitting.

A walk is a start node plus an adjacency-checked dart sequence. Walks live
either in the directed graph itself (forward darts only) or in its
symmetrisation (darts of both orientations); the ``symmetric`` flag records
which. All operations are pure functions over immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .graph import Dart, Graph, ValidationError, parse_dart


@dataclass(frozen=True, slots=True)
class Walk:
    """A walk from ``start`` along ``steps``.

    Invariants, enforced at construction: the first step leaves ``start``,
    each later step leaves the node the previous one entered, and in a
    non-symmetric walk every step is a forward dart.
    """

    graph: Graph
    start: int
    steps: tuple[Dart, ...] = ()
    symmetric: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        g = self.graph
        if not (0 <= self.start < g.node_count):
            raise ValidationError(f"walk start {self.start} out of range")
        at = self.start
        for i, d in enumerate(self.steps):
            if not (0 <= d.edge < g.edge_count):
                raise ValidationError(f"walk step {i}: unknown edge in {d}")
            if not self.symmetric and not d.forward:
                raise ValidationError(f"walk step {i}: reverse dart {d} in a directed walk")
            if g.tail(d) != at:
                raise ValidationError(
                    f"walk step {i}: dart {d} starts at {g.tail(d)}, expected {at}"
                )
            at = g.head(d)

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> int:
        if not self.steps:
            return self.start
        return self.graph.head(self.steps[-1])

    def node_at(self, i: int) -> int:
        """Node visited after ``i`` steps, for ``0 <= i <= length``."""
        if i == 0:
            return self.start
        return self.graph.head(self.steps[i - 1])

    def nodes(self) -> tuple[int, ...]:
        return tuple(self.node_at(i) for i in range(self.length + 1))

    def key(self) -> tuple:
        """Hashable identity of the walk as a step sequence."""
        return (self.start, self.steps)

    def __str__(self) -> str:
        return compact(self)


class Split(NamedTuple):
    """A walk divided at the first occurrence of a node."""

    prefix: Walk
    suffix: Walk


def trivial(g: Graph, x: int, symmetric: bool = False) -> Walk:
    """The one-point walk at ``x``."""
    return Walk(g, x, (), symmetric)


def single_step(g: Graph, d: Dart, symmetric: bool = False) -> Walk:
    """The one-edge walk traversing ``d``."""
    return Walk(g, g.tail(d), (d,), symmetric)


def prepend(d: Dart, w: Walk) -> Walk:
    """The walk stepping along ``d`` and then following ``w``."""
    g = w.graph
    if g.head(d) != w.start:
        raise ValueError(f"cannot prepend {d}: head {g.head(d)} != walk start {w.start}")
    return Walk(g, g.tail(d), (d,) + w.steps, w.symmetric)


def compose(w1: Walk, w2: Walk) -> Walk:
    """Concatenate two walks sharing a joint node.

    Associative; the trivial walk is a two-sided identity. Raises ValueError
    when the endpoints or universes do not line up.
    """
    if w1.graph != w2.graph:
        raise ValueError("cannot compose walks over different graphs")
    if w1.symmetric != w2.symmetric:
        raise ValueError("cannot compose walks from different universes")
    if w1.end != w2.start:
        raise ValueError(f"cannot compose: first walk ends at {w1.end}, second starts at {w2.start}")
    return Walk(w1.graph, w1.start, w1.steps + w2.steps, w1.symmetric)


def prefix_to(w: Walk, i: int) -> Walk:
    """The length-``i`` initial segment of ``w``."""
    return Walk(w.graph, w.start, w.steps[:i], w.symmetric)


def suffix_from(w: Walk, i: int) -> Walk:
    """The walk remaining after the first ``i`` steps of ``w``."""
    return Walk(w.graph, w.node_at(i), w.steps[i:], w.symmetric)


def occurs(z: int, w: Walk) -> int:
    """How many times ``z`` occurs in ``w``, final endpoint excluded.

    Counts the positions whose outgoing step leaves ``z``; the node a walk
    ends at is deliberately not counted, so a loop's closing return does not
    register as a repeat.
    """
    return sum(1 for i in range(w.length) if w.node_at(i) == z)


def membership_census(w: Walk) -> int:
    """Total occurrence count over every node of the graph.

    Summing per-node occurrences tallies each step position exactly once,
    so the census always equals the walk length.
    """
    return sum(occurs(z, w) for z in range(w.graph.node_count))


def is_quasi_simple(w: Walk) -> bool:
    """Whether no node repeats among the non-final positions of ``w``.

    Computed by peeling leading steps: a walk extended by a step from ``x``
    stays quasi-simple exactly when the rest is quasi-simple and ``x`` does
    not occur in it. The end may still coincide with one earlier node, so
    loops without inner repetitions qualify.
    """
    seen: set[int] = set()
    for i in range(w.length - 1, -1, -1):
        x = w.node_at(i)
        if x in seen:
            return False
        seen.add(x)
    return True


def is_prefix(p: Walk, w: Walk) -> bool:
    """Whether ``p`` is an initial segment of ``w`` (same start, same universe)."""
    if p.graph != w.graph or p.symmetric != w.symmetric or p.start != w.start:
        return False
    return w.steps[: p.length] == p.steps


def suffix_of(p: Walk, w: Walk) -> Walk:
    """The walk ``s`` with ``compose(p, s) == w``; requires ``is_prefix(p, w)``."""
    if not is_prefix(p, w):
        raise ValueError("suffix_of requires the first walk to be a prefix of the second")
    return suffix_from(w, p.length)


def split_at(w: Walk, y: int) -> Optional[Split]:
    """Divide ``w`` at the first occurrence of ``y``.

    Returns None when ``y`` does not occur (final endpoint excluded).
    Otherwise returns ``Split(prefix, suffix)`` with ``prefix`` ending at
    that first occurrence, ``y`` absent from ``prefix``, and
    ``compose(prefix, suffix) == w``.
    """
    for i in range(w.length):
        if w.node_at(i) == y:
            return Split(prefix_to(w, i), suffix_from(w, i))
    return None


def compact(w: Walk) -> str:
    """Compact textual form, e.g. ``0:e3+,e7-``; a trivial walk is ``0:``."""
    return f"{w.start}:" + ",".join(str(d) for d in w.steps)


def verbose(w: Walk) -> str:
    """Readable textual form, e.g. ``0 -e3> 1 -e7< 2``."""
    parts = [str(w.start)]
    for i, d in enumerate(w.steps):
        mark = ">" if d.forward else "<"
        parts.append(f"-e{d.edge}{mark} {w.node_at(i + 1)}")
    return " ".join(parts)


class WalkSpecError(ValueError):
    """Walk text that does not match ``start:dart,dart,...``; carries the bad position."""

    def __init__(self, text: str, position: int, message: str):
        self.text = text
        self.position = position
        super().__init__(f"{message} at position {position} in {text!r}")


def parse_walk(g: Graph, text: str, symmetric: bool = True) -> Walk:
    """Parse the compact walk form ``start:dart,dart,...``.

    A bare node number denotes the trivial walk. Adjacency violations and
    unknown edges surface as ValidationError from the walk constructor.
    """
    body = text.strip()
    head, sep, rest = body.partition(":")
    if not head.isdigit():
        raise WalkSpecError(text, 0, "expected a start node number")
    start = int(head)
    darts: list[Dart] = []
    if sep and rest:
        offset = len(head) + 1
        for piece in rest.split(","):
            try:
                darts.append(parse_dart(piece))
            except ValidationError:
                raise WalkSpecError(text, offset, f"expected a dart literal, got {piece!r}") from None
            offset += len(piece) + 1
    return Walk(g, start, tuple(darts), symmetric)
