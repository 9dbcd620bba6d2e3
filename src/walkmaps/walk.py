"""Walks in a graph: composition, node membership, quasi-simpleness, text forms.

A walk is a start node plus an adjacency-checked dart sequence. Walks live
either in the directed graph itself (forward darts only) or in its
symmetrisation (darts of both orientations); the ``symmetric`` flag records
which. Functions of the visited nodes read ``Walk.nodes``, one pass over the
steps. All operations are pure functions over immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Node visited after ``i`` steps; raises IndexError unless ``0 <= i <= length``."""
        if not (0 <= i <= len(self.steps)):
            raise IndexError(f"walk of length {self.length} has no node at {i}")
        return self.graph.head(self.steps[i - 1]) if i else self.start

    def nodes(self) -> tuple[int, ...]:
        """The ``length + 1`` nodes the walk visits, in order."""
        return (self.start, *map(self.graph.head, self.steps))

    def key(self) -> tuple:
        """Hashable identity of the walk as a step sequence."""
        return (self.start, self.steps)

    def __str__(self) -> str:
        return compact(self)


def trivial(g: Graph, x: int, symmetric: bool = False) -> Walk:
    """The one-point walk at ``x``."""
    return Walk(g, x, (), symmetric)


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


def occurs(z: int, w: Walk) -> int:
    """How many times ``z`` occurs in ``w``, final endpoint excluded.

    Counts the positions whose outgoing step leaves ``z``; the node a walk
    ends at is deliberately not counted, so a loop's closing return does not
    register as a repeat.
    """
    return w.nodes()[:-1].count(z)


def membership_census(w: Walk) -> int:
    """Total occurrence count over every node of the graph.

    Summing per-node occurrences tallies each step position exactly once,
    so the census always equals the walk length.
    """
    return sum(occurs(z, w) for z in range(w.graph.node_count))


def is_quasi_simple(w: Walk) -> bool:
    """Whether no node repeats among the non-final positions of ``w``.

    Equal to the definition by peeling leading steps: a walk extended by a
    step from ``x`` stays quasi-simple exactly when the rest is quasi-simple
    and ``x`` does not occur in it. The end may still coincide with one
    earlier node, so loops without inner repetitions qualify.
    """
    left = w.nodes()[:-1]
    return len(set(left)) == len(left)


def compact(w: Walk) -> str:
    """Compact textual form, e.g. ``0:e3+,e7-``; a trivial walk is ``0:``."""
    return f"{w.start}:" + ",".join(str(d) for d in w.steps)


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
    Error positions index ``text``, leading blanks included.
    """
    lead = len(text) - len(text.lstrip())
    head, sep, rest = text.strip().partition(":")
    if not head.isdecimal():
        raise WalkSpecError(text, lead, "expected a start node number")
    start = int(head)
    darts: list[Dart] = []
    if sep and rest:
        offset = lead + len(head) + 1
        for piece in rest.split(","):
            try:
                darts.append(parse_dart(piece))
            except ValidationError:
                raise WalkSpecError(text, offset, f"expected a dart literal, got {piece!r}") from None
            offset += len(piece) + 1
    return Walk(g, start, tuple(darts), symmetric)
