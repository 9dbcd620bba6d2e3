"""Exhaustive walk enumeration and counting.

Every enumeration is one iterative depth-first search over the graph's dart
lists (``_tree``), read per entry point; a ``Walk`` is built only for each
result. Quasi-simple walks between two nodes form a finite set: there the
search never steps on from a node the path already stepped from, so no such
walk is longer than the node count. A separate counter handles the
unrestricted (infinite in total, finite per length) walk population.

Order is deterministic everywhere: ascending length, walks of one length
lexicographic by (edge id, orientation) sequence.
"""

from __future__ import annotations

from typing import Iterator

from .graph import Dart, Graph, _check_node, incident_darts, out_darts
from .walk import Walk


def _tree(
    g: Graph, x: int, y: int | None, symmetric: bool, max_len: int, quasi: bool
) -> list[tuple[Dart, ...]]:
    """Step tuples of the walks from ``x`` up to ``max_len`` steps, shortest first.

    A walk is recorded whenever the search stands at ``y`` (anywhere when
    None), before it asks whether to step on, so a closing loop counts. It
    steps on only below ``max_len`` and, with ``quasi``, only from nodes not
    yet stepped from. Darts go in (edge, orientation) order, so each length
    is lexicographic, which the stable sort by length keeps.
    """
    if max_len < 0:
        raise ValueError("walk length must be non-negative")
    _check_node(g, x)
    if y is not None:
        _check_node(g, y)
    step_darts = incident_darts if symmetric else out_darts
    found: list[tuple[Dart, ...]] = []
    # (node, steps taken to reach it, nodes the walk has stepped on from)
    stack: list[tuple[int, tuple[Dart, ...], frozenset[int]]] = [(x, (), frozenset())]
    while stack:
        at, steps, seen = stack.pop()
        if y is None or at == y:
            found.append(steps)
        if len(steps) < max_len and not (quasi and at in seen):
            seen = seen | {at} if quasi else seen
            for d in reversed(step_darts(g, at)):
                stack.append((g.head(d), steps + (d,), seen))
    found.sort(key=len)
    return found


def enumerate_all_qswalks(
    g: Graph, x: int, y: int | None = None, symmetric: bool = False
) -> list[Walk]:
    """Every quasi-simple walk from ``x`` (to ``y`` when given), shortest first."""
    return [Walk(g, x, steps, symmetric) for steps in _tree(g, x, y, symmetric, g.node_count, True)]


def walk_counts(g: Graph, y: int | None = None, symmetric: bool = False) -> Iterator[list[int]]:
    """Walk counts for the lengths 0, 1, 2, ... in turn, without end.

    Entry ``v`` of the ``n``-th list is the number of all walks (quasi-simple
    or not) of length ``n`` from ``v`` to ``y``, or to any node when None.
    Computed by the length recurrence: one length-0 walk at each end, and a
    length n+1 walk is a step from ``v`` to some ``k`` followed by a length-n
    walk from ``k``.
    """
    if y is not None:
        _check_node(g, y)
    step_darts = incident_darts if symmetric else out_darts
    counts = [1 if y is None or v == y else 0 for v in range(g.node_count)]
    while True:
        yield counts
        counts = [sum(counts[g.head(d)] for d in step_darts(g, v)) for v in range(g.node_count)]


def iter_walks_up_to(
    g: Graph, max_len: int, x: int, y: int | None = None, symmetric: bool = False
) -> Iterator[Walk]:
    """All walks of length at most ``max_len``, shortest first.

    The whole search runs before the first walk is yielded.
    """
    for steps in _tree(g, x, y, symmetric, max_len, False):
        yield Walk(g, x, steps, symmetric)
