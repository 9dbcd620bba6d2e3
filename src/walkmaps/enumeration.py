"""Exhaustive walk enumeration and counting.

Quasi-simple walks between two nodes form a finite set: no such walk is
longer than the node count. Enumeration is one depth-first search from the
start over the graph's dart lists, never stepping on from a node already on
the current path, so the output is complete and duplicate-free by
construction and a ``Walk`` is built only for each result. A separate
counter handles the unrestricted (infinite in total, finite per length)
walk population.

Order is deterministic everywhere: ascending length, walks of one length
lexicographic by (edge id, orientation) sequence.
"""

from __future__ import annotations

from typing import Iterator

from .graph import Dart, Graph, _check_node, incident_darts, out_darts
from .walk import Walk


def _step_darts(g: Graph, x: int, symmetric: bool) -> tuple[Dart, ...]:
    return incident_darts(g, x) if symmetric else out_darts(g, x)


def enumerate_qswalks_of_length(
    g: Graph, m: int, x: int, y: int, symmetric: bool = False
) -> list[Walk]:
    """Exactly the quasi-simple walks of length ``m`` from ``x`` to ``y``."""
    return [w for w in enumerate_all_qswalks(g, x, y, symmetric) if w.length == m]


def enumerate_all_qswalks(g: Graph, x: int, y: int, symmetric: bool = False) -> list[Walk]:
    """Every quasi-simple walk from ``x`` to ``y``, shortest first.

    The search records a result whenever it stands at ``y``, before asking
    whether the node is already on the path, so a walk closing a loop at
    ``y`` counts; it steps on only from nodes not yet on the path. Longer
    walks than node_count cannot arise, since a walk of length m visits m
    distinct non-final nodes. Darts are tried in (edge, orientation) order,
    so each length's walks come out lexicographic.
    """
    _check_node(g, x)
    _check_node(g, y)
    found: list[list[Walk]] = [[] for _ in range(g.node_count + 1)]
    # (node, steps taken to reach it, nodes the walk has stepped on from)
    stack: list[tuple[int, tuple[Dart, ...], frozenset[int]]] = [(x, (), frozenset())]
    while stack:
        at, steps, seen = stack.pop()
        if at == y:
            found[len(steps)].append(Walk(g, x, steps, symmetric))
        if at not in seen:
            seen |= {at}
            for d in reversed(_step_darts(g, at, symmetric)):
                stack.append((g.head(d), steps + (d,), seen))
    return [w for bucket in found for w in bucket]


def count_walks_of_length(g: Graph, n: int, x: int, y: int, symmetric: bool = False) -> int:
    """Number of all walks (quasi-simple or not) of length ``n`` from ``x`` to ``y``.

    Computed by the length recurrence: one length-0 walk when x == y, and a
    length n+1 walk is an edge from x to some k followed by a length-n walk
    from k to y.
    """
    if n < 0:
        raise ValueError("walk length must be non-negative")
    _check_node(g, x)
    _check_node(g, y)
    # counts[v] = number of walks of the current length from v to y
    counts = [1 if v == y else 0 for v in range(g.node_count)]
    for _ in range(n):
        counts = [
            sum(counts[g.head(d)] for d in _step_darts(g, v, symmetric))
            for v in range(g.node_count)
        ]
    return counts[x]


def iter_walks_of_length(
    g: Graph, n: int, x: int, y: int | None = None, symmetric: bool = False
) -> Iterator[Walk]:
    """All walks of length exactly ``n`` from ``x`` (to ``y`` when given), lexicographic."""
    _check_node(g, x)
    if y is not None:
        _check_node(g, y)

    def rec(prefix_darts: tuple, at: int, remaining: int) -> Iterator[Walk]:
        if remaining == 0:
            if y is None or at == y:
                yield Walk(g, x, prefix_darts, symmetric)
            return
        for d in _step_darts(g, at, symmetric):
            yield from rec(prefix_darts + (d,), g.head(d), remaining - 1)

    yield from rec((), x, n)


def iter_walks_up_to(
    g: Graph, max_len: int, x: int, y: int | None = None, symmetric: bool = False
) -> Iterator[Walk]:
    """All walks of length at most ``max_len``, shortest first."""
    for n in range(max_len + 1):
        yield from iter_walks_of_length(g, n, x, y, symmetric)
