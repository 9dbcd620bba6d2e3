"""Hypothesis strategies for small multigraphs and walks in them."""

from __future__ import annotations

from hypothesis import strategies as st

from walkmaps import Graph, Walk, build_graph, incident_darts, out_darts


@st.composite
def graphs(draw, max_nodes: int = 5, max_edges: int = 8) -> Graph:
    n = draw(st.integers(1, max_nodes))
    m = draw(st.integers(0, max_edges))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    ]
    return build_graph(n, edges)


def _steps_from(draw, g: Graph, at: int, max_len: int, sym: bool) -> tuple:
    """Up to ``max_len`` drawn darts, each leaving the node the last one entered."""
    steps = []
    for _ in range(draw(st.integers(0, max_len))):
        options = incident_darts(g, at) if sym else out_darts(g, at)
        if not options:
            break
        d = draw(st.sampled_from(list(options)))
        steps.append(d)
        at = g.head(d)
    return tuple(steps)


@st.composite
def walks_on(draw, g: Graph, max_len: int = 8, symmetric: bool = True) -> Walk:
    x = draw(st.integers(0, g.node_count - 1))
    return Walk(g, x, _steps_from(draw, g, x, max_len, symmetric), symmetric)


@st.composite
def graph_walks(draw, max_len: int = 8, symmetric: bool | None = None) -> Walk:
    g = draw(graphs())
    sym = draw(st.booleans()) if symmetric is None else symmetric
    return draw(walks_on(g, max_len, sym))


@st.composite
def composable_walk_pairs(draw, max_len: int = 5) -> tuple[Walk, Walk]:
    first = draw(graph_walks(max_len=max_len))
    g = first.graph
    steps = _steps_from(draw, g, first.end, max_len, first.symmetric)
    return first, Walk(g, first.end, steps, first.symmetric)
