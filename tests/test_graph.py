"""Graph construction, symmetrisation, incident darts, cyclic order validation."""

from __future__ import annotations

import pytest
from hypothesis import given

from walkmaps import (
    CyclicOrder,
    Dart,
    EdgeRecord,
    Graph,
    ValidationError,
    build_graph,
    incident_darts,
    is_connected,
    out_darts,
    parse_dart,
    symmetrise,
    validate_cyclic_order,
)

from .fixtures import digon_graph, loop1_graph, triangle_graph
from .strategies import graphs


def test_build_graph_assigns_dense_ids_in_order():
    g = triangle_graph()
    assert [e.id for e in g.edges] == [0, 1, 2]
    assert [(e.source, e.target) for e in g.edges] == [(0, 1), (1, 2), (2, 0)]


def test_build_graph_rejects_bad_endpoint_naming_edge_index():
    with pytest.raises(ValidationError, match="edge 1"):
        build_graph(2, [(0, 1), (0, 5)])


@pytest.mark.parametrize(
    "edges",
    [
        # permuted ids: node 0 would list e1+ as an out-dart whose tail is 1
        (EdgeRecord(1, 0, 1), EdgeRecord(0, 1, 0)),
        (EdgeRecord(0, 0, 2),),
        (EdgeRecord(0, -1, 0),),
    ],
    ids=["permuted", "target-out-of-range", "negative-source"],
)
def test_graph_constructor_rejects_bad_edge_records(edges):
    with pytest.raises(ValidationError, match="edge 0"):
        Graph(2, edges)


@pytest.mark.parametrize("node_count", [-1, -2])
def test_graph_rejects_a_negative_node_count(node_count):
    with pytest.raises(ValidationError, match="node count"):
        build_graph(node_count, [])
    with pytest.raises(ValidationError, match="node count"):
        Graph(node_count, ())


def test_loop_and_parallel_edges_are_allowed():
    build_graph(1, [(0, 0)])
    build_graph(2, [(0, 1), (0, 1)])


def test_symmetrise_loop1():
    g = loop1_graph()
    darts = symmetrise(g)
    assert len(darts) == 2
    assert all(g.tail(d) == 0 and g.head(d) == 0 for d in darts)


def test_symmetrise_counts():
    assert len(symmetrise(triangle_graph())) == 6
    assert len(symmetrise(digon_graph())) == 4


def test_reverse_is_an_involution():
    for d in symmetrise(triangle_graph()):
        assert d.reverse().reverse() == d
        assert d.reverse() != d


def test_dart_tail_head():
    g = digon_graph()
    d = Dart(0, True)
    assert (g.tail(d), g.head(d)) == (0, 1)
    assert (g.tail(d.reverse()), g.head(d.reverse())) == (1, 0)


def test_incident_darts_examples():
    assert incident_darts(loop1_graph(), 0) == (Dart(0, True), Dart(0, False))
    assert set(incident_darts(triangle_graph(), 0)) == {Dart(0, True), Dart(2, False)}
    assert set(incident_darts(digon_graph(), 1)) == {Dart(0, False), Dart(1, False)}


def test_incident_darts_rejects_bad_node():
    for darts_at in (incident_darts, out_darts):
        for x in (3, 1, -1):
            with pytest.raises(ValidationError):
                darts_at(loop1_graph(), x)


@given(graphs())
def test_dart_lists_match_an_edge_scan(g):
    fresh = build_graph(g.node_count, [(e.source, e.target) for e in g.edges])
    for x in range(g.node_count):
        assert out_darts(g, x) == tuple(Dart(e.id) for e in g.edges if e.source == x)
        scan = []
        for e in g.edges:
            if e.source == x:
                scan.append(Dart(e.id, True))
            if e.target == x:
                scan.append(Dart(e.id, False))
        assert incident_darts(g, x) == tuple(scan)
    # the lists, once built, take no part in equality or hashing
    assert g == fresh and hash(g) == hash(fresh)


@given(graphs())
def test_incident_darts_partition_the_dart_universe(g):
    total = sum(len(incident_darts(g, x)) for x in range(g.node_count))
    assert total == 2 * g.edge_count
    seen = []
    for x in range(g.node_count):
        for d in incident_darts(g, x):
            assert g.tail(d) == x
            seen.append(d)
    assert sorted(seen, key=lambda d: d.sort_key) == sorted(
        symmetrise(g), key=lambda d: d.sort_key
    )


def test_validate_cyclic_order_accepts_the_two_element_cycle():
    darts = incident_darts(loop1_graph(), 0)
    assert validate_cyclic_order(darts, [Dart(0, True), Dart(0, False)]) == ()


def test_validate_cyclic_order_reports_duplicate():
    darts = incident_darts(loop1_graph(), 0)
    issues = validate_cyclic_order(darts, [Dart(0, True), Dart(0, True)])
    assert any(i.kind == "duplicate" for i in issues)


def test_validate_cyclic_order_reports_missing_and_foreign_distinctly():
    expected = {Dart(0, True), Dart(0, False), Dart(1, True)}
    issues = validate_cyclic_order(expected, [Dart(0, True), Dart(0, False)])
    assert [i.kind for i in issues] == ["missing"]
    assert issues[0].dart == Dart(1, True)

    issues = validate_cyclic_order(
        {Dart(0, True), Dart(0, False)}, [Dart(0, True), Dart(0, False), Dart(9, True)]
    )
    assert [(i.kind, i.dart) for i in issues] == [("foreign", Dart(9, True))]


def test_cyclic_order_successor_has_full_order():
    order = CyclicOrder((Dart(0, True), Dart(1, True), Dart(2, True)))
    for start in order.elements:
        seen = [start]
        d = order.successor(start)
        while d != start:
            seen.append(d)
            d = order.successor(d)
        assert len(seen) == len(order)
        assert set(seen) == set(order.elements)


def test_cyclic_order_rejects_duplicates():
    with pytest.raises(ValidationError):
        CyclicOrder((Dart(0, True), Dart(0, True)))


def test_parse_dart_both_spellings():
    assert parse_dart("e3+") == Dart(3, True)
    assert parse_dart("7-") == Dart(7, False)
    with pytest.raises(ValidationError):
        parse_dart("x1+")


def test_is_connected():
    assert is_connected(triangle_graph())
    assert not is_connected(build_graph(2, []))
    assert is_connected(build_graph(1, []))
    assert not is_connected(build_graph(0, []))
