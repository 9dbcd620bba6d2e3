"""Walk construction, composition, membership, quasi-simpleness, text forms."""

from __future__ import annotations

import pytest
from hypothesis import given

from walkmaps import (
    Dart,
    ValidationError,
    Walk,
    compact,
    compose,
    is_quasi_simple,
    membership_census,
    occurs,
    parse_walk,
    trivial,
)

from .fixtures import digon_graph, pathloop_graph, triangle_graph
from .oracles import census_quasi
from .strategies import composable_walk_pairs, graph_walks


def tri_cycle():
    g = triangle_graph()
    return Walk(g, 0, (Dart(0), Dart(1), Dart(2)))


def pathloop_walk():
    g = pathloop_graph()
    return Walk(g, 0, (Dart(0), Dart(1), Dart(2)))


def test_trivial_walk():
    w = trivial(triangle_graph(), 0)
    assert w.length == 0
    assert w.start == w.end == 0


def test_walk_checks_adjacency():
    g = triangle_graph()
    with pytest.raises(ValidationError, match="step 1"):
        Walk(g, 0, (Dart(0), Dart(2)))


@pytest.mark.parametrize("i", [-1, 3])
def test_node_at_rejects_positions_outside_the_walk(i):
    # node_at(-1) used to read the node before the last step, not the end
    w = Walk(triangle_graph(), 0, (Dart(0), Dart(1)))
    assert w.nodes() == (0, 1, 2)
    with pytest.raises(IndexError):
        w.node_at(i)


def test_walk_checks_start():
    g = triangle_graph()
    with pytest.raises(ValidationError):
        Walk(g, 1, (Dart(0),))


def test_directed_walk_rejects_reverse_darts():
    g = triangle_graph()
    with pytest.raises(ValidationError, match="reverse dart"):
        Walk(g, 1, (Dart(0, False),))
    Walk(g, 1, (Dart(0, False),), symmetric=True)


def test_compose_identity_and_adjacency():
    g = triangle_graph()
    w = Walk(g, 0, (Dart(0), Dart(1)))
    assert compose(trivial(g, 0), w) == w
    assert compose(w, trivial(g, 2)) == w
    a = Walk(g, 0, (Dart(0),))
    b = Walk(g, 1, (Dart(1),))
    assert compose(a, b).nodes() == (0, 1, 2)


def test_compose_rejects_mismatched_endpoints():
    g = triangle_graph()
    with pytest.raises(ValueError, match="compose"):
        compose(Walk(g, 0, (Dart(0),)), Walk(g, 2, (Dart(2),)))


def test_compose_rejects_mixed_universes():
    g = triangle_graph()
    with pytest.raises(ValueError, match="universe"):
        compose(trivial(g, 0), trivial(g, 0, symmetric=True))


def test_compose_rejects_walks_on_different_graphs():
    with pytest.raises(ValueError, match="different graphs"):
        compose(trivial(triangle_graph(), 0), trivial(digon_graph(), 0))


@given(composable_walk_pairs())
def test_compose_length_adds(pair):
    p, q = pair
    assert compose(p, q).length == p.length + q.length


@given(composable_walk_pairs(max_len=3))
def test_compose_is_associative(pair):
    p, q = pair
    r = Walk(q.graph, q.end, (), q.symmetric)
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_occurs_on_trivial_is_zero():
    g = triangle_graph()
    assert occurs(0, trivial(g, 0)) == 0


def test_occurs_counts_tails_only():
    g = triangle_graph()
    w = Walk(g, 0, (Dart(0),))  # x -> y
    assert occurs(0, w) == 1
    assert occurs(1, w) == 0  # the end never counts


def test_occurs_triangle_cycle():
    w = tri_cycle()
    assert [occurs(z, w) for z in range(3)] == [1, 1, 1]


@given(graph_walks())
def test_census_equals_length(w):
    assert membership_census(w) == w.length


def test_quasi_simple_examples():
    g = triangle_graph()
    assert is_quasi_simple(trivial(g, 0))
    assert is_quasi_simple(Walk(g, 0, (Dart(0),)))
    assert is_quasi_simple(tri_cycle())  # the end may repeat the head once
    assert not is_quasi_simple(pathloop_walk())  # x occurs twice before the end


@given(graph_walks())
def test_quasi_simple_matches_census_oracle(w):
    assert is_quasi_simple(w) == census_quasi(w)


@given(graph_walks(max_len=6))
def test_quasi_simple_peels_leading_step(w):
    # extending by a step preserves the rest; the converse needs absence
    if w.length >= 1:
        rest = Walk(w.graph, w.node_at(1), w.steps[1:], w.symmetric)
        if is_quasi_simple(w):
            assert is_quasi_simple(rest)
            assert occurs(w.start, rest) == 0
        if is_quasi_simple(rest) and occurs(w.start, rest) == 0:
            assert is_quasi_simple(w)


@given(graph_walks(max_len=6))
def test_basic_shape_facts(w):
    # nontrivial walks visit their start; composition keeps positivity
    if w.start != w.end:
        assert w.length >= 1
    if w.length >= 1:
        assert occurs(w.start, w) >= 1
        tail = trivial(w.graph, w.end, w.symmetric)
        assert compose(w, tail).length >= 1


def test_text_forms():
    g = digon_graph()
    w = Walk(g, 0, (Dart(0), Dart(1, False)), symmetric=True)
    assert compact(w) == "0:e0+,e1-"
    assert compact(trivial(g, 1)) == "1:"


def test_parse_walk_round_trip():
    g = digon_graph()
    w = Walk(g, 0, (Dart(0), Dart(1, False)), symmetric=True)
    assert parse_walk(g, compact(w)) == w
    assert parse_walk(g, "1:") == trivial(g, 1, symmetric=True)
    assert parse_walk(g, "1") == trivial(g, 1, symmetric=True)


def test_parse_walk_reports_position():
    g = digon_graph()
    from walkmaps.walk import WalkSpecError

    with pytest.raises(WalkSpecError) as err:
        parse_walk(g, "0:e0+,zz")
    assert err.value.position == 6
