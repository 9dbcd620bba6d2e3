"""Walk construction, composition, membership, quasi-simpleness, splitting."""

from __future__ import annotations

import pytest
from hypothesis import given

from walkmaps import (
    Dart,
    ValidationError,
    Walk,
    compact,
    compose,
    is_prefix,
    is_quasi_simple,
    membership_census,
    occurs,
    parse_walk,
    prepend,
    split_at,
    suffix_of,
    trivial,
    verbose,
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


def test_prepend_checks_adjacency():
    g = triangle_graph()
    assert prepend(Dart(0), Walk(g, 1, (Dart(1),))) == Walk(g, 0, (Dart(0), Dart(1)))
    with pytest.raises(ValueError, match="cannot prepend e1\\+"):
        prepend(Dart(1), Walk(g, 1, (Dart(1),)))


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


def test_prefix_examples():
    g = triangle_graph()
    w = Walk(g, 0, (Dart(0), Dart(1)))
    assert is_prefix(trivial(g, 0), w)
    assert is_prefix(Walk(g, 0, (Dart(0),)), w)
    assert not is_prefix(Walk(g, 1, (Dart(1),)), w)  # different start
    assert not is_prefix(Walk(g, 0, (Dart(0), Dart(1), Dart(2))), w)


def test_suffix_of_examples():
    g = triangle_graph()
    w = Walk(g, 0, (Dart(0), Dart(1)))
    assert suffix_of(trivial(g, 0), w) == w
    assert suffix_of(w, w) == trivial(g, 2)
    assert suffix_of(Walk(g, 0, (Dart(0),)), w) == Walk(g, 1, (Dart(1),))


def test_suffix_of_recomposes():
    g = triangle_graph()
    w = Walk(g, 0, (Dart(0), Dart(1), Dart(2)))
    p = Walk(g, 0, (Dart(0),))
    assert compose(p, suffix_of(p, w)) == w


def test_suffix_of_requires_prefix():
    g = triangle_graph()
    with pytest.raises(ValueError):
        suffix_of(Walk(g, 1, (Dart(1),)), Walk(g, 0, (Dart(0),)))


def test_split_at_absent_node():
    g = triangle_graph()
    assert split_at(Walk(g, 0, (Dart(0),)), 2) is None


def test_split_at_start():
    g = triangle_graph()
    w = Walk(g, 0, (Dart(0), Dart(1)))
    found = split_at(w, 0)
    assert found is not None
    assert found.prefix == trivial(g, 0)
    assert found.suffix == w


def test_split_at_pathloop():
    w = pathloop_walk()
    found = split_at(w, 1)
    assert found is not None
    prefix, suffix = found
    assert prefix.nodes() == (0, 1)
    assert suffix.nodes() == (1, 0, 2)
    assert compose(prefix, suffix) == w
    assert occurs(1, prefix) == 0
    assert prefix.end == 1


@given(graph_walks(max_len=6))
def test_split_at_invariants(w):
    for y in range(w.graph.node_count):
        found = split_at(w, y)
        if occurs(y, w) == 0:
            assert found is None
        else:
            prefix, suffix = found
            assert compose(prefix, suffix) == w
            assert prefix.end == y
            assert occurs(y, prefix) == 0


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
    assert verbose(w) == "0 -e0> 1 -e1< 0"
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
