"""Quasi-simple walk enumeration against brute-force DFS, and walk counting."""

from __future__ import annotations

import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkmaps import (
    Dart,
    ValidationError,
    build_graph,
    enumerate_all_qswalks,
    is_quasi_simple,
    iter_walks_up_to,
    occurs,
    trivial,
    walk_counts,
)

from .fixtures import digon_graph, loop1_graph, triangle_graph
from .oracles import brute_walks, random_graph
from .strategies import graphs


def _qswalks_of_length(g, m, x, y):
    return [w for w in enumerate_all_qswalks(g, x, y) if w.length == m]


def _count(g, n, x, y=None, symmetric=False):
    # all walks of length n from x (to y when given)
    return next(islice(walk_counts(g, y, symmetric), n, None))[x]


def test_length_zero_bucket():
    g = triangle_graph()
    assert _qswalks_of_length(g, 0, 0, 0) == [trivial(g, 0)]
    assert _qswalks_of_length(g, 0, 0, 1) == []


def test_triangle_buckets():
    g = triangle_graph()
    cycle = _qswalks_of_length(g, 3, 0, 0)
    assert len(cycle) == 1
    assert cycle[0].steps == (Dart(0), Dart(1), Dart(2))
    one = _qswalks_of_length(g, 1, 0, 1)
    assert len(one) == 1 and one[0].steps == (Dart(0),)


def test_all_qswalks_examples():
    g = triangle_graph()
    assert [w.steps for w in enumerate_all_qswalks(g, 0, 0)] == [
        (),
        (Dart(0), Dart(1), Dart(2)),
    ]
    dig = digon_graph()
    assert [w.steps for w in enumerate_all_qswalks(dig, 0, 1)] == [(Dart(0),), (Dart(1),)]
    loop = loop1_graph()
    assert [w.steps for w in enumerate_all_qswalks(loop, 0, 0)] == [(), (Dart(0),)]


def _dfs_quasi_keys(g, x, y, symmetric=False):
    return {
        w.key()
        for w in brute_walks(g, g.node_count, x, y, symmetric)
        if is_quasi_simple(w)
    }


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_matches_dfs_oracle(g):
    # the oracle's set in the documented order: length, then lexicographic
    for symmetric in (False, True):
        for x in range(g.node_count):
            for y in range(g.node_count):
                keys = [w.key() for w in enumerate_all_qswalks(g, x, y, symmetric)]
                expected = sorted(
                    _dfs_quasi_keys(g, x, y, symmetric),
                    key=lambda k: (len(k[1]), [d.sort_key for d in k[1]]),
                )
                assert keys == expected


def test_matches_dfs_oracle_symmetric():
    for g in (triangle_graph(), digon_graph(), loop1_graph()):
        for x in range(g.node_count):
            for y in range(g.node_count):
                ours = {w.key() for w in enumerate_all_qswalks(g, x, y, symmetric=True)}
                assert ours == _dfs_quasi_keys(g, x, y, symmetric=True)


@given(graphs())
@settings(max_examples=30, deadline=None)
def test_length_bound(g):
    for x in range(g.node_count):
        for y in range(g.node_count):
            for w in enumerate_all_qswalks(g, x, y):
                assert w.length <= g.node_count
            # no quasi-simple walk exists just above the bound either
            beyond = [
                w
                for w in brute_walks(g, g.node_count + 1, x, y)
                if w.length == g.node_count + 1 and is_quasi_simple(w)
            ]
            assert beyond == []


def test_recurrence_cardinality():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng, max_nodes=4, max_edges=6)
        for x in range(g.node_count):
            for z in range(g.node_count):
                for m in range(g.node_count):
                    lhs = len(_qswalks_of_length(g, m + 1, x, z))
                    rhs = 0
                    for e in g.edges:
                        if e.source != x:
                            continue
                        rhs += sum(
                            1
                            for w in _qswalks_of_length(g, m, e.target, z)
                            if occurs(x, w) == 0
                        )
                    assert lhs == rhs


def test_enumeration_order_is_deterministic():
    g = digon_graph()
    walks = enumerate_all_qswalks(g, 0, 1)
    assert [str(w) for w in walks] == ["0:e0+", "0:e1+"]
    assert [w.length for w in enumerate_all_qswalks(g, 0, 0)] == sorted(
        w.length for w in enumerate_all_qswalks(g, 0, 0)
    )


def test_count_walks_examples():
    g = triangle_graph()
    assert _count(g, 0, 0, 0) == 1
    assert _count(g, 0, 0, 1) == 0
    assert _count(g, 3, 0, 0) == 1
    loop = loop1_graph()
    for k in range(7):
        assert _count(loop, k, 0, 0) == 1


def test_count_walks_to_any_end_sums_the_ends():
    g = build_graph(3, [(0, 1), (0, 1), (1, 2), (2, 0), (0, 0)])
    for sym in (False, True):
        for n in range(5):
            for x in range(3):
                total = sum(_count(g, n, x, y, sym) for y in range(3))
                assert _count(g, n, x, None, sym) == total


@pytest.mark.parametrize("gen", [iter_walks_up_to])
def test_walk_generators_reject_negative_length(gen):
    # like a bad endpoint, a negative length raises on first use
    walks = gen(triangle_graph(), -1, 0)
    with pytest.raises(ValueError):
        next(walks)


@given(graphs())
@settings(max_examples=30, deadline=None)
def test_count_matches_dfs_and_bounds_quasi(g):
    for x in range(g.node_count):
        for y in range(g.node_count):
            for n in range(4):
                expected = sum(
                    1 for w in brute_walks(g, n, x, y) if w.length == n
                )
                got = _count(g, n, x, y)
                assert got == expected
                assert got >= len(_qswalks_of_length(g, n, x, y))
            assert _count(g, 0, x, y) == len(_qswalks_of_length(g, 0, x, y))


def _brute_order(w):
    return (w.length, [d.sort_key for d in w.steps])


@given(graphs(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_walk_generators_match_brute_in_order(g, max_len):
    for symmetric in (False, True):
        for x in range(g.node_count):
            for y in [None, *range(g.node_count)]:
                expected = sorted(brute_walks(g, max_len, x, y, symmetric), key=_brute_order)
                assert list(iter_walks_up_to(g, max_len, x, y, symmetric)) == expected


@given(graphs())
@settings(max_examples=30, deadline=None)
def test_all_qswalks_to_any_node(g):
    # with no target, the walks to every node, in the same order
    for symmetric in (False, True):
        for x in range(g.node_count):
            per_end = [w for y in range(g.node_count) for w in enumerate_all_qswalks(g, x, y, symmetric)]
            assert enumerate_all_qswalks(g, x, None, symmetric) == sorted(per_end, key=_brute_order)


def test_long_cycle_walks_without_recursion():
    # the directed 3-cycle closes a loop at 0 every third step
    g = triangle_graph()
    walks = list(iter_walks_up_to(g, 1500, 0, 0))
    assert len(walks) == 501
    assert walks[-1].steps == (Dart(0), Dart(1), Dart(2)) * 500


def test_iter_walks_up_to_matches_brute():
    g = triangle_graph()
    ours = [w.key() for w in iter_walks_up_to(g, 4, 0)]
    brute = [w.key() for w in brute_walks(g, 4, 0)]
    assert sorted(ours) == sorted(brute)
    assert len(ours) == len(set(ours))


BAD_ENDPOINT_CALLS = {
    "enumerate_all_qswalks": lambda g, x, y: enumerate_all_qswalks(g, x, y),
    "iter_walks_up_to": lambda g, x, y: list(iter_walks_up_to(g, 2, x, y)),
}


@pytest.mark.parametrize("call", sorted(BAD_ENDPOINT_CALLS))
@pytest.mark.parametrize("x,y", [(0, -1), (-1, 0), (0, 7), (3, 0)])
def test_out_of_range_endpoints_raise(call, x, y):
    # on the 3-cycle, node -1 would index node 2 from the end
    with pytest.raises(ValidationError):
        BAD_ENDPOINT_CALLS[call](triangle_graph(), x, y)


def test_long_path_enumerates_without_recursion():
    n = 1500
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    path = tuple(Dart(i) for i in range(n - 1))
    for symmetric in (False, True):
        assert [w.steps for w in enumerate_all_qswalks(g, 0, n - 1, symmetric)] == [path]


def test_huge_length_cap_costs_only_the_walks_found():
    # the search keeps what it finds, not one slot per possible length
    g = build_graph(2, [(0, 1)])
    tracemalloc.start()
    try:
        walks = list(iter_walks_up_to(g, 10**6, 0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [w.steps for w in walks] == [(Dart(0),)]
    assert peak < 5 * 2**20
