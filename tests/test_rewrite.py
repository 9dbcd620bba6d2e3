"""The reduction relation and normalization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from walkmaps import (
    Dart,
    ReductionStep,
    ValidationError,
    Walk,
    applicable_reductions,
    build_graph,
    is_normal,
    is_quasi_simple,
    normalize,
    occurs,
    progress,
    trivial,
    verify_step,
)

from .fixtures import (
    all_fixture_graphs,
    loop1_graph,
    pathloop_graph,
    triangle_graph,
)
from .oracles import all_reducts, brute_walks, check_step_shape
from .strategies import graph_walks


def loop_walk():
    g = loop1_graph()
    return Walk(g, 0, (Dart(0),))


def pathloop_walk():
    g = pathloop_graph()
    return Walk(g, 0, (Dart(0), Dart(1), Dart(2)))


def tri_cycle():
    g = triangle_graph()
    return Walk(g, 0, (Dart(0), Dart(1), Dart(2)))


def test_loop_reduces_only_by_collapse():
    steps = applicable_reductions(loop_walk())
    assert len(steps) == 1
    assert steps[0].rule == "xi1"
    assert steps[0].after.length == 0


def test_one_edge_walk_has_no_reductions():
    g = triangle_graph()
    assert applicable_reductions(Walk(g, 0, (Dart(0),))) == []


def test_pathloop_reduction_removes_leading_loop():
    steps = applicable_reductions(pathloop_walk())
    assert [(s.rule, s.site) for s in steps] == [("xi3", 2)]
    assert steps[0].after.steps == (Dart(2),)


def _fixture_walks(max_len):
    for g in all_fixture_graphs().values():
        for x in range(g.node_count):
            yield from brute_walks(g, max_len, x, symmetric=True)


@settings(deadline=None)
@given(graph_walks(max_len=5))
def test_reducts_match_declarative_oracle(w):
    ours = {s.after.key() for s in applicable_reductions(w)}
    assert ours == all_reducts(w)


def test_reducts_complete_on_fixture_walks():
    for w in _fixture_walks(5):
        ours = {s.after.key() for s in applicable_reductions(w)}
        assert ours == all_reducts(w)


def test_every_emitted_step_is_sound():
    for w in _fixture_walks(5):
        for s in applicable_reductions(w):
            assert s.before == w
            assert s.after.length < s.before.length
            assert (s.before.start, s.before.end) == (s.after.start, s.after.end)
            check_step_shape(s)
            verify_step(s)


def test_membership_never_grows_along_a_step():
    for w in _fixture_walks(5):
        for s in applicable_reductions(w):
            for x in range(w.graph.node_count):
                if occurs(x, s.after) >= 1:
                    assert occurs(x, s.before) >= 1


@settings(deadline=None)
@given(graph_walks(max_len=4))
def test_no_reduce_walks_are_normal(w):
    # the trivial walk, and one step that is not a loop
    if w.length == 0 or (w.length == 1 and w.start != w.end):
        assert is_normal(w)


def test_is_normal_examples():
    g = triangle_graph()
    assert is_normal(trivial(g, 0))
    assert not is_normal(loop_walk())
    cycle = tri_cycle()
    assert is_quasi_simple(cycle) and not is_normal(cycle)


def test_progress_examples():
    g = triangle_graph()
    assert progress(trivial(g, 0)) is None
    assert progress(loop_walk()).rule == "xi1"
    step = progress(pathloop_walk())
    assert (step.rule, step.site) == ("xi3", 2)


def test_progress_agrees_with_is_normal():
    for w in _fixture_walks(4):
        assert (progress(w) is None) == is_normal(w)


def test_normalize_trivial_and_loop():
    g = loop1_graph()
    nf, trace = normalize(trivial(g, 0))
    assert nf == trivial(g, 0) and trace.steps == ()
    nf, trace = normalize(loop_walk())
    assert nf == trivial(g, 0)
    assert [s.rule for s in trace.steps] == ["xi1"]


def test_normalize_pathloop():
    nf, trace = normalize(pathloop_walk())
    assert nf.steps == (Dart(2),)
    assert [(s.rule, s.site) for s in trace.steps] == [("xi3", 2)]
    assert trace.replay() == nf


def test_normalize_fixture_walks():
    for w in _fixture_walks(6):
        nf, trace = normalize(w)
        assert is_normal(nf)
        assert nf.length <= w.length
        assert (nf.start, nf.end) == (w.start, w.end)
        assert trace.origin == w
        assert trace.replay() == nf
        lengths = [w.length] + [s.after.length for s in trace.steps]
        assert all(b > a for b, a in zip(lengths, lengths[1:]))


@settings(deadline=None)
@given(graph_walks(max_len=7))
def test_normalize_random_walks(w):
    nf, trace = normalize(w)
    assert is_normal(nf)
    assert trace.replay() == nf


def test_normalize_lands_in_the_exhaustive_closure():
    # every walk reaches at least one normal form through the raw relation,
    # and the deterministic strategy picks one of them
    def reachable_normal_forms(w, seen=None):
        if seen is None:
            seen = {}
        key = w.key()
        if key in seen:
            return seen[key]
        seen[key] = set()
        steps = applicable_reductions(w)
        if not steps:
            result = {key} if is_quasi_simple(w) else set()
        else:
            result = set()
            for s in steps:
                result |= reachable_normal_forms(s.after, seen)
        seen[key] = result
        return result

    for g in all_fixture_graphs().values():
        for x in range(g.node_count):
            for w in brute_walks(g, 4, x, symmetric=True):
                forms = reachable_normal_forms(w)
                assert forms, str(w)
                nf, _ = normalize(w)
                assert nf.key() in forms, str(w)


def test_normalize_takes_the_first_reduct_at_every_step():
    for w in _fixture_walks(5):
        _, trace = normalize(w)
        for s in trace.steps:
            assert s == applicable_reductions(s.before)[0]


def _splices(w):
    """Every walk left by deleting one contiguous block of ``w``'s steps."""
    for a in range(w.length + 1):
        for b in range(a, w.length + 1):
            try:
                yield Walk(w.graph, w.start, w.steps[:a] + w.steps[b:], w.symmetric)
            except ValidationError:
                pass


def test_verify_step_agrees_with_the_shape_oracle():
    # every rule deletes one contiguous block, so splices cover every reduct;
    # any other candidate is rejected by both sides on its steps alone
    for w in _fixture_walks(4):
        for q in _splices(w):
            for rule in ("xi1", "xi2", "xi3"):
                for site in range(w.length + 1):
                    step = ReductionStep(rule, site, w, q)
                    try:
                        check_step_shape(step)
                        shaped = True
                    except AssertionError:
                        shaped = False
                    try:
                        verify_step(step)
                        verified = True
                    except ValueError:
                        verified = False
                    assert verified == shaped, (rule, site, str(w), str(q))


def test_long_chain_ending_in_a_self_loop_reduces_without_recursion():
    # 2999 chain edges, then a self-loop whose collapse lifts under all of them
    g = build_graph(3000, [(i, i + 1) for i in range(2999)] + [(2999, 2999)])
    w = Walk(g, 0, tuple(Dart(e) for e in range(3000)))
    steps = applicable_reductions(w)
    assert [(s.rule, s.site) for s in steps] == [("xi2", 2999)]
    assert progress(w) == steps[0]
    assert not is_normal(w)
    nf, trace = normalize(w)
    assert nf.steps == w.steps[:-1]
    assert trace.steps == (steps[0],)
    assert trace.replay() == nf


def test_looping_prefix_before_a_long_chain_normalizes():
    cluster = [(i, j) for i in range(4) for j in range(4) if i != j]
    index = {e: i for i, e in enumerate(cluster)}
    chain = 3000
    nodes = [0] + list(range(4, 4 + chain))
    # chain edges alternate direction, so the symmetric walk mixes e+ and e-
    links = [(a, b) if k % 2 else (b, a) for k, (a, b) in enumerate(zip(nodes, nodes[1:]))]
    g = build_graph(4 + chain, cluster + links)
    prefix = [Dart(index[e]) for e in [(1, 2), (2, 3), (3, 1), (1, 0), (0, 2), (2, 0)]]
    darts = prefix + [Dart(len(cluster) + k, k % 2 == 1) for k in range(chain)]
    w = Walk(g, 1, tuple(darts), True)
    nf, trace = normalize(w)
    assert [(s.rule, s.site) for s in trace.steps] == [("xi3", 3), ("xi2", 1)]
    assert nf.steps == (prefix[3],) + w.steps[len(prefix):]
    assert is_normal(nf)
    assert trace.replay() == nf


def test_verify_step_rejects_forged_steps():
    g = pathloop_graph()
    w = pathloop_walk()  # 0 -> 1 -> 0 -> 2, not a loop
    point = trivial(g, 0)
    with pytest.raises(ValueError):  # xi1 needs a loop
        verify_step(ReductionStep("xi1", 0, Walk(g, 0, (Dart(0),)), trivial(g, 0)))
    with pytest.raises(ValueError):  # wrong endpoints
        verify_step(ReductionStep("xi1", 0, w, point))
    with pytest.raises(ValueError):  # xi3 at a non-loop prefix
        verify_step(ReductionStep("xi3", 1, w, Walk(g, 1, (Dart(1), Dart(2)))))
    loopy = build_loop_then_edge()
    with pytest.raises(ValueError):  # xi2 must not reduce under a self-loop edge
        verify_step(
            ReductionStep("xi2", 1, loopy, Walk(loopy.graph, 0, loopy.steps[:1]))
        )
    with pytest.raises(ValueError):
        verify_step(ReductionStep("xi9", 0, w, Walk(g, 1, (Dart(1), Dart(2)))))
    loop = loop_walk()
    with pytest.raises(ValueError):  # xi1 fires at site 0 only
        verify_step(ReductionStep("xi1", 5, loop, trivial(loop.graph, 0)))
    hazard = build_graph(4, [(0, 0), (0, 1), (1, 2), (2, 1), (1, 3)])
    # 0 -(loop e0)-> 0 -> 1 -> 2 -> 1 -> 3: the loop 1 -> 2 -> 1 sits under a
    # leading self-loop edge, so no xi2 may lift its deletion to depth 2
    w = Walk(hazard, 0, tuple(Dart(e) for e in range(5)))
    with pytest.raises(ValueError):
        verify_step(ReductionStep("xi2", 2, w, Walk(hazard, 0, (Dart(0), Dart(1), Dart(4)))))


def build_loop_then_edge():
    g = build_graph(2, [(0, 0), (0, 0), (0, 1)])
    # 0 -(loop e0)-> 0 -(loop e1)-> 0 -> 1
    return Walk(g, 0, (Dart(0), Dart(1), Dart(2)))


def test_trace_replay_detects_breaks():
    from walkmaps import ReductionTrace

    w = pathloop_walk()
    _, trace = normalize(w)
    broken = ReductionTrace(loop_walk(), trace.steps)
    with pytest.raises(ValueError):
        broken.replay()
