"""Brute-force oracles, written independently of the library's algorithms.

These re-derive expected answers the slow, obvious way: plain DFS over step
choices for walk enumeration, per-node position counting for membership,
and a declarative reading of the three reduction rules for one-step
reducts, one enumeration and one search per node pair for the sphericity
checkers, and the recursive construction of normal-form certificates that
cuts each deleted loop at its basepoint. Tests compare the library's fast
paths against these.
"""

from __future__ import annotations

import random

from walkmaps import (
    Dart,
    Graph,
    HomotopyCertificate,
    HomotopyMove,
    HomotopyNormalForm,
    Inconclusive,
    SearchBudget,
    Walk,
    enumerate_all_qswalks,
    euler_characteristic,
    incident_darts,
    is_connected,
    iter_walks_up_to,
    normalize,
    normalize_homotopy,
    out_darts,
    prepend,
    prove_homotopic,
    trivial,
)
from walkmaps.homotopy import _bfs, _Blocked, _MoveEngine, default_budget


def brute_walks(
    g: Graph, max_len: int, x: int, y: int | None = None, symmetric: bool = False
) -> list[Walk]:
    """Every walk of length <= max_len from x (to y when given), by raw DFS."""
    found: list[Walk] = []

    def step_options(at: int):
        return incident_darts(g, at) if symmetric else out_darts(g, at)

    def rec(at: int, steps: tuple[Dart, ...]):
        if y is None or at == y:
            found.append(Walk(g, x, steps, symmetric))
        if len(steps) == max_len:
            return
        for d in step_options(at):
            rec(g.head(d), steps + (d,))

    rec(x, ())
    return found


def census_occurrences(w: Walk) -> dict[int, int]:
    """Occurrence counts by direct position scan, final endpoint excluded."""
    counts: dict[int, int] = {}
    for i in range(w.length):
        z = w.node_at(i)
        counts[z] = counts.get(z, 0) + 1
    return counts


def census_quasi(w: Walk) -> bool:
    """Quasi-simpleness as the census reads it: every count at most one."""
    counts = census_occurrences(w)
    return max(counts.values(), default=0) <= 1


def derivable(w: Walk, q: Walk) -> bool:
    """Whether w reduces to q in one step, read off the rule definitions.

    xi1: a nontrivial loop reduces to the trivial walk at its endpoint.
    xi2: with the whole walk not a loop and a leading edge with distinct
         endpoints, a reduct of the rest lifts under that edge.
    xi3: a non-loop walk with a leading loop before a nontrivial tail
         reduces to that tail.
    """
    if derivable_in_place(w, q):
        return True
    if (w.start, w.end) != (q.start, q.end):
        return False
    if (
        w.length >= 1
        and w.start != w.end
        and q.length >= 1
        and w.steps[0] == q.steps[0]
        and w.start != w.node_at(1)
    ):
        g = w.graph
        w_rest = Walk(g, w.node_at(1), w.steps[1:], w.symmetric)
        q_rest = Walk(g, q.node_at(1), q.steps[1:], q.symmetric)
        return derivable(w_rest, q_rest)
    return False


def derivable_in_place(w: Walk, q: Walk) -> bool:
    """Whether w reduces to q by xi1 or xi3, the rules that keep no leading edge."""
    if (w.start, w.end) != (q.start, q.end):
        return False
    is_loop = w.start == w.end
    if w.length >= 1 and is_loop and q.length == 0:
        return True
    if w.length >= 1 and not is_loop:
        for s in range(1, w.length):
            if w.node_at(s) == w.start and q.steps == w.steps[s:]:
                return True
    return False


def all_reducts(w: Walk) -> set[tuple]:
    """All one-step reducts of w, found by testing every shorter candidate."""
    reducts: set[tuple] = set()
    for q in brute_walks(w.graph, max(w.length - 1, 0), w.start, w.end, w.symmetric):
        if q.length < w.length and derivable(w, q):
            reducts.add(q.key())
    return reducts


def check_step_shape(step) -> None:
    """Validate a reduction step's (rule, site) labels against its walks."""
    w, v = step.before, step.after
    assert (w.start, w.end) == (v.start, v.end), "endpoints changed"
    assert v.length < w.length, "length did not strictly decrease"
    if step.rule == "xi1":
        assert step.site == 0
        assert w.length >= 1 and w.start == w.end
        assert v.length == 0
        return
    if step.rule == "xi3":
        s = step.site
        assert 1 <= s < w.length
        assert w.start != w.end
        assert w.node_at(s) == w.start
        assert v.steps == w.steps[s:]
        return
    if step.rule == "xi2":
        s = step.site
        assert s >= 1
        assert w.steps[:s] == v.steps[:s]
        inner_w, inner_v = w, v
        for _ in range(s):
            assert inner_w.start != inner_w.end, "xi2 under a loop"
            assert inner_w.start != inner_w.node_at(1), "xi2 under a self-loop edge"
            g = w.graph
            inner_w = Walk(g, inner_w.node_at(1), inner_w.steps[1:], w.symmetric)
            inner_v = Walk(g, inner_v.node_at(1), inner_v.steps[1:], w.symmetric)
        # the site counts every preserved edge, so the inner step keeps none
        assert derivable_in_place(inner_w, inner_v), "xi2 inner step not derivable"
        return
    raise AssertionError(f"unknown rule {step.rule}")


def random_graph(rng: random.Random, max_nodes: int = 5, max_edges: int = 8) -> Graph:
    from walkmaps import build_graph

    n = rng.randint(1, max_nodes)
    m = rng.randint(0, max_edges)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return build_graph(n, edges)


def random_walk(
    rng: random.Random, g: Graph, max_len: int, symmetric: bool = False
) -> Walk:
    x = rng.randrange(g.node_count)
    steps: list[Dart] = []
    at = x
    for _ in range(rng.randint(0, max_len)):
        options = incident_darts(g, at) if symmetric else out_darts(g, at)
        if not options:
            break
        d = rng.choice(options)
        steps.append(d)
        at = g.head(d)
    return Walk(g, x, tuple(steps), symmetric)


def _reference_failure(m, pair: tuple[Walk, Walk], pairs: int) -> tuple:
    # the Euler characteristic alone turns an unproven pair into a disproof
    negative = is_connected(m.graph) and euler_characteristic(m) != 2
    return ("not_spherical" if negative else "inconclusive", pair, pairs)


def reference_check_quasi(m, budget=None, collector=None) -> tuple:
    """``check_spherical_quasi`` as (status, witness, pairs_checked), one pair at a time."""
    budget = budget or default_budget(m)
    pairs = 0
    for x in range(m.graph.node_count):
        for y in range(m.graph.node_count):
            walks = enumerate_all_qswalks(m.graph, x, y, symmetric=True)
            for other in walks[1:]:
                pairs += 1
                cert = prove_homotopic(m, walks[0], other, budget)
                if cert is None:
                    return _reference_failure(m, (walks[0], other), pairs)
                if collector is not None:
                    collector.append(cert)
    return ("spherical", None, pairs)


def reference_check_bounded(m, max_len: int, budget=None, collector=None) -> tuple:
    """``check_spherical_bounded`` as (status, witness, pairs_checked), one pair at a time."""
    budget = budget or default_budget(m)
    if budget.max_len < max_len:
        budget = SearchBudget(max_len, budget.max_states)
    pairs = 0
    for x in range(m.graph.node_count):
        for y in range(m.graph.node_count):
            normal_forms: dict[tuple, Walk] = {}
            for w in iter_walks_up_to(m.graph, max_len, x, y, symmetric=True):
                pairs += 1
                result = normalize_homotopy(m, w, budget)
                if isinstance(result, Inconclusive):
                    return _reference_failure(m, result.subgoal, pairs)
                if collector is not None and result.certificate.moves:
                    collector.append(result.certificate)
                normal_forms.setdefault(result.walk.key(), result.walk)
            reps = list(normal_forms.values())
            for other in reps[1:]:
                pairs += 1
                cert = prove_homotopic(m, reps[0], other, budget)
                if cert is None:
                    return _reference_failure(m, (reps[0], other), pairs)
                if collector is not None:
                    collector.append(cert)
    return ("spherical", None, pairs)


def reference_normal_form(m, w: Walk, budget) -> HomotopyNormalForm | Inconclusive:
    """``normalize_homotopy`` by cutting each deleted loop at its basepoint.

    Each trace step's loop is cut at every return to its basepoint; the
    inside of each piece is brought to its normal form first, recursively,
    which leaves a quasi-simple loop ``first dart . normal form`` for one
    search against the trivial walk. Inner moves apply one step in.
    """
    searches: dict[tuple, HomotopyCertificate | None] = {}

    def shifted(moves, k: int) -> list[HomotopyMove]:
        return [HomotopyMove(mv.face, mv.a, mv.b, mv.prefix_len + k, mv.direction) for mv in moves]

    def search(loop: Walk):
        point = trivial(loop.graph, loop.start, symmetric=True)
        if loop.key() not in searches:
            searches[loop.key()] = prove_homotopic(m, loop, point, budget)
        if searches[loop.key()] is None:
            # the public prover drops the search's exhausted flag
            raise _Blocked(loop, _bfs(_MoveEngine(m), loop, point, budget)[1])
        return searches[loop.key()].moves

    def collapse(w: Walk, at: int, end: int) -> list[HomotopyMove]:
        x, moves, piece = w.node_at(at), [], at
        while piece < end:
            cut = piece + 1
            while w.node_at(cut) != x:
                cut += 1
            inner = Walk(w.graph, w.node_at(piece + 1), w.steps[piece + 1 : cut], True)
            nf, _, inner_moves = normal_form(inner)
            moves += shifted(inner_moves, 1)
            moves += search(prepend(w.steps[piece], nf))
            piece = cut
        return moves

    def normal_form(w: Walk):
        nf, trace = normalize(w)
        moves: list[HomotopyMove] = []
        for s in trace.steps:
            end = s.depth + s.before.length - s.after.length
            moves += shifted(collapse(s.before, s.depth, end), s.depth)
        return nf, trace, tuple(moves)

    try:
        nf, trace, moves = normal_form(w)
    except _Blocked as blocked:
        return Inconclusive(blocked.subgoal, budget, blocked.exhausted)
    return HomotopyNormalForm(nf, trace, HomotopyCertificate(w, nf, moves))
