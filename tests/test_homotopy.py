"""Homotopy moves, certificates, the prover, and the sphericity checkers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkmaps import (
    Dart,
    HomotopyCertificate,
    HomotopyMove,
    HomotopyNormalForm,
    Inconclusive,
    SearchBudget,
    Walk,
    apply_hcollapse,
    build_graph,
    build_rotation_map,
    check_spherical_bounded,
    check_spherical_euler,
    check_spherical_quasi,
    compose,
    concat_certificates,
    euler_characteristic,
    incident_darts,
    is_connected,
    is_quasi_simple,
    loop_collapse_cert,
    normalize,
    normalize_homotopy,
    prove_homotopic,
    replay_certificate,
    reverse_certificate,
    trivial,
    whisker,
)
from walkmaps.homotopy import CW_TO_CCW, SegmentMismatchError, default_budget

from .fixtures import (
    all_fixture_maps,
    digon_map,
    k4sphere_map,
    loop1_map,
    spherical_fixture_maps,
    torus2_map,
    triangle_map,
)
from .oracles import reference_check_bounded, reference_check_quasi, reference_normal_form


def digon_edge_walk(edge: int):
    m = digon_map()
    return Walk(m.graph, 0, (Dart(edge),), symmetric=True)


def test_apply_hcollapse_digon_swap():
    m = digon_map()
    move = HomotopyMove(face=0, a=0, b=1, prefix_len=0, direction=CW_TO_CCW)
    assert apply_hcollapse(m, digon_edge_walk(0), move) == digon_edge_walk(1)


def test_apply_hcollapse_loop1_full_boundary_to_trivial():
    m = loop1_map()
    w = Walk(m.graph, 0, (Dart(0),), symmetric=True)
    move = HomotopyMove(face=0, a=0, b=0, prefix_len=0, direction=CW_TO_CCW)
    assert apply_hcollapse(m, w, move) == trivial(m.graph, 0, symmetric=True)
    # and the inverse inserts it back
    back = apply_hcollapse(m, trivial(m.graph, 0, symmetric=True), move.inverted())
    assert back == w


def test_apply_hcollapse_involution():
    m = digon_map()
    w = Walk(m.graph, 0, (Dart(0), Dart(1, False), Dart(1)), symmetric=True)
    move = HomotopyMove(face=0, a=0, b=1, prefix_len=0, direction=CW_TO_CCW)
    assert apply_hcollapse(m, apply_hcollapse(m, w, move), move.inverted()) == w


def test_apply_hcollapse_reports_mismatch():
    m = digon_map()
    move = HomotopyMove(face=0, a=0, b=1, prefix_len=0, direction=CW_TO_CCW)
    with pytest.raises(SegmentMismatchError) as err:
        apply_hcollapse(m, digon_edge_walk(1), move)
    assert err.value.expected == (Dart(0),)
    assert err.value.found == (Dart(1),)


def test_prove_homotopic_reflexive():
    m = digon_map()
    w = digon_edge_walk(0)
    cert = prove_homotopic(m, w, w)
    assert cert == HomotopyCertificate(w, w, ())


def test_prove_homotopic_digon_single_move():
    m = digon_map()
    cert = prove_homotopic(m, digon_edge_walk(0), digon_edge_walk(1))
    assert cert is not None and len(cert.moves) == 1
    replay_certificate(m, cert)


def test_prove_homotopic_rejects_mismatched_endpoints():
    m = digon_map()
    with pytest.raises(ValueError, match="endpoints"):
        prove_homotopic(m, digon_edge_walk(0), trivial(m.graph, 0, symmetric=True))


def test_prove_homotopic_rejects_directed_walks():
    m = digon_map()
    with pytest.raises(ValueError, match="symmetrised"):
        prove_homotopic(m, Walk(m.graph, 0, (Dart(0),)), Walk(m.graph, 0, (Dart(1),)))


def test_torus_loops_not_provable():
    m = torus2_map()
    a = Walk(m.graph, 0, (Dart(0),), symmetric=True)
    b = Walk(m.graph, 0, (Dart(1),), symmetric=True)
    assert prove_homotopic(m, a, b) is None
    assert loop_collapse_cert(m, a) is None


def test_replay_rejects_corrupted_certificates():
    m = digon_map()
    c = prove_homotopic(m, digon_edge_walk(0), digon_edge_walk(1))
    wrong_target = HomotopyCertificate(c.source, c.source, c.moves)
    with pytest.raises(ValueError, match="target"):
        replay_certificate(m, wrong_target)
    wrong_moves = HomotopyCertificate(c.target, c.source, c.moves)
    with pytest.raises(SegmentMismatchError):
        replay_certificate(m, wrong_moves)
    # only the two named directions replay; a corrupt file may hold any other
    sideways = HomotopyMove(face=0, a=0, b=1, prefix_len=0, direction="sideways")
    with pytest.raises(ValueError, match="sideways"):
        replay_certificate(m, HomotopyCertificate(c.source, c.target, (sideways,)))
    # the walks are checked even when there is no move to replay
    elsewhere = trivial(build_graph(1, [(0, 0)]), 0, symmetric=True)
    with pytest.raises(ValueError, match="graph"):
        replay_certificate(m, HomotopyCertificate(elsewhere, elsewhere, ()))
    directed = trivial(m.graph, 0)
    with pytest.raises(ValueError, match="symmetrised"):
        replay_certificate(m, HomotopyCertificate(directed, directed, ()))


def test_certificate_reverse_and_concat_replay():
    m = digon_map()
    c = prove_homotopic(m, digon_edge_walk(0), digon_edge_walk(1))
    r = reverse_certificate(c)
    assert replay_certificate(m, r) == digon_edge_walk(0)
    both = concat_certificates(c, r)
    assert replay_certificate(m, both) == digon_edge_walk(0)


def test_concat_requires_chaining():
    m = digon_map()
    c = prove_homotopic(m, digon_edge_walk(0), digon_edge_walk(1))
    with pytest.raises(ValueError, match="chain"):
        concat_certificates(c, c)


def test_loop_collapse_requires_loop():
    m = digon_map()
    with pytest.raises(ValueError, match="loop"):
        loop_collapse_cert(m, digon_edge_walk(0))


def test_loop_collapse_examples():
    m = loop1_map()
    w = Walk(m.graph, 0, (Dart(0),), symmetric=True)
    cert = loop_collapse_cert(m, w)
    assert cert is not None and len(cert.moves) == 1
    replay_certificate(m, cert)
    point = trivial(m.graph, 0, symmetric=True)
    assert loop_collapse_cert(m, point) == HomotopyCertificate(point, point, ())


def test_whisker_trivial_right_is_identity():
    m = digon_map()
    c = prove_homotopic(m, digon_edge_walk(0), digon_edge_walk(1))
    assert whisker(None, c, trivial(m.graph, 1, symmetric=True)) == c


def test_whisker_shifts_offsets_and_replays():
    m = digon_map()
    c = prove_homotopic(m, digon_edge_walk(0), digon_edge_walk(1))
    left = Walk(m.graph, 1, (Dart(0, False),), symmetric=True)
    right = Walk(m.graph, 1, (Dart(1, False),), symmetric=True)
    whiskered = whisker(left, c, right)
    assert all(mv.prefix_len == base.prefix_len + 1 for mv, base in zip(whiskered.moves, c.moves))
    assert whiskered.source == compose(compose(left, c.source), right)
    replay_certificate(m, whiskered)


def test_whisker_order_independent():
    m = digon_map()
    c = prove_homotopic(m, digon_edge_walk(0), digon_edge_walk(1))
    left = Walk(m.graph, 1, (Dart(0, False),), symmetric=True)
    right = Walk(m.graph, 1, (Dart(1, False),), symmetric=True)
    assert whisker(left, whisker(None, c, right), None) == whisker(
        None, whisker(left, c, None), right
    )


def test_whisker_rejects_non_composable():
    m = digon_map()
    c = prove_homotopic(m, digon_edge_walk(0), digon_edge_walk(1))
    bad = Walk(m.graph, 0, (Dart(0),), symmetric=True)
    with pytest.raises(ValueError):
        whisker(bad, c, None)


def test_normalize_homotopy_trivial():
    m = digon_map()
    w = trivial(m.graph, 0, symmetric=True)
    res = normalize_homotopy(m, w)
    assert res.walk == w and res.trace.steps == () and res.certificate.moves == ()


def test_normalize_homotopy_loop1():
    m = loop1_map()
    w = Walk(m.graph, 0, (Dart(0),), symmetric=True)
    res = normalize_homotopy(m, w)
    assert res.walk == trivial(m.graph, 0, symmetric=True)
    assert [s.rule for s in res.trace.steps] == ["xi1"]
    assert len(res.certificate.moves) == 1
    replay_certificate(m, res.certificate)


def test_normalize_homotopy_digon_double_back():
    m = digon_map()
    w = Walk(m.graph, 0, (Dart(0), Dart(1, False), Dart(0)), symmetric=True)
    res = normalize_homotopy(m, w)
    assert res.walk.steps == (Dart(0),)
    replay_certificate(m, res.certificate)
    nf, trace = normalize(w)
    assert (res.walk, res.trace) == (nf, trace)


def test_normalize_homotopy_inconclusive_on_torus():
    m = torus2_map()
    w = Walk(m.graph, 0, (Dart(0),), symmetric=True)
    res = normalize_homotopy(m, w)
    assert isinstance(res, Inconclusive)
    assert res.exhausted
    src, dst = res.subgoal
    assert src == w and dst == trivial(m.graph, 0, symmetric=True)


def test_normalize_homotopy_matches_the_recursive_reference():
    # erasing cycles as they close must give the recursive construction's
    # normal form, trace, moves, sub-goal and exhausted flag
    import random

    from walkmaps import iter_walks_up_to

    from .oracles import random_walk
    from .test_embedding import _random_map

    kinds = set()
    for m in all_fixture_maps().values():
        budget = SearchBudget(max_len=default_budget(m).max_len, max_states=2000)
        for x in range(m.graph.node_count):
            for w in iter_walks_up_to(m.graph, 4, x, None, symmetric=True):
                res = normalize_homotopy(m, w, budget)
                assert res == reference_normal_form(m, w, budget), str(w)
                kinds.add(type(res))
    rng = random.Random(909)
    budget = SearchBudget(max_len=6, max_states=300)
    flags = set()
    maps = 0
    while maps < 30:
        n = rng.randint(1, 4)
        g = build_graph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 5))])
        m = _random_map(rng, g)
        if not is_connected(g) or euler_characteristic(m) not in (2, 0, -2):
            continue
        maps += 1
        for _ in range(8):
            w = random_walk(rng, g, 10, symmetric=True)
            res = normalize_homotopy(m, w, budget)
            assert res == reference_normal_form(m, w, budget), str(w)
            if isinstance(res, Inconclusive):
                flags.add(res.exhausted)
    assert kinds == {HomotopyNormalForm, Inconclusive}
    assert flags == {True, False}


def test_long_loop_collapses_without_recursion():
    # a 3 x 701 torus grid, rotation [right+, up+, left-, down-] at each
    # node; 700 steps right and back is one loop of 700 nested spurs
    rows, cols = 3, 701
    edges = []
    for x in range(rows * cols):
        i, j = divmod(x, cols)
        edges += [(x, i * cols + (j + 1) % cols), (x, (i + 1) % rows * cols + j)]
    g = build_graph(rows * cols, edges)

    def rotation(x):
        i, j = divmod(x, cols)
        left, down = i * cols + (j - 1) % cols, (i - 1) % rows * cols + j
        return [Dart(2 * x), Dart(2 * x + 1), Dart(2 * left, False), Dart(2 * down + 1, False)]

    m = build_rotation_map(g, {x: rotation(x) for x in range(rows * cols)})
    right = tuple(Dart(2 * j) for j in range(700))
    w = Walk(g, 0, right + tuple(d.reverse() for d in reversed(right)), symmetric=True)
    res = normalize_homotopy(m, w)
    assert isinstance(res, HomotopyNormalForm)
    assert res.walk == trivial(g, 0, symmetric=True) and len(res.trace.steps) == 1
    assert len(res.certificate.moves) == 1400
    assert replay_certificate(m, res.certificate) == res.walk


def test_check_spherical_quasi_fixture_statuses():
    for name, m in spherical_fixture_maps().items():
        verdict = check_spherical_quasi(m)
        assert verdict.status == "spherical", name
        assert verdict.euler == 2
    torus = check_spherical_quasi(torus2_map())
    assert torus.status in ("not_spherical", "inconclusive")
    assert torus.euler == 0
    assert torus.witness is not None


def test_check_spherical_bounded_small():
    assert check_spherical_bounded(digon_map(), 4).status == "spherical"
    assert check_spherical_bounded(triangle_map(), 6).status == "spherical"
    assert check_spherical_bounded(torus2_map(), 3).status in (
        "not_spherical",
        "inconclusive",
    )


def test_bounded_check_certificates_replay_sampled():
    m = triangle_map()
    collector = []
    verdict = check_spherical_bounded(m, 6, collector=collector)
    assert verdict.status == "spherical"
    assert collector
    for cert in collector:
        replay_certificate(m, cert)


def test_bounded_check_certificate_totals_on_k4():
    collector = []
    verdict = check_spherical_bounded(k4sphere_map(), 4, collector=collector)
    assert (verdict.status, verdict.pairs_checked) == ("spherical", 532)
    assert len(collector) == 468
    assert sum(len(cert.moves) for cert in collector) == 1032


def test_quasi_check_certificate_totals_on_k4():
    collector = []
    verdict = check_spherical_quasi(k4sphere_map(), collector=collector)
    assert (verdict.status, verdict.pairs_checked) == ("spherical", 180)
    assert len(collector) == 180
    assert sum(len(cert.moves) for cert in collector) == 360


def test_replay_reads_the_faces_traced_with_the_map(monkeypatch):
    import walkmaps.embedding
    import walkmaps.homotopy

    m = k4sphere_map()
    certs = []
    check_spherical_quasi(m, collector=certs)
    calls = []
    traced = walkmaps.embedding.trace_faces

    def counting(mm):
        calls.append(mm)
        return traced(mm)

    # count calls through either module that could bind the tracer
    for module in (walkmaps.embedding, walkmaps.homotopy):
        monkeypatch.setattr(module, "trace_faces", counting, raising=False)
    for cert in certs:
        replay_certificate(m, cert)
    assert certs and calls == []


@pytest.mark.parametrize("fields", [{"max_len": -1}, {"max_len": 4, "max_states": -1}])
def test_search_budget_rejects_negative_limits(fields):
    with pytest.raises(ValueError):
        SearchBudget(**fields)


def test_check_spherical_bounded_rejects_negative_max_len():
    with pytest.raises(ValueError):
        check_spherical_bounded(digon_map(), -1)


def test_check_spherical_euler():
    assert check_spherical_euler(k4sphere_map()).status == "spherical"
    torus = check_spherical_euler(torus2_map())
    assert torus.status == "not_spherical" and torus.euler == 0


def test_check_spherical_euler_disconnected_is_inconclusive():
    from walkmaps import build_graph, build_rotation_map

    g = build_graph(2, [(0, 0)])
    m = build_rotation_map(g, {0: [Dart(0), Dart(0, False)]})
    verdict = check_spherical_euler(m)
    assert verdict.status == "inconclusive" and verdict.euler is None


def test_tight_budget_yields_inconclusive_not_negative():
    m = k4sphere_map()
    w1 = Walk(m.graph, 0, (Dart(0),), symmetric=True)
    w2 = Walk(m.graph, 0, (Dart(3), Dart(5, False), Dart(1, False)), symmetric=True)
    assert prove_homotopic(m, w1, w2) is not None
    starved = SearchBudget(max_len=11, max_states=3)
    assert prove_homotopic(m, w1, w2, starved) is None
    verdict = check_spherical_quasi(m, starved)
    assert verdict.status == "inconclusive"  # euler is 2, so no negative signal


def test_random_maps_produce_replayable_results():
    # on arbitrary-genus random maps, whatever the prover returns must replay,
    # and normalization either certifies or names its blocked sub-goal
    import random

    from walkmaps import SearchBudget as _Budget

    from .oracles import random_graph, random_walk
    from .test_embedding import _random_map

    rng = random.Random(4242)
    budget = _Budget(max_len=8, max_states=2000)
    for _ in range(30):
        g = random_graph(rng, max_nodes=4, max_edges=5)
        if g.edge_count == 0:
            continue
        m = _random_map(rng, g)
        for _ in range(6):
            w1 = random_walk(rng, g, 3, symmetric=True)
            w2 = random_walk(rng, g, 3, symmetric=True)
            if (w1.start, w1.end) == (w2.start, w2.end):
                cert = prove_homotopic(m, w1, w2, budget)
                if cert is not None:
                    replay_certificate(m, cert)
            res = normalize_homotopy(m, w1, budget)
            if isinstance(res, Inconclusive):
                src, dst = res.subgoal
                assert src.start == src.end and src.length > 0 and is_quasi_simple(src)
                assert dst == trivial(g, src.start, symmetric=True)
            else:
                replay_certificate(m, res.certificate)
                nf, trace = normalize(w1)
                assert (res.walk, res.trace) == (nf, trace)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_engine_successors_are_walks_one_move_away(data):
    # successor states skip Walk validation; decoded, each must be a valid
    # walk with the same endpoints, and the move it names must produce it
    from walkmaps.homotopy import HomotopyMove, _codes, _darts, _MoveEngine

    from .strategies import graphs

    g = data.draw(graphs(max_nodes=4, max_edges=5))
    rotation = {x: data.draw(st.permutations(incident_darts(g, x))) for x in range(g.node_count)}
    m = build_rotation_map(g, rotation)
    x = data.draw(st.integers(0, g.node_count - 1))
    steps = []
    for _ in range(data.draw(st.integers(0, 4))):
        options = incident_darts(g, x if not steps else g.head(steps[-1]))
        if not options:
            break
        steps.append(data.draw(st.sampled_from(options)))
    w = Walk(g, x, tuple(steps), symmetric=True)
    max_len = data.draw(st.integers(w.length, w.length + 6))
    for (face, a, b, direction), i, nxt in _MoveEngine(m).successors(x, _codes(w.steps), max_len):
        moved = Walk(g, x, _darts(nxt), symmetric=True)
        assert moved.end == w.end and moved.length <= max_len
        assert apply_hcollapse(m, w, HomotopyMove(face, a, b, i, direction)) == moved


def test_checkers_agree_whenever_two_are_conclusive():
    import random

    from .oracles import random_graph
    from .test_embedding import _random_map

    edgeless = [build_rotation_map(build_graph(n, []), {}) for n in (0, 1, 2)]
    sphere_and_point = build_rotation_map(build_graph(2, [(0, 0)]), {0: [Dart(0), Dart(0, False)]})
    maps = [*all_fixture_maps().values(), *edgeless, sphere_and_point]
    rng = random.Random(3)
    maps += [_random_map(rng, random_graph(rng, max_nodes=4, max_edges=4)) for _ in range(30)]
    for m in maps:
        budget = SearchBudget(max_len=default_budget(m).max_len, max_states=4000)
        verdicts = {
            "quasi": check_spherical_quasi(m, budget).status,
            "bounded": check_spherical_bounded(m, m.graph.node_count, budget).status,
            "euler": check_spherical_euler(m).status,
        }
        conclusive = {v for v in verdicts.values() if v != "inconclusive"}
        assert len(conclusive) <= 1, (m, verdicts)
    assert check_spherical_euler(edgeless[0]).status == "inconclusive"
    assert check_spherical_euler(edgeless[1]).status == "spherical"
    assert check_spherical_quasi(edgeless[1]).status == "spherical"


def test_quasi_verdicts_match_euler_on_random_maps():
    # seeded sweep over random connected maps of genus 0, 1 and 2: the
    # certificate search proves sphericity exactly on the genus-0 ones
    import random

    from walkmaps import build_graph, build_rotation_map, euler_characteristic, incident_darts, is_connected
    from walkmaps.homotopy import default_budget

    rng = random.Random(20240810)
    seen = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        edge_count = rng.randint(1, 6)
        g = build_graph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(edge_count)])
        if not is_connected(g):
            continue
        rotation = {}
        for x in range(n):
            darts = list(incident_darts(g, x))
            rng.shuffle(darts)
            rotation[x] = darts
        m = build_rotation_map(g, rotation)
        chi = euler_characteristic(m)
        budget = SearchBudget(max_len=default_budget(m).max_len, max_states=4000)
        verdict = check_spherical_quasi(m, budget)
        assert (verdict.status == "spherical") == (chi == 2)
        if verdict.status != "spherical":
            assert verdict.witness is not None
        seen += 1
    assert seen >= 25


def test_certificates_replay_across_fixtures():
    import itertools

    from walkmaps import enumerate_all_qswalks

    for name, m in spherical_fixture_maps().items():
        g = m.graph
        for x, y in itertools.product(range(g.node_count), repeat=2):
            walks = enumerate_all_qswalks(g, x, y, symmetric=True)
            for w1, w2 in itertools.combinations(walks, 2):
                cert = prove_homotopic(m, w1, w2)
                assert cert is not None, (name, str(w1), str(w2))
                assert cert.source == w1 and cert.target == w2
                replay_certificate(m, cert)


def _reference_maps() -> list:
    # the fixtures plus seeded random connected maps of genus 0, 1 and 2
    import random

    from walkmaps import euler_characteristic, is_connected

    maps = list(all_fixture_maps().values())
    rng = random.Random(20261018)
    while len(maps) < 25:
        n = rng.randint(1, 4)
        g = build_graph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 5))])
        if not is_connected(g):
            continue
        rotation = {}
        for x in range(n):
            darts = list(incident_darts(g, x))
            rng.shuffle(darts)
            rotation[x] = darts
        m = build_rotation_map(g, rotation)
        if euler_characteristic(m) in (2, 0, -2):
            maps.append(m)
    return maps


def _keyed(status, witness, pairs) -> tuple:
    return (status, witness and tuple(w.key() for w in witness), pairs)


def test_checkers_match_the_per_pair_reference():
    # one enumeration per start node, split by end node, must see the pairs,
    # witnesses and certificates of the plain loop over every node pair
    statuses = set()
    for m in _reference_maps():
        budget = SearchBudget(max_len=default_budget(m).max_len, max_states=2000)
        ours, theirs = [], []
        v = check_spherical_quasi(m, budget, ours)
        expected = reference_check_quasi(m, budget, theirs)
        assert _keyed(v.status, v.witness, v.pairs_checked) == _keyed(*expected)
        assert ours == theirs
        ours, theirs = [], []
        v = check_spherical_bounded(m, 3, budget, ours)
        expected = reference_check_bounded(m, 3, budget, theirs)
        assert _keyed(v.status, v.witness, v.pairs_checked) == _keyed(*expected)
        assert ours == theirs
        statuses.add(v.status)
    assert statuses == {"spherical", "not_spherical"}
