"""Face tracing, Euler characteristic, and the boundary walks between two positions."""

from __future__ import annotations

import pytest

from walkmaps import (
    CyclicOrder,
    Dart,
    RotationError,
    RotationMap,
    ValidationError,
    Walk,
    build_rotation_map,
    compose,
    euler_characteristic,
    symmetrise,
    trace_faces,
    trivial,
)
from walkmaps.embedding import _boundary_segments

from .fixtures import (
    all_fixture_maps,
    digon_graph,
    digon_map,
    k4sphere_map,
    loop1_graph,
    loop1_map,
    torus2_map,
    triangle_map,
)

EXPECTED_FACES = {
    "LOOP1": [["e0+"], ["e0-"]],
    "DIGON": [["e0+", "e1-"], ["e0-", "e1+"]],
    "TRIANGLE": [["e0+", "e1+", "e2+"], ["e0-", "e2-", "e1-"]],
    "TORUS2": [["e0+", "e1-", "e0-", "e1+"]],
    "K4SPHERE": [
        ["e0+", "e1+", "e2+"],
        ["e0-", "e3+", "e4-"],
        ["e1-", "e4+", "e5-"],
        ["e2-", "e5+", "e3-"],
    ],
}

EXPECTED_EULER = {"LOOP1": 2, "DIGON": 2, "TRIANGLE": 2, "TORUS2": 0, "K4SPHERE": 2}


def test_face_boundaries_match_hand_traced_orbits():
    for name, m in all_fixture_maps().items():
        got = [[str(d) for d in f.boundary] for f in trace_faces(m)]
        assert got == EXPECTED_FACES[name], name


def test_euler_characteristic_fixture_values():
    for name, m in all_fixture_maps().items():
        assert euler_characteristic(m) == EXPECTED_EULER[name], name


def test_faces_partition_the_darts():
    for name, m in all_fixture_maps().items():
        seen = [d for f in trace_faces(m) for d in f.boundary]
        assert len(seen) == 2 * m.graph.edge_count
        assert sorted(seen, key=lambda d: d.sort_key) == sorted(
            symmetrise(m.graph), key=lambda d: d.sort_key
        )


def test_face_successor_consistency():
    for m in all_fixture_maps().values():
        for f in trace_faces(m):
            n = len(f.boundary)
            for i, d in enumerate(f.boundary):
                nxt = f.boundary[(i + 1) % n]
                assert m.face_successor(d) == nxt
                assert m.graph.tail(nxt) == m.graph.head(d)


def test_tracing_is_independent_of_rotation_list_phase():
    g = digon_graph()
    base = digon_map()
    rotated = build_rotation_map(
        g, {0: [Dart(1), Dart(0)], 1: [Dart(0, False), Dart(1, False)]}
    )
    assert trace_faces(rotated) == trace_faces(base)


def test_build_rotation_map_rejects_bad_orders():
    g = loop1_graph()
    with pytest.raises(RotationError, match="node 0"):
        build_rotation_map(g, {0: [Dart(0, True), Dart(0, True)]})
    with pytest.raises(RotationError, match="missing"):
        build_rotation_map(g, {0: [Dart(0, True)]})
    with pytest.raises(RotationError, match="foreign"):
        build_rotation_map(g, {0: [Dart(0, True), Dart(0, False), Dart(9, True)]})


def test_rotation_map_constructor_rejects_a_foreign_dart():
    # node 0 also lists e0-, which is node 1's; tracing such a map never ends
    g = digon_graph()
    bad = (
        CyclicOrder((Dart(0, True), Dart(1, True), Dart(0, False))),
        CyclicOrder((Dart(0, False), Dart(1, False))),
    )
    with pytest.raises(RotationError, match="node 0: foreign dart e0-"):
        RotationMap(g, bad)


def test_rotation_map_constructor_takes_plain_lists_and_needs_one_per_node():
    g = digon_graph()
    lists = [[Dart(0, True), Dart(1, True)], [Dart(1, False), Dart(0, False)]]
    m = RotationMap(g, lists)
    assert m == digon_map()
    assert all(isinstance(r, CyclicOrder) for r in m.rotations)
    with pytest.raises(ValidationError, match="one order per node"):
        RotationMap(g, lists[:1])


def _boundary_walks(m, face, a, b):
    # the two walks of ``_boundary_segments``, from the node under position ``a``
    cw, ccw = _boundary_segments(m, face, a, b)
    start = m.graph.tail(m.faces[face].boundary[a])
    return Walk(m.graph, start, cw, True), Walk(m.graph, start, ccw, True)


def test_boundary_walks_equal_anchor():
    m = loop1_map()
    cw, ccw = _boundary_walks(m, 0, 0, 0)
    assert cw == Walk(m.graph, 0, (Dart(0),), symmetric=True)
    assert ccw == trivial(m.graph, 0, symmetric=True)


def test_boundary_walks_digon():
    m = digon_map()
    # position 0 is the tail of e0+, node 0; position 1 the tail of e1-, node 1
    cw, ccw = _boundary_walks(m, 0, 0, 1)
    assert cw.steps == (Dart(0),)
    assert ccw.steps == (Dart(1),)
    assert (cw.start, cw.end) == (0, 1) == (ccw.start, ccw.end)


def test_boundary_walks_compose_to_full_boundary():
    for m in (digon_map(), triangle_map(), k4sphere_map(), torus2_map()):
        for f in trace_faces(m):
            n = len(f.boundary)
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    cw_ab, _ = _boundary_walks(m, f.id, a, b)
                    cw_ba, _ = _boundary_walks(m, f.id, b, a)
                    loop = compose(cw_ab, cw_ba)
                    assert loop.length == n
                    assert loop.steps == f.boundary[a:] + f.boundary[:a]


def test_boundary_walk_endpoints():
    m = k4sphere_map()
    g = m.graph
    for f in trace_faces(m):
        for a in range(len(f.boundary)):
            for b in range(len(f.boundary)):
                cw, ccw = _boundary_walks(m, f.id, a, b)
                assert cw.start == ccw.start == g.tail(f.boundary[a])
                assert cw.end == ccw.end == g.tail(f.boundary[b])
                if a != b:
                    assert cw.length + ccw.length == len(f.boundary)


def test_boundary_walks_rejects_bad_position():
    m = digon_map()
    with pytest.raises(ValueError, match="position"):
        _boundary_segments(m, 0, 5, 0)


def test_euler_is_even_and_at_most_two_on_connected_fixtures():
    for m in all_fixture_maps().values():
        chi = euler_characteristic(m)
        assert chi <= 2 and chi % 2 == 0


def _random_map(rng, g):
    from walkmaps import incident_darts

    rotation = {}
    for x in range(g.node_count):
        darts = list(incident_darts(g, x))
        rng.shuffle(darts)
        rotation[x] = darts
    return build_rotation_map(g, rotation)


def test_random_rotations_trace_valid_embeddings():
    import random

    from walkmaps import is_connected

    from .oracles import random_graph

    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng)
        m = _random_map(rng, g)
        faces = trace_faces(m)
        assert m.faces == faces
        assert RotationMap(g, m.rotations).faces == faces
        seen = [d for f in faces for d in f.boundary]
        assert len(seen) == 2 * g.edge_count
        assert len(set(seen)) == len(seen)
        if is_connected(g):
            chi = euler_characteristic(m)
            assert chi <= 2 and chi % 2 == 0
