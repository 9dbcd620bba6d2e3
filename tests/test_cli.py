"""End-to-end CLI tests: exit codes, report shape, golden outputs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import walkmaps
from walkmaps import build_graph, compact, normalize, parse_walk
from walkmaps.cli import (
    EXIT_BAD_JSON,
    EXIT_BAD_ROTATION,
    EXIT_BAD_SCHEMA,
    EXIT_CLOSED_PIPE,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    MapDocument,
    parse_map_document,
    run,
)

from .fixtures import DATA_DIR, GOLDEN_DIR

UPDATE = os.environ.get("UPDATE_GOLDENS") == "1"

GOLDEN_CASES = [
    ("loop1_validate", ["validate", "loop1.json"], EXIT_OK),
    ("pathloop_validate", ["validate", "pathloop.json"], EXIT_OK),
    ("loop1_faces", ["faces", "loop1.json"], EXIT_OK),
    ("digon_faces", ["faces", "digon.json"], EXIT_OK),
    ("triangle_faces", ["faces", "triangle.json"], EXIT_OK),
    ("torus2_faces", ["faces", "torus2.json"], EXIT_OK),
    ("k4sphere_faces", ["faces", "k4sphere.json"], EXIT_OK),
    ("loop1_euler", ["euler", "loop1.json"], EXIT_OK),
    ("torus2_euler", ["euler", "torus2.json"], EXIT_OK),
    ("k4sphere_euler", ["euler", "k4sphere.json"], EXIT_OK),
    ("loop1_walks", ["walks", "loop1.json", "--from", "0", "--to", "0", "--quasi-only"], EXIT_OK),
    ("digon_walks", ["walks", "digon.json", "--from", "0", "--to", "1", "--quasi-only"], EXIT_OK),
    ("pathloop_walks", ["walks", "pathloop.json", "--from", "0", "--to", "2"], EXIT_OK),
    ("triangle_walks_all", ["walks", "triangle.json", "--from", "0", "--to", "0", "--max-len", "4"], EXIT_OK),
    ("dense3x2_walks_quasi", ["walks", "dense3x2.json", "--from", "0", "--to", "1", "--quasi-only"], EXIT_OK),
    ("dense3x2_walks_len3", ["walks", "dense3x2.json", "--from", "0", "--to", "0", "--max-len", "3"], EXIT_OK),
    ("pathloop_normalize", ["normalize", "pathloop.json", "--walk", "0:e0+,e1+,e2+"], EXIT_OK),
    ("loop1_normalize", ["normalize", "loop1.json", "--walk", "0:e0+"], EXIT_OK),
    ("digon_homotopic", ["homotopic", "digon.json", "--w1", "0:e0+", "--w2", "0:e1+"], EXIT_OK),
    ("torus2_homotopic", ["homotopic", "torus2.json", "--w1", "0:e0+", "--w2", "0:e1+"], EXIT_NEGATIVE),
    ("digon_spherical_quasi", ["check-spherical", "digon.json"], EXIT_OK),
    ("digon_spherical_bounded", ["check-spherical", "digon.json", "--method", "bounded"], EXIT_OK),
    ("k4_spherical_quasi", ["check-spherical", "k4sphere.json"], EXIT_OK),
    ("torus2_spherical_euler", ["check-spherical", "torus2.json", "--method", "euler"], EXIT_NEGATIVE),
    ("torus2_spherical_quasi", ["check-spherical", "torus2.json"], EXIT_NEGATIVE),
]


def _run(argv, capsys, monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    code = run(argv)
    out = capsys.readouterr().out
    return json.loads(out), code


def _stripped(report: dict) -> dict:
    clean = dict(report)
    clean.pop("wall_time_ms", None)
    return clean


@pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs(name, argv, expected_code, capsys, monkeypatch):
    report, code = _run(argv, capsys, monkeypatch)
    assert code == expected_code
    payload = {"exit_code": code, "report": _stripped(report)}
    path = GOLDEN_DIR / f"{name}.json"
    if UPDATE:
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert payload == expected


@pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES[:6], ids=[c[0] for c in GOLDEN_CASES[:6]])
def test_reports_are_stable_across_runs(name, argv, expected_code, capsys, monkeypatch):
    first, _ = _run(argv, capsys, monkeypatch)
    second, _ = _run(argv, capsys, monkeypatch)
    assert _stripped(first) == _stripped(second)


def test_walks_on_a_long_cycle_exit_ok(capsys, monkeypatch):
    # the directed 3-cycle has one walk from 0 to 0 per multiple of 3 steps
    argv = ["walks", "triangle.json", "--from", "0", "--to", "0", "--max-len", "1200"]
    report, code = _run(argv, capsys, monkeypatch)
    assert code == EXIT_OK
    assert report["result"]["count"] == 401


def test_report_has_contract_keys(capsys, monkeypatch):
    report, _ = _run(["euler", "loop1.json"], capsys, monkeypatch)
    assert set(report) == {"command", "result", "diagnostics", "wall_time_ms"}


def test_malformed_json_exits_2(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = run(["validate", "bad.json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_BAD_JSON
    assert any("malformed JSON" in d for d in report["diagnostics"])


def test_schema_violation_exits_3(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "schema.json"
    doc.write_text(json.dumps({"nodes": 2, "edges": [[0, 5]]}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = run(["validate", "schema.json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_BAD_SCHEMA
    assert any("edge 0" in d for d in report["diagnostics"])


def test_non_decimal_rotation_key_exits_3(tmp_path, capsys, monkeypatch):
    # "\u00b2" (superscript two) is a digit to str.isdigit but not to int()
    doc = tmp_path / "key.json"
    doc.write_text(json.dumps({"nodes": 1, "edges": [], "rotation": {"\u00b2": []}}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = run(["validate", "key.json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_BAD_SCHEMA
    assert report["diagnostics"] == ["rotation key '\u00b2' is not a node id"]


def test_foreign_rotation_dart_exits_4(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "rot.json"
    doc.write_text(
        json.dumps({"nodes": 1, "edges": [[0, 0]], "rotation": {"0": ["e0+", "e0-", "9+"]}}),
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    code = run(["validate", "rot.json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_BAD_ROTATION
    assert any("node 0" in d and "e9+" in d for d in report["diagnostics"])


BAD_DOCUMENTS = [
    ("no-nodes", {"edges": []}, EXIT_BAD_SCHEMA, "missing field 'nodes'"),
    ("negative-nodes", {"nodes": -1, "edges": []}, EXIT_BAD_SCHEMA, "field 'nodes' must be"),
    ("boolean-nodes", {"nodes": True, "edges": []}, EXIT_BAD_SCHEMA, "field 'nodes' must be"),
    ("edges-object", {"nodes": 1, "edges": {}}, EXIT_BAD_SCHEMA, "field 'edges' must be"),
    ("edge-triple", {"nodes": 3, "edges": [[0, 1, 2]]}, EXIT_BAD_SCHEMA, "edge 0 must be a pair"),
    ("rotation-list", {"nodes": 1, "edges": [], "rotation": []}, EXIT_BAD_SCHEMA, "field 'rotation' must be"),
    (
        "rotation-not-list",
        {"nodes": 1, "edges": [[0, 0]], "rotation": {"0": "e0+"}},
        EXIT_BAD_ROTATION,
        "rotation at node 0 must be a list",
    ),
    (
        "bad-dart-literal",
        {"nodes": 1, "edges": [[0, 0]], "rotation": {"0": ["zz"]}},
        EXIT_BAD_ROTATION,
        "bad dart literal 'zz'",
    ),
    (
        "unknown-rotation-node",
        {"nodes": 1, "edges": [], "rotation": {"5": []}},
        EXIT_BAD_ROTATION,
        "rotation given for unknown node 5",
    ),
    ("unreadable", None, EXIT_BAD_SCHEMA, "cannot read doc.json"),  # no file written
]


@pytest.mark.parametrize(
    "name,doc,expected_code,fragment", BAD_DOCUMENTS, ids=[c[0] for c in BAD_DOCUMENTS]
)
def test_bad_document_exits_with_its_code(
    name, doc, expected_code, fragment, tmp_path, capsys, monkeypatch
):
    if doc is not None:
        (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = run(["validate", "doc.json"])
    report = json.loads(capsys.readouterr().out)
    assert code == expected_code
    assert report["result"] == {}
    [message] = report["diagnostics"]
    assert fragment in message


PATH_GRAPH = {"nodes": 3, "edges": [[0, 1], [1, 2]]}  # 0 -> 1 -> 2


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["homotopic", "digon.json", "--w1", "0:e0+", "--w2", "0:"], "walks do not share endpoints"),
        (["normalize", "path.json", "--walk", "0:e1+"], "starts at 1, expected 0"),
        (["normalize", "path.json", "--walk", "0:e9+"], "unknown edge in e9+"),
        (["normalize", "path.json", "--walk", "7:"], "walk start 7 out of range"),
    ],
    ids=["homotopic-endpoints", "adjacency", "unknown-edge", "start-out-of-range"],
)
def test_library_value_error_exits_3(argv, fragment, tmp_path, capsys, monkeypatch):
    (tmp_path / "path.json").write_text(json.dumps(PATH_GRAPH), encoding="utf-8")
    (tmp_path / "digon.json").write_bytes((DATA_DIR / "digon.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    code = run(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_BAD_SCHEMA
    assert report["result"] == {}
    [message] = report["diagnostics"]
    assert fragment in message


def test_walk_count_check_stops_where_no_walk_goes_on(tmp_path, capsys, monkeypatch):
    # no walk on the path graph has 3 steps, so the count ends there, far below --max-len
    (tmp_path / "path.json").write_text(json.dumps(PATH_GRAPH), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = run(["walks", "path.json", "--from", "0", "--to", "2", "--max-len", "50"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["result"]["walks"] == ["0:e0+,e1+"]
    assert report["result"]["count"] == 1


def test_map_command_on_graph_only_document_exits_3(capsys, monkeypatch):
    _, code = _run(["faces", "pathloop.json"], capsys, monkeypatch)
    assert code == EXIT_BAD_SCHEMA


def test_unknown_command_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", "x.json"])
    assert exc.value.code == EXIT_USAGE


def test_seed_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--seed", "7", "euler", "loop1.json"])
    assert exc.value.code == EXIT_USAGE


def test_bad_walk_spec_exits_64_with_caret(capsys, monkeypatch):
    # "\u00b2" (superscript two) is a digit to str.isdigit but not to int();
    # the caret column indexes the spec as given, leading blanks included
    for spec, column in (("0:zz", 2), ("\u00b2:", 0), (" 0:zz", 3), ("  x:zz", 2)):
        report, code = _run(["normalize", "pathloop.json", "--walk", spec], capsys, monkeypatch)
        assert code == EXIT_USAGE
        assert any(d.strip() == "^" or d.endswith("^") for d in report["diagnostics"])
        assert report["diagnostics"][-2:] == [spec, " " * column + "^"]


def test_pretty_flag_does_not_change_exit_code_or_payload(capsys, monkeypatch):
    plain, code_plain = _run(["euler", "torus2.json"], capsys, monkeypatch)
    pretty, code_pretty = _run(["--pretty", "euler", "torus2.json"], capsys, monkeypatch)
    assert code_plain == code_pretty
    assert _stripped(plain) == _stripped(pretty)


def test_walks_quasi_only_respects_max_len(capsys, monkeypatch):
    all_quasi, _ = _run(
        ["walks", "triangle.json", "--from", "0", "--to", "0", "--quasi-only"],
        capsys,
        monkeypatch,
    )
    capped, _ = _run(
        ["walks", "triangle.json", "--from", "0", "--to", "0", "--quasi-only", "--max-len", "0"],
        capsys,
        monkeypatch,
    )
    assert all_quasi["result"]["walks"] == ["0:", "0:e0+,e1+,e2+"]
    assert capped["result"]["walks"] == ["0:"]


@pytest.mark.parametrize(
    "argv",
    [
        # 4 out-darts at every node: sum of 4**n for n <= 12 is 22,369,621 walks
        ["walks", "dense3x2.json", "--from", "0", "--to", "1", "--max-len", "12"],
        # 4 starts, 3 darts each: 4 * sum of 3**n for n <= 12 is 3,188,644 walks
        ["check-spherical", "k4sphere.json", "--method", "bounded", "--max-len", "12"],
    ],
    ids=["walks", "bounded"],
)
def test_oversized_enumeration_exits_64(argv, capsys, monkeypatch):
    report, code = _run(argv, capsys, monkeypatch)
    assert code == EXIT_USAGE
    assert report["result"] == {}
    [message] = report["diagnostics"]
    assert "more than 1,000,000" in message and "--max-len" in message


def test_duplicate_rotation_keys_exit_3(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "dup.json"
    rotation = {"0": ["e0+", "e0-"], "1": [], "01": []}
    doc.write_text(json.dumps({"nodes": 2, "edges": [[0, 0]], "rotation": rotation}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = run(["validate", "dup.json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_BAD_SCHEMA
    assert report["diagnostics"] == ["rotation keys '1' and '01' both name node 1"]


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"nodes": 1, "edges": [[0, 0]], "rotation": {"0": ["e0+", "e0-"], "0": []}}', "0"),
        ('{"nodes": 1, "nodes": 3, "edges": [[0, 2]]}', "nodes"),
    ],
    ids=["rotation", "nodes"],
)
def test_repeated_json_keys_exit_3(tmp_path, capsys, monkeypatch, text, key):
    # plain JSON parsing would keep the last value and read another document
    (tmp_path / "dup.json").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = run(["validate", "dup.json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_BAD_SCHEMA
    assert report["diagnostics"] == [f"key {key!r} repeated in one JSON object"]


def test_node_out_of_range_exits_3(capsys, monkeypatch):
    _, code = _run(["walks", "digon.json", "--from", "0", "--to", "9"], capsys, monkeypatch)
    assert code == EXIT_BAD_SCHEMA


def test_certificates_dump(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    out = tmp_path / "certs.json"
    code = run(["homotopic", "digon.json", "--w1", "0:e0+", "--w2", "0:e1+", "--certificates", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["result"]["certificates_path"] == str(out)
    certs = json.loads(out.read_text(encoding="utf-8"))
    assert certs[0]["source"] == "0:e0+" and certs[0]["target"] == "0:e1+"
    assert len(certs[0]["moves"]) == 1


def test_check_spherical_certificates_dump(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    out = tmp_path / "sphere_certs.json"
    code = run(["check-spherical", "digon.json", "--certificates", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["result"]["certificates_path"] == str(out)
    certs = json.loads(out.read_text(encoding="utf-8"))
    assert certs and all({"source", "target", "moves"} <= set(c) for c in certs)


def test_bounded_certificate_bytes_match_golden(tmp_path, capsys, monkeypatch):
    # every certificate the bounded checker writes, move for move and byte for byte
    out = tmp_path / "certs.json"
    argv = ["check-spherical", "digon.json", "--method", "bounded", "--certificates", str(out)]
    _, code = _run(argv, capsys, monkeypatch)
    assert code == EXIT_OK
    path = GOLDEN_DIR / "digon_spherical_bounded_certificates.json"
    if UPDATE:
        path.write_bytes(out.read_bytes())
    assert out.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["homotopic", "digon.json", "--w1", "0:e0+", "--w2", "0:e1+"], ["check-spherical", "digon.json"]],
    ids=["homotopic", "check-spherical"],
)
def test_unwritable_certificates_path_exits_64(argv, tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing" / "certs.json"
    report, code = _run(argv + ["--certificates", str(out)], capsys, monkeypatch)
    assert code == EXIT_USAGE
    assert report["result"] == {} and str(out) in report["diagnostics"][0]
    assert not out.parent.exists()


def test_homotopic_on_graph_only_document_exits_3(capsys, monkeypatch):
    _, code = _run(
        ["homotopic", "pathloop.json", "--w1", "0:e0+", "--w2", "0:e0+"], capsys, monkeypatch
    )
    assert code == EXIT_BAD_SCHEMA


def test_document_round_trip():
    for name in ("loop1", "digon", "triangle", "pathloop", "torus2", "k4sphere"):
        text = (DATA_DIR / f"{name}.json").read_text(encoding="utf-8")
        doc = parse_map_document(text)
        again = parse_map_document(json.dumps(doc.to_json()))
        assert doc.to_json() == again.to_json()
        assert isinstance(doc, MapDocument)


def test_parse_document_rejects_non_object():
    import pytest as _pytest

    from walkmaps.cli import SchemaError

    with _pytest.raises(SchemaError):
        parse_map_document("[1, 2]")


def test_budget_env_vars_apply(capsys, monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    monkeypatch.setenv("WALKMAPS_MAX_STATES", "3")
    code = run(["homotopic", "k4sphere.json", "--w1", "0:e0+", "--w2", "0:e3+,e5-,e1-"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_NEGATIVE
    assert report["result"]["status"] == "inconclusive"


NEGATIVE_BUDGET_CASES = [
    ("max_len_flag", ["check-spherical", "k4sphere.json", "--method", "bounded", "--max-len", "-1"], {}),
    ("max_states_flag", ["homotopic", "k4sphere.json", "--w1", "0:e0+", "--w2", "0:e0+", "--max-states", "-1"], {}),
    ("max_len_env", ["homotopic", "k4sphere.json", "--w1", "0:e0+", "--w2", "0:e0+"], {"WALKMAPS_MAX_LEN": "-1"}),
    ("max_states_env", ["check-spherical", "k4sphere.json"], {"WALKMAPS_MAX_STATES": "-1"}),
    ("max_len_env_text", ["homotopic", "k4sphere.json", "--w1", "0:e0+", "--w2", "0:e0+"], {"WALKMAPS_MAX_LEN": "abc"}),
    ("max_states_env_text", ["check-spherical", "k4sphere.json"], {"WALKMAPS_MAX_STATES": "abc"}),
]


@pytest.mark.parametrize(
    "name,argv,env", NEGATIVE_BUDGET_CASES, ids=[c[0] for c in NEGATIVE_BUDGET_CASES]
)
def test_negative_budget_exits_64(name, argv, env, capsys, monkeypatch):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    report, code = _run(argv, capsys, monkeypatch)
    assert code == EXIT_USAGE
    assert report["result"] == {}
    assert any("must be non-negative" in d for d in report["diagnostics"])


def _cli_env() -> dict:
    """The environment for ``python -m walkmaps.cli`` on this checkout's sources."""
    src = str(Path(walkmaps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_closed_stdout_exits_141_without_a_traceback():
    # the pipe's reader is closed before the command starts, so the report
    # cannot be written however small it is
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "walkmaps.cli", "euler", "loop1.json"],
            cwd=DATA_DIR, env=_cli_env(), stdout=write_end, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_CLOSED_PIPE
    assert stderr == b""


def test_normalize_subprocess_on_a_long_walk(tmp_path):
    # a leading loop 0 -> 1 -> 0, a loop-free chain of 2500 edges, and a
    # closing self-loop whose collapse is lifted under the whole chain
    chain = 2500
    edges = [[0, 1], [1, 0], [0, 2]] + [[i, i + 1] for i in range(2, chain + 1)]
    edges.append([chain + 1, chain + 1])
    (tmp_path / "chain.json").write_text(
        json.dumps({"nodes": chain + 2, "edges": edges}), encoding="utf-8"
    )
    text = "0:" + ",".join(f"e{e}+" for e in range(len(edges)))
    proc = subprocess.run(
        [sys.executable, "-m", "walkmaps.cli", "normalize", "chain.json", "--walk", text],
        cwd=tmp_path, env=_cli_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
    w = parse_walk(build_graph(chain + 2, [tuple(e) for e in edges]), text)
    nf, trace = normalize(w)
    assert w.length >= 2000 and len(trace.steps) == 2
    assert json.loads(proc.stdout)["result"] == {
        "input": compact(w),
        "normal_form": compact(nf),
        "trace": [
            {"rule": s.rule, "site": s.site, "before": compact(s.before), "after": compact(s.after)}
            for s in trace.steps
        ],
    }
