"""End-to-end CLI tests: exit codes, report shape, golden outputs."""

from __future__ import annotations

import json
import os

import pytest

from walkmaps.cli import (
    EXIT_BAD_JSON,
    EXIT_BAD_ROTATION,
    EXIT_BAD_SCHEMA,
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
    report, code = _run(["normalize", "pathloop.json", "--walk", "0:zz"], capsys, monkeypatch)
    assert code == EXIT_USAGE
    assert any(d.strip() == "^" or d.endswith("^") for d in report["diagnostics"])


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
