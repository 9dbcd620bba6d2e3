"""Tests of the benchmark itself: corpus determinism, metric names, the checker.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
from checker import FAILED, OK, Checker, load_map, replay_file  # noqa: E402
from walkmaps import cli  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(tmp_path, workload):
    corpus.write(tmp_path / "a", workload, 7)
    corpus.write(tmp_path / "b", workload, 7)
    corpus.write(tmp_path / "c", workload, 8)
    first = _files(tmp_path / "a")
    assert first and first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    names = [*run.E2E, *run.PER_LAYER, *corpus.WORKLOADS]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)


def test_tail_percentile_leaves_ten_tasks_beyond():
    assert run.tail_percentile(corpus.TASKS_PER_PASS) == 66
    assert run.tail_percentile(40) == 75


def _cli(directory, argv, capsys, monkeypatch):
    monkeypatch.chdir(directory)
    code = cli.run(argv)
    return code, capsys.readouterr().out


def _probe_task(tasks, suffix):
    return next(t for t in tasks if t["probe"] and t["id"].endswith(suffix))


def test_checker_rejects_a_corrupted_certificate(tmp_path, capsys, monkeypatch):
    tasks = corpus.write(tmp_path, "bounded-certify", 1)
    task = _probe_task(tasks, "k4-bounded3")
    code, out = _cli(tmp_path, task["argv"], capsys, monkeypatch)
    doc = load_map(tmp_path / task["argv"][1])
    certs_path = tmp_path / task["argv"][-1]
    assert replay_file(doc, certs_path)[1] > 0
    assert Checker(tmp_path).check(task, code, out, "").status == OK

    certs = json.loads(certs_path.read_text(encoding="utf-8"))
    certs[0]["moves"][0]["direction"] = (
        "cw_to_ccw" if certs[0]["moves"][0]["direction"] == "ccw_to_cw" else "ccw_to_cw"
    )
    certs_path.write_text(json.dumps(certs), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        replay_file(doc, certs_path)
    outcome = Checker(tmp_path).check(task, code, out, "", replay_error=str(err.value))
    assert outcome.status == FAILED


def test_checker_rejects_a_wrong_verdict(tmp_path, capsys, monkeypatch):
    tasks = corpus.write(tmp_path, "torus-cap", 1)
    quasi = _probe_task(tasks, "k4-quasi")
    code, out = _cli(tmp_path, quasi["argv"], capsys, monkeypatch)
    checker = Checker(tmp_path)
    assert checker.check(quasi, code, out, "").status == OK
    report = json.loads(out)
    report["result"]["status"] = "not_spherical"
    assert checker.check(quasi, 1, json.dumps(report), "").status == FAILED

    # a homotopic pair the checker knows to be in distinct homology classes
    pair = _probe_task(tasks, "bouquet-g1-a-b")
    code, out = _cli(tmp_path, pair["argv"], capsys, monkeypatch)
    assert checker.check(pair, code, out, "").status == "undecided"
    report = json.loads(out)
    report["result"].update(status="homotopic", moves=[])
    assert checker.check(pair, 0, json.dumps(report), "").status == FAILED


def test_checker_rejects_a_wrong_walk_count(tmp_path, capsys, monkeypatch):
    tasks = corpus.write(tmp_path, "walks-rewrite", 1)
    task = _probe_task(tasks, "dense4-qs-0-1")
    code, out = _cli(tmp_path, task["argv"], capsys, monkeypatch)
    checker = Checker(tmp_path)
    assert checker.check(task, code, out, "").status == OK
    report = json.loads(out)
    report["result"]["walks"].pop()
    report["result"]["count"] -= 1
    assert checker.check(task, code, json.dumps(report), "").status == FAILED


def test_checker_counts_a_normalize_recursion_error_as_the_known_failure(tmp_path):
    tasks = corpus.write(tmp_path, "walks-rewrite", 1)
    task = next(t for t in tasks if t["argv"][0] == "normalize" and not t["probe"])
    outcome = Checker(tmp_path).check(task, 1, "", "Traceback ...\nRecursionError: maximum")
    assert outcome.status == FAILED and outcome.recursion


def test_runner_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "walks-rewrite", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_runner_times_checks_and_stops_its_children():
    # resident memory of the runner that its children must not report as theirs
    ballast = bytearray(128 << 20)
    ballast[::4096] = b"\x01" * len(range(0, len(ballast), 4096))
    runner = run.Runner(ROOT, "walks-rewrite", 0)
    try:
        runner.setup()
        task = next(t for t in runner.probe_tasks() if t["argv"][0] == "walks")
        _, [task_run] = runner.run_pass([task])
    finally:
        runner.close()
    assert task_run.outcome.status == OK
    assert task_run.seconds > 0 and task_run.report_bytes > 0
    assert 0 < task_run.rss_kb < 100 * 1024
    assert runner.launcher.returncode == 0 and not runner.dir.exists()
