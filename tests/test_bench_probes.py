"""The benchmark's in-process probes run on the library without raising.

A traced benchmark run replays each task's public calls in process
(``bench/probes.py``); an exception there ends the whole run. This test
runs the probes of every task of every workload, with the probe set, as a
traced run does. A ``walks`` task's probe also parses the walks that the
CLI listed, so it gets the report the CLI prints for the task.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from walkmaps import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import probes  # noqa: E402
from tracing import Tracer  # noqa: E402


def _report(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run(argv)
    return json.loads(out.getvalue())


def _probe_workload(workload, seed, tmp_path, monkeypatch) -> Tracer:
    tasks = corpus.write(tmp_path, workload, seed)
    monkeypatch.chdir(tmp_path)  # task argv names files relative to the corpus
    tracer, seen, listed = Tracer(), set(), 0
    for task in tasks:
        report = None
        if task["argv"][0] == "walks":
            report = _report(task["argv"])
            listed += len(report["result"]["walks"])
        probes.probe(task, tmp_path, report, tracer, seen)
    assert {task["argv"][1] for task in tasks} == seen
    assert listed > 0
    return tracer


def test_probes_run_on_probe_set_and_torus_cap(tmp_path, monkeypatch):
    tracer = _probe_workload("torus-cap", 1, tmp_path, monkeypatch)
    assert tracer.counters["homotopy.cap_searches"] > 0


@pytest.mark.parametrize(
    "workload,seed",
    [(name, 1) for name in corpus.WORKLOADS if name != "torus-cap"]
    + [("torus-cap", 2)],
)
def test_probes_run_on_every_task(workload, seed, tmp_path, monkeypatch):
    tracer = _probe_workload(workload, seed, tmp_path, monkeypatch)
    if workload == "torus-cap":
        assert tracer.counters["homotopy.cap_searches"] > 0
