"""The benchmark's in-process probes run on the library without raising.

A traced benchmark run replays each task's public calls in process
(``bench/probes.py``); an exception there ends the whole run. This test
runs the probes of the probe set and of every ``torus-cap`` task, the
workload whose capped searches reach the most homotopy code.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import probes  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_probes_run_on_probe_set_and_torus_cap(tmp_path):
    tasks = corpus.write(tmp_path, "torus-cap", 1)
    tracer, seen = Tracer(), set()
    for task in tasks:
        probes.probe(task, tmp_path, None, tracer, seen)
    assert {task["argv"][1] for task in tasks} == seen
    assert tracer.counters["homotopy.cap_searches"] > 0
