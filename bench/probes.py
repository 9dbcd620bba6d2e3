"""In-process probes: the public calls one CLI task makes, timed layer by layer.

The CLI child is opaque to the benchmark, and some layers only run inside
another layer's public call (enumeration inside ``check_spherical_quasi``,
``trace_faces`` inside every move). So after a task, its probe repeats the
task's work through the public API on the same input, one span per call,
outside the task's own span. Counters record the work each call did.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path

from walkmaps import (
    build_graph,
    build_rotation_map,
    check_spherical_bounded,
    check_spherical_euler,
    check_spherical_quasi,
    default_budget,
    enumerate_all_qswalks,
    incident_darts,
    iter_walks_up_to,
    normalize,
    parse_walk,
    prove_homotopic,
    trace_faces,
)
from walkmaps.cli import parse_map_document
from walkmaps.homotopy import SearchBudget


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _budget(argv, m):
    # the CLI's budget: default_budget, with --max-states when given
    base = default_budget(m)
    return SearchBudget(base.max_len, int(_flag(argv, "--max-states", base.max_states)))


def probe(task: dict, corpus_dir: Path, report, tracer, seen_files: set) -> None:
    """Replay ``task``'s public calls in process.

    ``report`` is the CLI's JSON report or None. The calls that depend only
    on the input file run for the first task on each file; ``seen_files``
    holds the files done so far.
    """
    argv, tid = task["argv"], task["id"]
    span = tracer.span
    text = (corpus_dir / argv[1]).read_text(encoding="utf-8")
    fresh = argv[1] not in seen_files
    seen_files.add(argv[1])
    with span("cli.parse_map_document", tid) if fresh else nullcontext():
        doc = parse_map_document(text)
    g, m = doc.graph, doc.rotation_map
    if fresh:
        raw = json.loads(text)
        with span("graph.build_map", tid):
            built = build_graph(raw["nodes"], [tuple(e) for e in raw["edges"]])
            if m is not None:
                build_rotation_map(built, {x: m.rotation_at(x).elements for x in range(g.node_count)})
        with span("graph.incident_darts", tid):
            for x in range(g.node_count):
                incident_darts(g, x)
        tracer.add("graph.incident_darts", g.node_count)
        if m is not None:
            with span("embedding.trace_faces", tid):
                trace_faces(m)
    command = argv[0]
    method = _flag(argv, "--method")
    if command == "check-spherical" and method == "quasi":
        walks = 0
        with span("enumeration.enumerate_all_qswalks", tid):
            for x in range(g.node_count):
                for y in range(g.node_count):
                    walks += len(enumerate_all_qswalks(g, x, y, symmetric=True))
        tracer.add("enumeration.qs_walks", walks)
        budget = _budget(argv, m)
        with span("homotopy.check_spherical_quasi", tid):
            verdict = check_spherical_quasi(m, budget)
        tracer.add("homotopy.quasi_pairs", verdict.pairs_checked)
    elif command == "check-spherical" and method == "bounded":
        max_len = int(_flag(argv, "--max-len"))
        walks = 0
        with span("enumeration.iter_walks_up_to", tid):
            for x in range(g.node_count):
                for y in range(g.node_count):
                    walks += sum(1 for _ in iter_walks_up_to(g, max_len, x, y, symmetric=True))
        tracer.add("enumeration.walks_up_to", walks)
        base = default_budget(m)
        with span("homotopy.check_spherical_bounded", tid):
            verdict = check_spherical_bounded(m, max_len, base, [])
        tracer.add("homotopy.bounded_pairs", verdict.pairs_checked)
    elif command == "check-spherical":
        with span("homotopy.check_spherical_euler", tid):
            check_spherical_euler(m)
    elif command == "homotopic":
        with span("walk.parse_walk", tid):
            w1 = parse_walk(g, _flag(argv, "--w1"))
            w2 = parse_walk(g, _flag(argv, "--w2"))
        tracer.add("walk.parse_walk", 2)
        with span("homotopy.prove_homotopic", tid):
            cert = prove_homotopic(m, w1, w2, _budget(argv, m))
        if cert is None:
            tracer.add("homotopy.cap_search_s", tracer.durations("homotopy.prove_homotopic")[-1])
            tracer.add("homotopy.cap_searches")
    elif command == "walks":
        x, y = int(_flag(argv, "--from")), int(_flag(argv, "--to"))
        if "--quasi-only" in argv:
            with span("enumeration.enumerate_all_qswalks", tid):
                walks = len(enumerate_all_qswalks(g, x, y))
            tracer.add("enumeration.qs_walks", walks)
        else:
            with span("enumeration.iter_walks_up_to", tid):
                walks = sum(1 for _ in iter_walks_up_to(g, int(_flag(argv, "--max-len")), x, y))
            tracer.add("enumeration.walks_up_to", walks)
        listed = report["result"]["walks"] if report else []
        with span("walk.parse_walk", tid):
            for text in listed:
                parse_walk(g, text, symmetric=False)
        tracer.add("walk.parse_walk", len(listed))
    elif command == "normalize":
        with span("walk.parse_walk", tid):
            w = parse_walk(g, _flag(argv, "--walk"))
        tracer.add("walk.parse_walk")
        try:
            with span("rewrite.normalize", tid):
                normalize(w)
        except RecursionError:
            tracer.add("rewrite.failed")
            tracer.add("rewrite.failed_s", tracer.durations("rewrite.normalize")[-1])
        else:
            tracer.add("rewrite.normalize_darts", w.length)
