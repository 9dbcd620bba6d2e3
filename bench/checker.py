"""Output checker: compares each CLI run with the known answer of its task.

A run is ``ok``, ``undecided`` (it answered ``inconclusive`` where the known
answer is decided) or ``failed``: it crashed, exited with a code the CLI
does not document for that outcome, gave a wrong verdict or output, or
wrote a certificate that does not replay. A ``normalize`` that dies of
RecursionError is a failure of its own kind, ``recursion``, the known
defect of the recursive normalizer on long walks.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from walkmaps import (
    HomotopyCertificate,
    HomotopyMove,
    ReductionStep,
    ReductionTrace,
    compact,
    normalize,
    parse_walk,
    replay_certificate,
)
from walkmaps.cli import parse_map_document

OK, UNDECIDED, FAILED = "ok", "undecided", "failed"


@dataclass(frozen=True)
class Outcome:
    status: str  # OK | UNDECIDED | FAILED
    reason: str = ""
    recursion: bool = False


def load_map(path: Path):
    return parse_map_document(path.read_text(encoding="utf-8"))


def replay_file(doc, path: Path) -> tuple[int, int]:
    """Parse a certificate file and replay every certificate in it.

    Returns (certificates, moves); raises ValueError on the first one that
    does not replay from its source to its target.
    """
    m = doc.require_map()
    certs = json.loads(path.read_text(encoding="utf-8"))
    moves = 0
    for c in certs:
        cert = HomotopyCertificate(
            parse_walk(m.graph, c["source"]),
            parse_walk(m.graph, c["target"]),
            tuple(HomotopyMove(**mv) for mv in c["moves"]),
        )
        replay_certificate(m, cert)
        moves += len(cert.moves)
    return len(certs), moves


class Checker:
    """Checks runs of one corpus; identical outputs of one task are checked once."""

    def __init__(self, corpus_dir: Path):
        self.dir = corpus_dir
        self._docs: dict[str, object] = {}
        self._seen: dict[tuple, Outcome] = {}

    def doc(self, rel: str):
        if rel not in self._docs:
            self._docs[rel] = load_map(self.dir / rel)
        return self._docs[rel]

    def check(self, task: dict, code: int, stdout: str, stderr: str, replay_error=None) -> Outcome:
        report = _report(stdout)
        if report is not None:
            report.pop("wall_time_ms", None)
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        key = (task["id"], code, digest, replay_error)
        if key not in self._seen:
            self._seen[key] = self._check(task, code, report, stderr, replay_error)
        return self._seen[key]

    def _check(self, task, code, report, stderr, replay_error) -> Outcome:
        command = task["argv"][0]
        if report is None:
            if command == "normalize" and "RecursionError" in stderr:
                return Outcome(FAILED, "normalize: RecursionError", recursion=True)
            return Outcome(FAILED, f"exit {code} without a report: {stderr.strip()[-200:]}")
        result = report["result"]
        expect = task["expect"]
        try:
            if "status" in expect:
                return self._verdict(expect["status"], code, result, replay_error)
            if "homotopic" in expect:
                return self._homotopic(task, expect["homotopic"], code, result)
            if "count" in expect:
                return self._walks(task, expect["count"], code, result)
            return self._normalize(task, code, result)
        except (KeyError, TypeError, ValueError) as err:
            return Outcome(FAILED, f"malformed or invalid output: {err}")

    def _verdict(self, expected, code, result, replay_error) -> Outcome:
        status = result["status"]
        if code != (0 if status == "spherical" else 1):
            return Outcome(FAILED, f"exit {code} for {status}")
        if replay_error is not None:
            return Outcome(FAILED, f"certificate does not replay: {replay_error}")
        if status == "inconclusive":
            return Outcome(UNDECIDED, "inconclusive")
        if status != expected:
            return Outcome(FAILED, f"verdict {status}, known answer {expected}")
        return Outcome(OK)

    def _homotopic(self, task, expected, code, result) -> Outcome:
        status = result["status"]
        if code != (0 if status == "homotopic" else 1):
            return Outcome(FAILED, f"exit {code} for {status}")
        if status == "inconclusive":
            return Outcome(UNDECIDED, "inconclusive")
        if status != "homotopic" or not expected:
            return Outcome(FAILED, f"verdict {status}, known answer homotopic={expected}")
        m = self.doc(task["argv"][1]).require_map()
        argv = task["argv"]
        cert = HomotopyCertificate(
            parse_walk(m.graph, argv[argv.index("--w1") + 1]),
            parse_walk(m.graph, argv[argv.index("--w2") + 1]),
            tuple(HomotopyMove(**mv) for mv in result["moves"]),
        )
        replay_certificate(m, cert)
        return Outcome(OK)

    def _walks(self, task, expected, code, result) -> Outcome:
        argv = task["argv"]
        doc = json.loads((self.dir / argv[1]).read_text(encoding="utf-8"))
        x, y = int(argv[argv.index("--from") + 1]), int(argv[argv.index("--to") + 1])
        quasi = "--quasi-only" in argv
        max_len = int(argv[argv.index("--max-len") + 1]) if "--max-len" in argv else None
        walks = result["walks"]
        if code != 0 or result["count"] != expected or len(walks) != expected:
            return Outcome(FAILED, f"exit {code}, {result['count']} walks, known count {expected}")
        if len(set(walks)) != len(walks):
            return Outcome(FAILED, "duplicate walks")
        for text in walks:
            problem = _walk_problem(doc, text, x, y, quasi, max_len)
            if problem:
                return Outcome(FAILED, f"walk {text}: {problem}")
        return Outcome(OK)

    def _normalize(self, task, code, result) -> Outcome:
        g = self.doc(task["argv"][1]).graph
        w = parse_walk(g, task["argv"][task["argv"].index("--walk") + 1])
        nf, trace = _deep(lambda: normalize(w))
        expected = {
            "input": compact(w),
            "normal_form": compact(nf),
            "trace": [
                {"rule": s.rule, "site": s.site, "before": compact(s.before),
                 "after": compact(s.after)}
                for s in trace.steps
            ],
        }
        if code != 0 or result != expected:
            return Outcome(FAILED, "normal form or trace differs from in-process normalize")
        steps = tuple(
            ReductionStep(s["rule"], s["site"], parse_walk(g, s["before"]), parse_walk(g, s["after"]))
            for s in result["trace"]
        )
        final = _deep(lambda: ReductionTrace(w, steps).replay())
        if compact(final) != result["normal_form"]:
            return Outcome(FAILED, "trace does not replay to the normal form")
        return Outcome(OK)


def _report(stdout: str):
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return report if isinstance(report, dict) and "result" in report else None


def _walk_problem(doc, text, x, y, quasi, max_len):
    """Why ``text`` is not a directed x -> y walk of the requested kind, or None."""
    head, _, rest = text.partition(":")
    at = int(head)
    if at != x:
        return "wrong start"
    visited = []
    for lit in rest.split(",") if rest else []:
        edge, forward = int(lit[1:-1]), lit.endswith("+")
        s, t = doc["edges"][edge]
        if not forward or s != at:
            return f"{lit} does not leave {at}"
        visited.append(at)
        at = t
    if at != y:
        return "wrong end"
    if quasi and len(set(visited)) != len(visited):
        return "not quasi-simple"
    if max_len is not None and len(visited) > max_len:
        return "longer than --max-len"
    return None


def _deep(fn):
    """Run the recursive reference code with room for walks of a few thousand steps."""
    out = {}

    def target():
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)
        try:
            out["value"] = fn()
        except BaseException as err:  # re-raised in the calling thread
            out["error"] = err
        finally:
            sys.setrecursionlimit(limit)

    size = threading.stack_size(256 * 1024 * 1024)
    try:
        worker = threading.Thread(target=target)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(size)
    if "error" in out:
        raise out["error"]
    return out["value"]
