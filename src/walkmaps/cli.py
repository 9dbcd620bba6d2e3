"""Command-line interface: map file ingestion, command dispatch, JSON reports.

Every command prints one JSON report to stdout with the keys ``command``,
``result``, ``diagnostics`` and ``wall_time_ms``; payload keys are emitted
sorted, so reports are deterministic apart from the timing field.

Exit codes: 0 success, 1 negative or inconclusive verdict, 2 malformed
JSON, 3 document schema violation (including a map command on a
rotation-less file), 4 rotation validation failure, 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .embedding import (
    RotationError,
    RotationMap,
    build_rotation_map,
    euler_characteristic,
)
from .enumeration import enumerate_all_qswalks, iter_walks_up_to
from .graph import Graph, ValidationError, build_graph, is_connected, parse_dart
from .homotopy import (
    SearchBudget,
    check_spherical_bounded,
    check_spherical_euler,
    check_spherical_quasi,
    default_budget,
    prove_homotopic,
)
from .rewrite import normalize
from .walk import Walk, WalkSpecError, compact, parse_walk

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BAD_JSON = 2
EXIT_BAD_SCHEMA = 3
EXIT_BAD_ROTATION = 4
EXIT_USAGE = 64

ENV_MAX_STATES = "WALKMAPS_MAX_STATES"
ENV_MAX_LEN = "WALKMAPS_MAX_LEN"


class DocumentError(Exception):
    """Document that cannot be turned into a graph or map; carries an exit code."""

    exit_code = EXIT_BAD_SCHEMA


class JsonSyntaxError(DocumentError):
    exit_code = EXIT_BAD_JSON


class SchemaError(DocumentError):
    exit_code = EXIT_BAD_SCHEMA


class RotationDocError(DocumentError):
    exit_code = EXIT_BAD_ROTATION


class UsageError(ValueError):
    """A flag or environment value the command cannot run with; exits 64."""


@dataclass(frozen=True)
class MapDocument:
    """Parsed and validated map file; ``rotation_map`` is None for bare graphs."""

    graph: Graph
    rotation_map: Optional[RotationMap]

    def require_map(self) -> RotationMap:
        if self.rotation_map is None:
            raise SchemaError("document has no rotation; this command needs a full map")
        return self.rotation_map

    def to_json(self) -> dict:
        doc: dict = {
            "nodes": self.graph.node_count,
            "edges": [[e.source, e.target] for e in self.graph.edges],
        }
        if self.rotation_map is not None:
            doc["rotation"] = {
                str(x): [str(d) for d in self.rotation_map.rotation_at(x).elements]
                for x in range(self.graph.node_count)
            }
        return doc


def parse_map_document(text: str) -> MapDocument:
    """Parse the map JSON schema, validating the graph and any rotation.

    Schema: ``{"nodes": N, "edges": [[s,t],...], "rotation": {"<node>":
    ["e3+", ...]}}`` with ``rotation`` optional. Diagnostics name the
    offending field, edge index or node.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise JsonSyntaxError(f"malformed JSON: {err}") from None
    if not isinstance(raw, dict):
        raise SchemaError("document root must be a JSON object")
    for field in ("nodes", "edges"):
        if field not in raw:
            raise SchemaError(f"missing field {field!r}")
    nodes = raw["nodes"]
    if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 0:
        raise SchemaError("field 'nodes' must be a non-negative integer")
    edges = raw["edges"]
    if not isinstance(edges, list):
        raise SchemaError("field 'edges' must be a list of [source, target] pairs")
    pairs = []
    for i, item in enumerate(edges):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise SchemaError(f"edge {i} must be a pair of node ids")
        pairs.append((item[0], item[1]))
    try:
        graph = build_graph(nodes, pairs)
    except ValidationError as err:
        raise SchemaError(str(err)) from None
    if "rotation" not in raw:
        return MapDocument(graph, None)
    rotation_raw = raw["rotation"]
    if not isinstance(rotation_raw, dict):
        raise SchemaError("field 'rotation' must be an object keyed by node id")
    rotation = {}
    for key, listed in rotation_raw.items():
        if not key.isdigit():
            raise SchemaError(f"rotation key {key!r} is not a node id")
        node = int(key)
        if not isinstance(listed, list):
            raise RotationDocError(f"rotation at node {node} must be a list of dart literals")
        darts = []
        for lit in listed:
            try:
                darts.append(parse_dart(str(lit)))
            except ValidationError:
                raise RotationDocError(f"rotation at node {node}: bad dart literal {lit!r}") from None
        rotation[node] = darts
    try:
        rmap = build_rotation_map(graph, rotation)
    except RotationError as err:
        raise RotationDocError(str(err)) from None
    except ValidationError as err:
        raise RotationDocError(str(err)) from None
    return MapDocument(graph, rmap)


def _load_document(path: str) -> MapDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err}") from None
    return parse_map_document(text)


class _Parser(argparse.ArgumentParser):
    """argparse with a 64 exit code for usage problems, per the report contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _budget_from(args, m: RotationMap, use_max_len: bool = True) -> SearchBudget:
    base = default_budget(m)
    max_len = getattr(args, "max_len", None) if use_max_len else None
    if max_len is None:
        max_len = _env_int(ENV_MAX_LEN, base.max_len)
    max_states = getattr(args, "max_states", None)
    if max_states is None:
        max_states = _env_int(ENV_MAX_STATES, base.max_states)
    return SearchBudget(max_len, max_states)


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{name} must be non-negative, got non-integer {raw!r}") from None
    if value < 0:
        raise UsageError(f"{name} must be non-negative, got {value}")
    return value


def _walk_json(w: Walk) -> str:
    return compact(w)


def _build_parser() -> _Parser:
    parser = _Parser(prog="walkmaps", description="Walks, rewriting and embeddings of multigraphs.")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON report")
    parser.add_argument("--seed", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("validate", help="validate a map file")
    p.add_argument("file")

    p = sub.add_parser("faces", help="trace the faces of a map")
    p.add_argument("file")

    p = sub.add_parser("euler", help="Euler characteristic of a map")
    p.add_argument("file")

    p = sub.add_parser("walks", help="enumerate walks between two nodes")
    p.add_argument("file")
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--quasi-only", action="store_true")
    p.add_argument("--max-len", dest="max_len", type=int)

    p = sub.add_parser("normalize", help="normalize a walk, reporting the trace")
    p.add_argument("file")
    p.add_argument("--walk", required=True)

    p = sub.add_parser("homotopic", help="search for a homotopy certificate")
    p.add_argument("file")
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--max-len", dest="max_len", type=int)
    p.add_argument("--max-states", dest="max_states", type=int)
    p.add_argument("--certificates", dest="certificates")

    p = sub.add_parser("check-spherical", help="decide sphericity of a map")
    p.add_argument("file")
    p.add_argument("--method", choices=["quasi", "bounded", "euler"], default="quasi")
    p.add_argument("--max-len", dest="max_len", type=int)
    p.add_argument("--max-states", dest="max_states", type=int)
    p.add_argument("--certificates", dest="certificates")

    return parser


def run(argv: Sequence[str]) -> int:
    """Execute one command, print its JSON report, and return the exit code."""
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    if args.seed is not None:
        parser.error("--seed is reserved: all algorithms are deterministic")
    if args.cmd is None:
        parser.error("a command is required")

    started = time.perf_counter()
    diagnostics: list[str] = []
    result: dict = {}
    code = EXIT_OK
    try:
        result, code = _dispatch(args, diagnostics)
    except WalkSpecError as err:
        caret = " " * err.position + "^"
        diagnostics.extend([str(err), err.text, caret])
        code = EXIT_USAGE
    except UsageError as err:
        diagnostics.append(str(err))
        code = EXIT_USAGE
    except DocumentError as err:
        diagnostics.append(str(err))
        code = err.exit_code
    except (ValidationError, ValueError) as err:
        diagnostics.append(str(err))
        code = EXIT_BAD_SCHEMA
    report = {
        "command": [args.cmd] + _echo_args(args),
        "result": result,
        "diagnostics": diagnostics,
        "wall_time_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    indent = 2 if args.pretty else None
    print(json.dumps(report, sort_keys=True, indent=indent))
    return code


def _echo_args(args) -> list[str]:
    echo = []
    for name in ("file", "src", "dst", "walk", "w1", "w2", "method", "max_len", "max_states"):
        value = getattr(args, name, None)
        if value is not None:
            echo.append(f"{name}={value}")
    if getattr(args, "quasi_only", False):
        echo.append("quasi_only=true")
    return echo


def _dispatch(args, diagnostics: list[str]) -> tuple[dict, int]:
    for flag in ("max_len", "max_states"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise UsageError(f"--{flag.replace('_', '-')} must be non-negative, got {value}")
    doc = _load_document(args.file)
    g = doc.graph

    if args.cmd == "validate":
        return {
            "valid": True,
            "nodes": g.node_count,
            "edge_count": g.edge_count,
            "has_rotation": doc.rotation_map is not None,
            "document": doc.to_json(),
        }, EXIT_OK

    if args.cmd == "faces":
        m = doc.require_map()
        faces = m.faces
        return {
            "faces": [
                {
                    "id": f.id,
                    "boundary": [str(d) for d in f.boundary],
                    "nodes": [g.tail(d) for d in f.boundary],
                }
                for f in faces
            ],
            "count": len(faces),
            "euler_characteristic": euler_characteristic(m),
        }, EXIT_OK

    if args.cmd == "euler":
        m = doc.require_map()
        return {
            "euler_characteristic": euler_characteristic(m),
            "connected": is_connected(g),
        }, EXIT_OK

    if args.cmd == "walks":
        _check_cli_node(g, args.src, "--from")
        _check_cli_node(g, args.dst, "--to")
        if args.quasi_only:
            walks = enumerate_all_qswalks(g, args.src, args.dst)
            if args.max_len is not None:
                walks = [w for w in walks if w.length <= args.max_len]
        else:
            bound = args.max_len if args.max_len is not None else g.node_count
            diagnostics.append(f"enumerating all walks up to length {bound}")
            walks = list(iter_walks_up_to(g, bound, args.src, args.dst))
        return {
            "walks": [_walk_json(w) for w in walks],
            "count": len(walks),
            "quasi_only": bool(args.quasi_only),
        }, EXIT_OK

    if args.cmd == "normalize":
        w = parse_walk(g, args.walk, symmetric=True)
        nf, trace = normalize(w)
        return {
            "input": _walk_json(w),
            "normal_form": _walk_json(nf),
            "trace": [
                {
                    "rule": s.rule,
                    "site": s.site,
                    "before": _walk_json(s.before),
                    "after": _walk_json(s.after),
                }
                for s in trace.steps
            ],
        }, EXIT_OK

    if args.cmd == "homotopic":
        m = doc.require_map()
        w1 = parse_walk(g, args.w1, symmetric=True)
        w2 = parse_walk(g, args.w2, symmetric=True)
        budget = _budget_from(args, m)
        cert = prove_homotopic(m, w1, w2, budget)
        result = {
            "w1": _walk_json(w1),
            "w2": _walk_json(w2),
            "status": "homotopic" if cert is not None else "inconclusive",
            "moves": None
            if cert is None
            else [_move_json(mv) for mv in cert.moves],
        }
        if cert is not None and args.certificates:
            _write_certificates(args.certificates, [cert])
            result["certificates_path"] = args.certificates
        return result, EXIT_OK if cert is not None else EXIT_NEGATIVE

    if args.cmd == "check-spherical":
        m = doc.require_map()
        collector = [] if args.certificates else None
        if args.method == "euler":
            verdict = check_spherical_euler(m)
        elif args.method == "bounded":
            # --max-len bounds the enumerated walks; the search budget keeps
            # its own (at least as large) length cap
            bound = args.max_len if args.max_len is not None else 2 * g.node_count
            budget = _budget_from(args, m, use_max_len=False)
            verdict = check_spherical_bounded(m, bound, budget, collector)
        else:
            budget = _budget_from(args, m)
            verdict = check_spherical_quasi(m, budget, collector)
        result = {
            "status": verdict.status,
            "method": args.method,
            "euler_characteristic": verdict.euler,
            "pairs_checked": verdict.pairs_checked,
            "witness": None
            if verdict.witness is None
            else [_walk_json(verdict.witness[0]), _walk_json(verdict.witness[1])],
        }
        if collector is not None:
            _write_certificates(args.certificates, collector)
            result["certificates_path"] = args.certificates
        return result, EXIT_OK if verdict.status == "spherical" else EXIT_NEGATIVE

    raise SchemaError(f"unknown command {args.cmd!r}")


def _move_json(mv) -> dict:
    return {
        "face": mv.face,
        "a": mv.a,
        "b": mv.b,
        "prefix_len": mv.prefix_len,
        "direction": mv.direction,
    }


def _write_certificates(path: str, certs) -> None:
    payload = [
        {
            "source": compact(c.source),
            "target": compact(c.target),
            "moves": [_move_json(mv) for mv in c.moves],
        }
        for c in certs
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)


def _check_cli_node(g: Graph, x: int, flag: str) -> None:
    if not (0 <= x < g.node_count):
        raise SchemaError(f"{flag} node {x} out of range for {g.node_count} nodes")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
