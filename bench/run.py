"""walkmaps benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the CLI under test is ``src/walkmaps``. The
runner writes the workload's corpus for the seed (``corpus.py``), then runs
its tasks as CLI children, one at a time, in a closed loop with one client:
whole passes over the task list until ``--seconds`` have gone by, at least
one pass. Every output is checked against its known answer
(``checker.py``). The last line of stdout is one JSON object:

* ``--trace 0``: the end-to-end metrics (see ``E2E``).
* ``--trace 1``: the per-layer metrics (see ``PER_LAYER``). An untraced
  pass and a traced pass alternate; after each task of the first traced
  pass, an in-process probe (``probes.py``) repeats the task's public calls
  with one span each. A small probe set, run once, keeps every layer
  measured on every workload. Spans go to ``bench/out/`` when the run ends.

``--workload all`` runs the four workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402

SETUP_REPS = 5
STARTUP_REPS = 5
TAIL_BEYOND = 10  # samples beyond the tail percentile

E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "task_s.p50": "s",
    "task_s.tail": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("cli", "graph", "walk", "enumeration", "rewrite", "embedding", "homotopy")

PER_LAYER = {
    "cli.startup_s": "s",
    "cli.parse_s": "s",
    "cli.report_bytes": "bytes",
    "cli.cert_bytes": "bytes",
    "graph.build_map_s": "s",
    "graph.incident_darts_per_s": "1/s",
    "walk.parse_walks_per_s": "1/s",
    "enumeration.qs_walks_per_s": "1/s",
    "enumeration.qs_walks": "count",
    "enumeration.walks_up_to_per_s": "1/s",
    "rewrite.normalize_darts_per_s": "1/s",
    "rewrite.failed": "count",
    "embedding.trace_faces_s": "s",
    "homotopy.quasi_pairs_per_s": "1/s",
    "homotopy.cap_search_s": "s",
    "homotopy.cap_search_rss_mb": "MB",
    "homotopy.bounded_pairs_per_s": "1/s",
    "homotopy.replay_moves_per_s": "1/s",
    "homotopy.certs": "count",
    "homotopy.cert_moves": "count",
    "failed_frac": "frac",
    "undecided_frac": "frac",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


@dataclass
class TaskRun:
    task: dict
    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_kb: int
    report_bytes: int
    cert_bytes: int = 0
    replay_error: str | None = None
    outcome: object = None


class Runner:
    """Runs one workload's corpus through the CLI and checks every output."""

    def __init__(self, root: Path, workload: str, seed: int):
        from checker import Checker

        self.workload, self.seed = workload, seed
        self.dir = BENCH / "out" / f"{workload}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("WALKMAPS_")}
        env["PYTHONPATH"] = str(root / "src")
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.tracer = None  # a Tracer while a traced pass runs
        self.checker = Checker(self.dir)
        self.tasks: list[dict] = []
        self.probing = False
        self.probed_files: set[str] = set()

    def close(self) -> None:
        """Stop the launcher (it ends at end of input) and remove the corpus."""
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def cli(self, argv) -> tuple[int, str, str, float, int]:
        """One CLI child: (exit code, stdout, stderr, seconds, peak RSS in KB)."""
        request = [str(self.dir), [sys.executable, "-m", "walkmaps.cli", *argv]]
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        code, seconds, rss_kb = json.loads(reply)
        stdout = (self.dir / "stdout.txt").read_text(encoding="utf-8", errors="replace")
        stderr = (self.dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return code, stdout, stderr, seconds, rss_kb

    def setup(self) -> float:
        """Write the corpus and make one warm-up call; returns the seconds taken."""
        start = time.perf_counter()
        self.tasks = corpus.write(self.dir, self.workload, self.seed)
        self.cli(["validate", self.tasks[0]["argv"][1]])
        return time.perf_counter() - start

    def run_task(self, task: dict) -> TaskRun:
        from checker import replay_file

        argv, tid = task["argv"], task["id"]
        tracer = self.tracer
        span = tracer.span if tracer is not None else (lambda *_: nullcontext())
        certs = self.dir / argv[-1] if "--certificates" in argv else None
        if certs is not None:
            certs.unlink(missing_ok=True)
        with span(f"cli.{argv[0]}", tid):
            code, stdout, stderr, seconds, rss = self.cli(argv)
            run = TaskRun(task, code, stdout, stderr, seconds, rss, len(stdout.encode()))
            if certs is not None:
                start = time.perf_counter()
                # part of the task: read back and replay what the CLI wrote
                with span("homotopy.replay_certificate", tid):
                    try:
                        n_certs, n_moves = replay_file(self.checker.doc(argv[1]), certs)
                    except (OSError, KeyError, TypeError, ValueError) as err:
                        run.replay_error = f"{type(err).__name__}: {err}"
                    else:
                        run.cert_bytes = certs.stat().st_size
                        if self.probing:
                            tracer.add("homotopy.certs", n_certs)
                            tracer.add("homotopy.cert_moves", n_moves)
                run.seconds += time.perf_counter() - start
        if self.probing:
            import probes

            with span("bench.probe", tid):
                probes.probe(task, self.dir, _json_or_none(stdout), tracer, self.probed_files)
        return run

    def run_pass(self, tasks) -> tuple[float, list[TaskRun]]:
        """Run ``tasks`` once; check the outputs after the pass's wall time is taken."""
        start = time.perf_counter()
        runs = [self.run_task(t) for t in tasks]
        wall = time.perf_counter() - start
        self.check(runs)
        return wall, runs

    def check(self, runs) -> None:
        for r in runs:
            r.outcome = self.checker.check(r.task, r.code, r.stdout, r.stderr, r.replay_error)
            r.stdout = r.stderr = ""  # checked; a long run must not grow in memory

    def workload_tasks(self):
        return [t for t in self.tasks if not t["probe"]]

    def probe_tasks(self):
        return [t for t in self.tasks if t["probe"]]


def _json_or_none(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def tail_percentile(tasks_per_pass: int) -> int:
    """The highest percentile with at least TAIL_BEYOND of a pass's tasks beyond it."""
    return math.floor(100 * (tasks_per_pass - TAIL_BEYOND) / tasks_per_pass)


def percentile(values, p) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def _summary(name, runs) -> tuple[dict, bool, int]:
    """Print failure shares and reasons; return (fractions, correct, failed)."""
    from checker import FAILED, UNDECIDED

    failed = [r for r in runs if r.outcome.status == FAILED]
    undecided = [r for r in runs if r.outcome.status == UNDECIDED]
    recursion = [r for r in failed if r.outcome.recursion]
    fracs = {"failed_frac": len(failed) / len(runs), "undecided_frac": len(undecided) / len(runs)}
    print(f"{name}: {len(runs)} task runs, failed_frac {fracs['failed_frac']:.4f} "
          f"({len(recursion)} normalize RecursionError), "
          f"undecided_frac {fracs['undecided_frac']:.4f}")
    for reason in sorted({f"{r.task['id']}: {r.outcome.reason}" for r in failed + undecided}):
        print(f"  {reason}")
    return fracs, len(failed) == len(recursion), len(failed)


def _rows(runs, tracer=None) -> None:
    """Baseline rows: the inputs the ROADMAP figures were taken on."""
    by_row: dict[str, list[TaskRun]] = {}
    for r in runs:
        if r.task["row"]:
            by_row.setdefault(r.task["row"], []).append(r)
    for row, rs in sorted(by_row.items()):
        task = rs[0].task
        line = (f"row {row}: {' '.join(task['argv'][:1] + task['argv'][2:4])}: "
                f"CLI median {statistics.median(r.seconds for r in rs):.3f} s over {len(rs)} runs, "
                f"peak RSS {max(r.rss_kb for r in rs) / 1024:.1f} MB")
        if tracer is not None:
            inproc = [s[2] - s[1] for s in tracer.spans
                      if s[4] == task["id"] and s[0] in ("homotopy.check_spherical_quasi",
                                                         "homotopy.prove_homotopic")]
            if inproc:
                line += f", in-process {inproc[0]:.3f} s"
        print(line)


def run_untraced(runner: Runner, seconds: float) -> dict:
    setups = [runner.setup() for _ in range(SETUP_REPS)]
    tasks = runner.workload_tasks()
    walls, runs = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, pass_runs = runner.run_pass(tasks)
        walls.append(wall)
        runs += pass_runs
    times = [r.seconds for r in runs]
    p = tail_percentile(len(tasks))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "task_s.p50": statistics.median(times),
        "task_s.tail": percentile(times, p),
        "peak_rss_mb": max(self_kb, *(r.rss_kb for r in runs)) / 1024,
    }
    print(f"{runner.workload} seed {runner.seed}: {len(walls)} passes of {len(tasks)} tasks, "
          f"pass walls {', '.join(f'{w:.3f}' for w in walls)} s")
    print(f"task_s.p50 over {len(times)} task runs; task_s.tail is p{p} "
          f"({TAIL_BEYOND} of {len(tasks)} tasks per pass beyond it)")
    _rows(runs)
    _, correct, failed = _summary(runner.workload, runs)
    return _result(correct, len(runs), failed, metrics, E2E)


def run_traced(runner: Runner, seconds: float) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    runner.setup()
    tasks = runner.workload_tasks()
    untraced, traced, runs, probed = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        runner.tracer = None
        wall, pass_runs = runner.run_pass(tasks)
        untraced.append(wall)
        runs += pass_runs
        runner.tracer, tracer.tag = tracer, len(traced)
        runner.probing = not traced
        wall, pass_runs = runner.run_pass(tasks)
        traced.append(wall - tracer.total("bench.probe", {tracer.tag}))
        runs += pass_runs
        probed = probed or list(pass_runs)
    tracer.tag, runner.probing = "probe", True
    probe_runs = [runner.run_task(t) for t in runner.probe_tasks()]
    probed += probe_runs
    runner.probing = False
    startup = [runner.cli(["validate", runner.probe_tasks()[0]["argv"][1]])[3]
               for _ in range(STARTUP_REPS)]
    runner.check(probe_runs)

    c = tracer.counters
    total = tracer.total
    cap_kb = [r.rss_kb for r in runs + probe_runs
              if r.task["argv"][0] == "homotopic" and r.task["expect"]["homotopic"] is False]
    normalize_s = total("rewrite.normalize") - c["rewrite.failed_s"]
    fracs, correct, failed = _summary(runner.workload, runs)
    _, probe_correct, probe_failed = _summary("probe set", probe_runs)
    self_s = tracer.self_times({0, "probe"})
    metrics = {
        "cli.startup_s": statistics.median(startup),
        "cli.parse_s": statistics.mean(tracer.durations("cli.parse_map_document")),
        "cli.report_bytes": statistics.mean(r.report_bytes for r in probed),
        "cli.cert_bytes": statistics.mean(r.cert_bytes for r in probed),
        "graph.build_map_s": statistics.mean(tracer.durations("graph.build_map")),
        "graph.incident_darts_per_s": _ratio(c["graph.incident_darts"],
                                             total("graph.incident_darts")),
        "walk.parse_walks_per_s": _ratio(c["walk.parse_walk"], total("walk.parse_walk")),
        "enumeration.qs_walks_per_s": _ratio(c["enumeration.qs_walks"],
                                             total("enumeration.enumerate_all_qswalks")),
        "enumeration.qs_walks": c["enumeration.qs_walks"],
        "enumeration.walks_up_to_per_s": _ratio(c["enumeration.walks_up_to"],
                                                total("enumeration.iter_walks_up_to")),
        "rewrite.normalize_darts_per_s": _ratio(c["rewrite.normalize_darts"], normalize_s),
        "rewrite.failed": c["rewrite.failed"],
        "embedding.trace_faces_s": statistics.mean(tracer.durations("embedding.trace_faces")),
        "homotopy.quasi_pairs_per_s": _ratio(c["homotopy.quasi_pairs"],
                                             total("homotopy.check_spherical_quasi")),
        "homotopy.cap_search_s": _ratio(c["homotopy.cap_search_s"], c["homotopy.cap_searches"]),
        "homotopy.cap_search_rss_mb": max(cap_kb) / 1024,
        "homotopy.bounded_pairs_per_s": _ratio(c["homotopy.bounded_pairs"],
                                               total("homotopy.check_spherical_bounded")),
        "homotopy.replay_moves_per_s": _ratio(
            c["homotopy.cert_moves"], total("homotopy.replay_certificate", {0, "probe"})),
        "homotopy.certs": c["homotopy.certs"],
        "homotopy.cert_moves": c["homotopy.cert_moves"],
        **fracs,
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        **{f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS},
    }
    print(f"{runner.workload} seed {runner.seed}: {len(untraced)} untraced and {len(traced)} "
          f"traced passes; untraced wall_s {statistics.median(untraced):.3f}, traced wall_s "
          f"{statistics.median(traced):.3f} (probe spans excluded)")
    print("self time per layer (first traced pass and probe set): "
          + ", ".join(f"{layer} {self_s.get(layer, 0.0):.3f} s" for layer in LAYERS))
    _rows(runs, tracer)
    spans = BENCH / "out" / f"spans-{runner.workload}-{runner.seed}.jsonl"
    tracer.write(spans)
    print(f"{len(tracer.spans)} spans written to {spans.relative_to(BENCH.parent)}")
    return _result(correct and probe_correct, len(runs) + len(probe_runs),
                   failed + probe_failed, metrics, PER_LAYER)


def _result(correct, attempted, failed, metrics, units) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "walkmaps" / "__init__.py").is_file():
        print("bench: src/walkmaps not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        runner = Runner(root, workload, args.seed)
        run = run_traced if args.trace else run_untraced
        try:
            results[workload] = run(runner, args.seconds)
        finally:
            runner.close()
        if len(workloads) > 1:
            print(json.dumps(results[workload]))
    if len(workloads) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
