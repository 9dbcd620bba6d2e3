"""In-memory spans and counters for the traced benchmark run.

A span records a name, start, end, the span that caused it and the task it
belongs to. The layer of a span is the part of its name before the first
dot (``homotopy.prove_homotopic`` -> ``homotopy``). Spans stay in memory
and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or None, task id, pass tag]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self.tag = None

    @contextmanager
    def span(self, name: str, task: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, task, self.tag])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def add(self, counter: str, value: float = 1) -> None:
        self.counters[counter] += value

    def durations(self, name: str, tags=None) -> list[float]:
        """Durations of the spans called ``name``, optionally only those tagged ``tags``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name and (tags is None or s[5] in tags)]

    def total(self, name: str, tags=None) -> float:
        return sum(self.durations(name, tags))

    def self_times(self, tags) -> dict[str, float]:
        """Per-layer self time over the spans whose tag is in ``tags``.

        A span's self time is its duration minus that of its children;
        spans of one thread nest, so the children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, tag) in enumerate(self.spans):
            if tag in tags:
                out[name.split(".")[0]] += end - start - child_time[i]
        return dict(out)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task, tag in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "task": task, "pass": tag}
                fh.write(json.dumps(record) + "\n")
