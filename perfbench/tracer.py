"""In-memory spans recorded around the benchmark's calls into the program.

A :class:`Recorder` holds the spans of one trial.  A trial runs on one
thread, so a recorder is never shared between threads and needs no lock;
the threaded replay gives each trial its own recorder and merges them in
trial order afterwards.  Each span stores its wall interval and the
thread CPU time spent inside it, so wall minus CPU is the time the layer
waited for the interpreter lock or the scheduler.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict


class Recorder:
    """Spans and counts of one trial (or one setup or pooling step)."""

    def __init__(self, trial: str):
        self.trial = trial
        # name, parent index, start, end, cpu seconds
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None, time.thread_time()]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            record[4] = time.thread_time() - record[4]
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def self_times(self) -> list[tuple[str, float, float]]:
        """(name, self wall s, self cpu s) per span: its duration minus the
        part its direct children cover."""
        child_wall = [0.0] * len(self.spans)
        child_cpu = [0.0] * len(self.spans)
        for name, parent, start, end, cpu in self.spans:
            if parent is not None:
                child_wall[parent] += end - start
                child_cpu[parent] += cpu
        return [
            (name, (end - start) - child_wall[i], cpu - child_cpu[i])
            for i, (name, _, start, end, cpu) in enumerate(self.spans)
        ]

    def coverage(self) -> float | None:
        """Share of the root span that its direct children cover."""
        if not self.spans or self.spans[0][1] is not None:
            return None
        _, _, start, end, _ = self.spans[0]
        covered = sum(e - s for _, parent, s, e, _ in self.spans if parent == 0)
        return covered / (end - start)

    def rows(self):
        for i, (name, parent, start, end, cpu) in enumerate(self.spans):
            yield {"trial": self.trial, "id": i, "parent": parent, "name": name,
                   "start": start, "end": end, "cpu_s": cpu}


class NullRecorder:
    """Stand-in with tracing off: spans and counts cost one call each."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: int) -> None:
        pass


def layer_table(recorders: list[Recorder]) -> dict[str, dict]:
    """Per layer: p50 over the recorders that ran it of their summed self
    wall and self CPU time, in ms, with the sample count."""
    wall: dict[str, list[float]] = defaultdict(list)
    cpu: dict[str, list[float]] = defaultdict(list)
    for rec in recorders:
        per_wall: dict[str, float] = defaultdict(float)
        per_cpu: dict[str, float] = defaultdict(float)
        for name, w, c in rec.self_times():
            per_wall[name] += w
            per_cpu[name] += c
        for name in per_wall:
            wall[name].append(per_wall[name] * 1e3)
            cpu[name].append(per_cpu[name] * 1e3)
    return {
        name: {"ms": statistics.median(wall[name]), "cpu_ms": statistics.median(cpu[name]), "n": len(wall[name])}
        for name in sorted(wall)
    }
