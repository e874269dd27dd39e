"""Spans and counts recorded around the benchmark's calls into gallai_lab.

A span is one call: its name (``module.function``), start and end on the
``time.perf_counter`` clock, the span that caused it and the sample it
belongs to.  Every sample opens one root span, so the spans of a sample share
its id.  Spans and counts stay in memory and are written out when the run
ends.  With tracing off the benchmark uses ``NullTracer``, whose methods
record nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from pathlib import Path

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span and count is a no-op."""

    def sample(self, kind: str, tasks: int):
        return _NULL

    def span(self, name: str):
        return _NULL

    def count(self, name: str, value: float = 1) -> None:
        pass


class Tracer:
    """Tracing on: keeps every span and per-sample count in memory."""

    def __init__(self) -> None:
        # [id, name, parent id, sample id, start, end]
        self.spans: list[list] = []
        self.samples: list[dict] = []  # {"kind", "tasks", "counts"}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def sample(self, kind: str, tasks: int):
        """Open one sample (``kind`` is "setup" or "task") covering ``tasks`` tasks."""
        self.samples.append({"kind": kind, "tasks": tasks, "counts": Counter()})
        with self.span(kind):
            yield

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, self._stack[-1] if self._stack else None,
               len(self.samples) - 1, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.samples[-1]["counts"][name] += value

    def totals(self, kind: str) -> list[tuple[int, dict[str, float]]]:
        """Per sample of ``kind``: its task count, and each span name's summed
        seconds (``name.s``) and call count (``name.calls``) plus its counts."""
        out: dict[int, Counter] = {
            i: Counter(s["counts"]) for i, s in enumerate(self.samples) if s["kind"] == kind
        }
        for _, name, parent, sample, start, end in self.spans:
            if parent is None or sample not in out:
                continue
            out[sample][name + ".s"] += end - start
            out[sample][name + ".calls"] += 1
        return [(self.samples[i]["tasks"], dict(c)) for i, c in out.items()]

    def write(self, path: Path) -> None:
        keys = ("id", "name", "parent", "sample", "start", "end")
        payload = {
            "samples": [{"kind": s["kind"], "tasks": s["tasks"], "counts": dict(s["counts"])}
                        for s in self.samples],
            "spans": [dict(zip(keys, rec)) for rec in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
