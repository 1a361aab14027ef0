"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer of ``bipartite_tsg``: its name, the
input it belongs to (the trace id), its parent span, and its start and end
on the ``perf_counter`` clock.  Spans are opened from the benchmark's own
code, around calls to the library's public functions, and stay in memory
until the run writes them out.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # [trace_id, span_id, parent_id, name, start, end]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []
        self._traces = 0

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block.  A span opened with no span open starts
        a new trace (one input); nested spans join their parent's trace."""
        if self._stack:
            parent = self._stack[-1]
            trace_id, parent_id = parent[0], parent[1]
        else:
            trace_id, parent_id = self._traces, None
            self._traces += 1
        record = [trace_id, len(self.spans), parent_id, name, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record[5] = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def busy_seconds(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for _, _, _, name, start, end in self.spans:
            out[name] += end - start
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus the time its
        child spans cover, summed by the layer prefix of the span name."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, parent_id, _, start, end in self.spans:
            if parent_id is not None:
                covered[parent_id] += end - start
        out: dict[str, float] = defaultdict(float)
        for _, span_id, _, name, start, end in self.spans:
            out[name.split(".")[0]] += end - start - covered[span_id]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("trace", "span", "parent", "name", "start", "end")
        payload = {
            "spans": [dict(zip(keys, record)) for record in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
