"""Call contexts for the benchmark's ops: plain for timed runs, traced for
the per-layer run.

Every call an op makes into the library goes through ``ctx.call(name, fn,
...)`` with ``name`` = ``<module>.<function>``.  The traced context records
one span per call (name, start, end, parent span, op id), keeps spans in
memory, and reduces them to per-layer self time when the run ends.  Search
work is counted through the library's public ``deadline=`` parameters with
:class:`CountingDeadline`, whose ``check()`` is called once per DFS or
backtracking node.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from oddholes.util import Deadline


class CountingDeadline(Deadline):
    """A time budget that also counts search nodes."""

    __slots__ = ("checks",)

    def __init__(self, seconds: float | None) -> None:
        super().__init__(seconds)
        self.checks = 0

    def check(self) -> None:
        self.checks += 1
        Deadline.check(self)


class PlainContext:
    """Timed runs: calls go straight through; budgets are plain deadlines."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def deadline(self, layer: str, seconds: float) -> Deadline:
        return Deadline(seconds)

    def count(self, metric: str, value: float = 1) -> None:
        pass


class TracedContext:
    """The traced run: spans, counters and counting deadlines."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or None, op id].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self._deadlines: list[tuple[str, CountingDeadline]] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.op_id]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def deadline(self, layer: str, seconds: float) -> CountingDeadline:
        dl = CountingDeadline(seconds)
        self._deadlines.append((layer, dl))
        return dl

    def count(self, metric: str, value: float = 1) -> None:
        self.counters[metric] += value

    def search_checks(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for layer, dl in self._deadlines:
            out[f"{layer}.search_checks"] += dl.checks
        return out

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time, call count).  Self time is a
        span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start - child_time[i]
            out[name][1] += 1
        return {name: (t, c) for name, (t, c) in out.items()}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")
