"""In-memory span recorder for the benchmark's traced runs.

A span is ``[name, start, end, parent, op]``: a name, two
``time.perf_counter`` readings, the index of the enclosing span (or
``None``) and the id of the op it belongs to.  Spans stay in a list until
the run ends; :meth:`Tracer.write` then dumps them as JSON lines.  The
untraced run uses :data:`NULL`, whose spans cost one method call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: total self time in seconds (duration minus the
        time its child spans cover), and the number of ops it occurred in."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total: dict[str, float] = {}
        ops: dict[str, set] = {}
        for (name, start, end, _, op), child in zip(self.spans, covered):
            total[name] = total.get(name, 0.0) + (end - start) - child
            ops.setdefault(name, set()).add(op)
        return {name: (total[name], len(ops[name])) for name in total}

    def children_seconds(self, root: str) -> dict[int, float]:
        """Per op: total duration of the direct children of its ``root``
        spans."""
        out: dict[int, float] = {}
        for name, start, end, parent, op in self.spans:
            if parent is not None and self.spans[parent][0] == root:
                out[op] = out.get(op, 0.0) + end - start
        return out

    def durations(self, name: str) -> dict[int, float]:
        """Per op: total duration of the spans called ``name``."""
        out: dict[int, float] = {}
        for span_name, start, end, _, op in self.spans:
            if span_name == name:
                out[op] = out.get(op, 0.0) + end - start
        return out

    def spans_in(self, root: str) -> int:
        """Number of spans called ``root`` or nested inside one."""
        inside = [False] * len(self.spans)
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            inside[i] = name == root or (parent is not None and inside[parent])
        return sum(inside)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def span_seconds(samples: int = 20000) -> float:
    """Mean cost of opening and closing one span."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate"):
            pass
    return (time.perf_counter() - start) / samples


class _NullTracer:
    op = None
    _context = nullcontext()

    def span(self, name: str):
        return self._context


NULL = _NullTracer()
