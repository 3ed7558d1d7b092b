"""In-memory span tracer that wraps polyx functions from the outside.

A layer is a public function of a polyx module. `Tracer.wrap` replaces the
module attribute the caller resolves at call time with a wrapper that
records one span per call: (name, start, end, parent, request id), times in
perf_counter nanoseconds, parent as an index into the span list (-1 for a
top-level span). Nothing inside polyx changes; `restore` puts every
original back.

Self time of a span is its duration minus the part of it covered by its
direct children. Counters and value lists hold what hooks read off the
arguments and results of wrapped calls (node counts, query counts, bytes).
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self.request = 0
        self.counts: collections.Counter = collections.Counter()
        self.values: dict[str, list[float]] = collections.defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Trace calls of `module.attr` under `name`.

        `after(tracer, result, args, kwargs)` runs once the span is closed,
        so what it costs is not charged to the layer.
        """
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def restore(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def _children(self) -> dict[int, list[tuple[int, int]]]:
        """Span index -> (start, end) of each of its direct children."""
        children: dict[int, list[tuple[int, int]]] = collections.defaultdict(list)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        return children

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """name -> {calls, s, self_s} over all closed spans."""
        children = self._children()
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            dur = end - start
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur / 1e9
            row["self_s"] += (dur - covered_ns(children.get(idx, []))) / 1e9
        return out

    def top_level_children_ns(self) -> int:
        """Time covered by the children of top-level spans (request roots)."""
        children = self._children()
        return sum(covered_ns(children[i]) for i, span in enumerate(self.spans) if span[3] < 0)

    def write(self, path: Path, header: dict) -> None:
        """Header line, then one JSON array per span, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
