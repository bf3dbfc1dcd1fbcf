"""Span tracer for qswarm's layers, installed from outside the package.

The tracer replaces every public function of the layer modules at the
module attribute where callers look it up, and every public method of the
classes those modules define.  A function imported into another module is
a separate binding (``qswarm.dynamics.cancel_pairs`` and
``qswarm.swarm.cancel_pairs``), so each binding is wrapped; both record
spans under the name of the module that defines the function.  Methods are
named ``<layer>.<Class>.<method>``.

Spans are kept in memory as ``(name, start, end, parent, solve)`` tuples;
``parent`` is the index of the enclosing span or -1, and ``solve`` numbers
the benchmark solve (one request) the span belongs to.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time

LAYERS = ("lattice", "swarm", "dynamics", "measure", "frames", "scenario", "oracle")


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records one span per call into a wrapped qswarm function."""

    def __init__(self):
        self.spans: list = []
        self.solve = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.solve)

        return traced

    def _patch(self, owner, attr: str, fn, name: str) -> None:
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, fn))

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"qswarm.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith("qswarm."):
                    self._patch(module, attr, value,
                                f"{_layer(value.__module__)}.{value.__name__}")
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for mname, method in list(vars(value).items()):
                        if not mname.startswith("_") and inspect.isfunction(method):
                            self._patch(value, mname, method,
                                        f"{layer}.{value.__name__}.{mname}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def clear(self) -> None:
        self.spans.clear()
        self.solve = -1

    def aggregate(self) -> dict[str, list]:
        """Per span name: [calls, inclusive seconds, self seconds].

        Self time is the span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[i]
        return table

    def root_seconds(self) -> float:
        """Total duration of the spans that no other span encloses."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path, solve: int = 0) -> int:
        """Write the spans of one solve as CSV; returns the number written."""
        rows = [s for s in self.spans if s[4] == solve]
        origin = rows[0][1] if rows else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_us", "end_us", "parent", "solve"])
            for i, (name, start, end, parent, solve_id) in enumerate(self.spans):
                if solve_id == solve:
                    out.writerow([i, name, f"{(start - origin) * 1e6:.1f}",
                                  f"{(end - origin) * 1e6:.1f}", parent, solve_id])
        return len(rows)
