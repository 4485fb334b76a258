"""Span recorder for the traced run.

The program is instrumented from outside.  Every public function of the
holefinder modules is wrapped, and the wrapper is bound in place of the
original in every holefinder namespace that holds the name, because the
modules import these functions by name (``from .geometry import cross``).
Nothing under ``src/`` changes.

A wrapped function either opens a span or, for the hot predicates in
``COUNTED``, only bumps a counter: a span per predicate call would cost more
than the predicate and hold millions of records.  A span is named after the
module that defines the function; a counter is named after the module that
calls it, so ``holes.cross`` counts the orientation tests made by the hole
search and ``convexity.cross`` those made by the convex-position search.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import defaultdict

COUNTED = frozenset(
    {
        "canonical",
        "cross",
        "in_closed_hull",
        "in_closed_triangle",
        "in_open_triangle",
        "on_closed_segment",
        "orientation",
    }
)

# Spans whose useful outcome is a non-None result; their found counts give
# the ``found_ratio`` metrics.
FOUND_SPANS = frozenset(
    {"convexity.find_convex_position_subset", "holes.find_k_hole"}
)

ROOT = "bench.op"


class Recorder:
    """Spans (name, start, end, parent, op id) and call counters, in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self._stack = [-1]
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, fn):
        """Call ``fn`` as operation ``op_id`` under a root span."""
        self._op_id = op_id
        sid = self._open(self._name_id(ROOT))
        try:
            return fn()
        finally:
            self._close(sid)
            self._op_id = -1

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        found = self.counts[name + ".found"] if name in FOUND_SPANS else None

        def wrapper(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if found is not None and result is not None:
                found[0] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, label: str, fn):
        cell = self.counts[label]

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def reset_counts(self) -> None:
        for cell in self.counts.values():
            cell[0] = 0

    # -- installing --------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public functions bound in each module's namespace.

        ``modules`` maps a layer name (``geometry``, ``cli``, ...) to its
        module object.  Click commands are traced through their callback,
        which is what click dispatches to.
        """
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if callable(getattr(obj, "callback", None)) and _is_program_function(
                    obj.callback
                ):
                    wrapped = self._span_wrapper(f"{layer}.{attr}", obj.callback)
                    self._patch(obj, "callback", wrapped)
                    continue
                if not _is_program_function(obj):
                    continue
                if obj.__name__ in COUNTED:
                    wrapped = self._count_wrapper(f"{layer}.{obj.__name__}", obj)
                else:
                    home = obj.__module__.rsplit(".", 1)[-1]
                    wrapped = self._span_wrapper(f"{home}.{obj.__name__}", obj)
                self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def span_totals(self, in_ops: bool = True) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, self time in ns), over the spans recorded
        inside operations, or with ``in_ops`` false over those outside them
        (set-up).

        Self time is the span's duration minus the durations of its direct
        children.
        """
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            parent = self.parent[sid]
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for sid in range(n):
            if (self.op[sid] >= 0) != in_ops:
                continue
            name = self.names[self.name[sid]]
            calls[name] += 1
            self_ns[name] += self.end[sid] - self.start[sid] - child[sid]
        return {name: (calls[name], self_ns[name]) for name in calls}

    def count(self, label: str) -> int:
        return self.counts[label][0] if label in self.counts else 0

    def write(self, path) -> None:
        """All spans as gzipped tab-separated text, one span a line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t"
                    f"{self.names[self.name[sid]]}\t{self.start[sid]}\t{self.end[sid]}\n"
                )


def _is_program_function(obj) -> bool:
    return inspect.isfunction(obj) and obj.__module__.startswith("holefinder.")
