"""Spans and counters recorded around calls into the library.

A traced run replaces selected public functions with wrappers, looked up
at the names their callers use (``relbc.sim:derived_rng`` as well as
``relbc.field:derived_rng``), and restores the originals afterwards.  Each
call records one span (name, start, end, parent span, run id) in memory;
counters are bumped at the same boundary from the call's arguments and
result.  The wrappers never touch arguments or random state, so a traced
call returns exactly what the untraced call would.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Optional

# (owner, attribute, span name, counter function or None).  The owner is
# "module" or "module:Class".  A counter function maps (args, kwargs,
# result) of one call to {counter: increment}.
Target = tuple[str, str, str, Optional[Callable]]


class LayerStats:
    __slots__ = ("calls", "total_ns", "self_ns", "max_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.max_ns = 0


class Tracer:
    """Spans and counters of one traced run.

    ``phase`` is "setup" while the workload sets up and "pass" while it
    runs.  Per-call statistics are kept per phase and counters are summed
    over passes only, so that warm-up calls do not dilute the per-call
    figures; the largest value each counter took is kept over both.
    """

    def __init__(self):
        self.phase = "setup"
        self.spans: list = []          # spans of the pass in progress
        self.first_pass: list = []     # kept and written out at the end
        self.stats = {p: defaultdict(LayerStats) for p in ("setup", "pass")}
        self.counters: dict[str, float] = defaultdict(float)
        self.largest: dict[str, float] = defaultdict(float)
        self.run_id = -1
        self._stack: list[int] = []
        self._saved: list = []

    # -- installing wrappers ------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        for owner_path, attr, name, count in targets:
            module_name, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, count))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, count: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(name, token)
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    if tracer.phase == "pass":
                        tracer.counters[key] += inc
                    tracer.largest[key] = max(tracer.largest[key], inc)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around harness-level work (a CLI child, a round trip)."""
        token = self._begin()
        try:
            yield
        finally:
            self._end(name, token)

    def _begin(self) -> tuple[int, int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent, time.perf_counter_ns()

    def _end(self, name: str, token: tuple[int, int, int]) -> None:
        end = time.perf_counter_ns()
        idx, parent, start = token
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.run_id)

    # -- aggregation --------------------------------------------------------

    def fold(self) -> None:
        """Add the finished phase's spans to its per-name totals.

        Self time is a span's duration minus the durations of its direct
        children; children nest inside their parent, so that difference
        is the part of the interval no child covers.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = self.stats[self.phase]
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            st = stats[name]
            dur = end - start
            st.calls += 1
            st.total_ns += dur
            st.self_ns += dur - covered
            st.max_ns = max(st.max_ns, dur)
        if self.phase == "pass" and not self.first_pass:
            self.first_pass = self.spans
        self.spans = []

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for name, start, end, parent, run_id in self.first_pass:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "run": run_id}
                    )
                    + "\n"
                )


def null_span(name: str):
    return contextlib.nullcontext()
