"""In-memory span recording for the benchmark's traced runs.

A ``Recorder`` keeps every span in a list and writes them out only when the
benchmark ends.  A ``Tracer`` replaces module-level names with wrappers that
open and close a span around each call, and puts the originals back when it
is uninstalled, so the package under test is never edited.  Worker threads
started through a traced ``ThreadPoolExecutor`` inherit the submitting
thread's open span as their parent.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str                 # "<layer>.<call>"
    start: float              # perf_counter seconds
    end: float
    parent: int | None        # index of the parent span in Recorder.spans
    run_id: int               # the operation this span belongs to
    stats: dict | None = None  # counts read from the call's result

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one benchmark process, with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_run_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> int:
        """Open a span under the thread's current span; a span with no
        parent starts a new run id."""
        parent = self.current()
        with self._lock:
            if parent is None:
                run_id = self._next_run_id
                self._next_run_id += 1
            else:
                run_id = self.spans[parent].run_id
            idx = len(self.spans)
            now = time.perf_counter()
            self.spans.append(Span(name, now, now, parent, run_id))
        self._stack().append(idx)
        return idx

    def close(self, idx: int, stats: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.stats = stats
        stack = self._stack()
        if not stack or stack[-1] != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    def adopt(self, parent: int | None, fn, *args, **kwargs):
        """Run ``fn`` in this thread as if ``parent`` were its open span."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class Tracer:
    """Installs span wrappers on module attributes and restores them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple] = []

    def wrap(self, module, attr: str, span_name: str, stats=None) -> None:
        """Replace ``module.attr`` by a wrapper recording ``span_name``;
        ``stats(result)`` may return counts to store on the span."""
        original = getattr(module, attr)
        rec = self.recorder

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = rec.open(span_name)
            counts = None
            try:
                result = original(*args, **kwargs)
                if stats is not None:
                    counts = stats(result)
                return result
            finally:
                rec.close(idx, counts)

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def wrap_executor(self, module) -> None:
        """Make ``module.ThreadPoolExecutor`` carry the open span into workers."""
        rec = self.recorder

        class SpanExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(rec.adopt, rec.current(), fn, *args, **kwargs)

        self._saved.append((module, "ThreadPoolExecutor", module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = SpanExecutor

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def wrapper_cost() -> float:
    """Seconds a ``Tracer`` wrapper adds to one call: the median over 5
    repeats of (traced - plain time of 10 000 calls) / 10 000."""
    calls = 10_000
    mod = types.SimpleNamespace(noop=lambda: None)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            mod.noop()
        plain = time.perf_counter() - t0
        tracer = Tracer(Recorder())
        tracer.wrap(mod, "noop", "bench.noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            mod.noop()
        traced = time.perf_counter() - t0
        tracer.restore()
        costs.append((traced - plain) / calls)
    return statistics.median(costs)


# -- arithmetic over spans ---------------------------------------------------

def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children running in parallel threads may overlap; their union counts once.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(spans[c].start, span.start), min(spans[c].end, span.end))
                   for c in children.get(i, ())]
        out.append(span.duration - covered_length(clipped))
    return out


def summary(values) -> dict:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives
    them, plus the sample count."""
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile by ``statistics.quantiles(values, n=100)``."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]
