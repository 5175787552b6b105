"""Spans recorded around calls into the program's modules, and their summary.

The tracer lives entirely in the benchmark: a span is opened around a call
into one layer's public function (``parse_xml``, ``DocumentIndex.arrays``,
``PlanCache.fetch``, an engine's ``evaluate`` …).  Spans are kept in memory
and written out once, when the run ends.  A layer's *self time* is its
span's duration minus the time its child spans cover.

:class:`NullTracer` has the same interface and records nothing; workloads
call the tracer unconditionally, so traced and untraced runs execute the
same benchmark code and differ only in what the tracer does.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional

from refclock import median

# A span is a mutable list so the code that opened it can rename it once the
# outcome is known (a plan-cache lookup becomes a hit or a compile).
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Collects spans ``[name, start, end, parent_index, request_id]``,
    per-request samples and counters, for one benchmark process."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id) -> None:
        """Tag the calling thread's following spans with ``request_id``."""
        self._local.request = request_id

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, 0.0, 0.0, parent, getattr(self._local, "request", None)]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- instrumenting objects from outside -----------------------------
    def patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute`` (a module global or an instance's method)
        to ``replacement`` until :meth:`unpatch_all`."""
        own = vars(owner)
        self._patches.append((owner, attribute, attribute in own, own.get(attribute)))
        setattr(owner, attribute, replacement)

    def wrap(self, owner, attribute: str, span_name: str) -> None:
        """Patch ``owner.attribute`` with a wrapper that opens ``span_name``
        around each call."""
        original = getattr(owner, attribute)

        def traced(*args, **kwargs):
            with self.span(span_name):
                return original(*args, **kwargs)

        self.patch(owner, attribute, traced)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attribute, had_own, previous = self._patches.pop()
            if had_own:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)

    # -- output -----------------------------------------------------------
    def write(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "samples": self.samples,
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream)


class NullTracer:
    """The untraced stand-in: same calls, nothing recorded."""

    enabled = False
    _SPAN = nullcontext([None, 0.0, 0.0, None, None])

    def set_request(self, request_id) -> None:
        pass

    def span(self, name: str):
        return self._SPAN

    def sample(self, name: str, value: float) -> None:
        pass

    def count(self, name: str, amount: float = 1) -> None:
        pass


NULL = NullTracer()


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children of one parent never overlap when they come from one thread;
    the union is still taken so that concurrent children are not counted
    twice.
    """
    children: Dict[int, List[tuple]] = defaultdict(list)
    for record in spans:
        parent = record[PARENT]
        if parent is not None:
            children[parent].append((record[START], record[END]))
    result = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(max(0.0, (end - start) - covered))
    return result


class SpanSummary:
    """Durations and self times grouped by span name."""

    def __init__(self, spans: List[list], scale: float = 1.0):
        self.duration: Dict[str, List[float]] = defaultdict(list)
        self.self_time: Dict[str, List[float]] = defaultdict(list)
        for record, own in zip(spans, self_times(spans)):
            self.duration[record[NAME]].append((record[END] - record[START]) * scale)
            self.self_time[record[NAME]].append(own * scale)

    def count(self, name: str) -> int:
        return len(self.duration.get(name, ()))

    def median_self_ms(self, name: str) -> float:
        return median_or_zero(self.self_time.get(name)) * 1000.0

    def median_ms(self, name: str) -> float:
        return median_or_zero(self.duration.get(name)) * 1000.0

    def total_s(self, name: str) -> float:
        return sum(self.duration.get(name, ()))


def rate(amount: float, seconds: float) -> float:
    """``amount`` per second, 0 when nothing was timed."""
    return amount / seconds if seconds > 0 else 0.0


def median_or_zero(values: Optional[List[float]]) -> float:
    return median(values) if values else 0.0
