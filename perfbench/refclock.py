"""Reference-speed timing: wall time rescaled by a fixed calibration loop.

Raw wall time does not repeat on a shared, small host: the same pure-Python
loop runs 20–50% slower at some minutes than at others.  Every timed chunk
of work is therefore bracketed by a fixed calibration loop, and the chunk's
wall durations are scaled by ``R / c``:

* ``c`` is the loop's duration measured around the chunk (the mean of the
  runs just before and just after it);
* ``R`` (:data:`REFERENCE_SECONDS`) is the loop's duration on the reference
  host, written once here and never changed.

A duration in *reference seconds* (``ref_s``) is then "how long this would
have taken had the interpreter run at reference speed".  The loop must never
change: a different loop is a different unit, and every stored figure would
have to be measured again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

#: Duration in seconds of :func:`calibration_seconds` on the reference host
#: (2-vCPU container, CPython 3.11), as the median of 2000 measurements.
#: Fixed forever; see the module docstring.
REFERENCE_SECONDS = 0.0022

#: Sequential operations are timed in slices of about this much work, with
#: a calibration run between slices.  The host's speed wanders on a scale
#: of about 100 ms, so a slice must be shorter than that for its
#: calibration to describe it.
SLICE_S = 0.015

_WORDS = ("lex", "parse", "index", "plan", "engine", "store", "serve", "edit")


def _calibration_loop() -> int:
    """The fixed workload: dict/str/list/tuple/call/sort traffic shaped like
    the interpreter-bound code under test.  Never edit this function."""
    table: dict = {}
    window: list = []
    total = 0
    for i in range(2000):
        word = _WORDS[i & 7]
        key = "%s:%d" % (word, i % 61)
        table[key] = table.get(key, 0) + i
        window.append((i % 13, key))
        if len(window) >= 48:
            window.sort()
            total += len(window[0][1])
            del window[:24]
        total += len(key)
    return total + len(table)


def calibration_seconds() -> float:
    """Wall duration of one run of the calibration loop."""
    started = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - started


@dataclass
class Chunk:
    """One timed chunk: raw wall figures plus its reference-speed factor."""

    wall_s: float
    factor: float
    latencies_s: List[float] = field(default_factory=list)

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.factor


class Meter:
    """Runs work between calibration runs and keeps the timed chunks.

    ``calibrate`` is injectable so the self-test can drive the conversion
    with known loop durations.
    """

    def __init__(
        self,
        calibrate: Callable[[], float] = calibration_seconds,
        reference: float = REFERENCE_SECONDS,
        slice_s: float = SLICE_S,
    ):
        self._calibrate = calibrate
        self.reference = reference
        self.slice_s = slice_s
        self._last: float | None = None
        self.chunks: List[Chunk] = []

    def _close(self, wall: float, latencies: List[float]) -> Chunk:
        before = self._last if self._last is not None else self._calibrate()
        after = self._calibrate()
        self._last = after
        chunk = Chunk(wall, self.reference / ((before + after) / 2.0), latencies)
        self.chunks.append(chunk)
        return chunk

    def run(self, work: Callable[[], object]) -> tuple[object, Chunk]:
        """Time ``work()`` as one chunk.

        ``work`` may return ``(result, latencies)`` where ``latencies`` are
        raw per-operation seconds measured inside it; any other return value
        is kept as the result with no per-operation figures.
        """
        if self._last is None:
            self._last = self._calibrate()
        started = time.perf_counter()
        outcome = work()
        wall = time.perf_counter() - started
        latencies: List[float] = []
        result = outcome
        if isinstance(outcome, tuple) and len(outcome) == 2 and isinstance(outcome[1], list):
            result, latencies = outcome
        return result, self._close(wall, list(latencies))

    def run_ops(self, ops: Sequence[Callable[[], object]]) -> List[object]:
        """Run ``ops`` back to back, timing each, in slices of about
        :attr:`slice_s` with a calibration run between slices.

        An exception is the operation's output: the round goes on, and the
        workload's check counts it as a failed operation.
        """
        if self._last is None:
            self._last = self._calibrate()
        clock = time.perf_counter
        outputs: List[object] = []
        latencies: List[float] = []
        sliced = clock()
        for op in ops:
            started = clock()
            try:
                output = op()
            except Exception as error:  # counted as a failure by the check
                output = error
            ended = clock()
            latencies.append(ended - started)
            outputs.append(output)
            if ended - sliced >= self.slice_s:
                self._close(ended - sliced, latencies)
                latencies = []
                sliced = clock()
        if latencies:
            self._close(clock() - sliced, latencies)
        return outputs

    def forget(self) -> None:
        """Drop recorded chunks (after warm-up); keep the last calibration."""
        self.chunks = []


def median(values: Sequence[float]) -> float:
    return percentile(sorted(values), 50.0)


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def tail_supported(count: int, pct: float) -> bool:
    """True when at least ten samples lie beyond the ``pct`` percentile."""
    return count * (100.0 - pct) / 100.0 >= 10.0


if __name__ == "__main__":
    samples = sorted(calibration_seconds() for _ in range(2000))
    print(
        f"calibration loop: median {median(samples):.6f}s "
        f"min {samples[0]:.6f}s max {samples[-1]:.6f}s "
        f"(REFERENCE_SECONDS = {REFERENCE_SECONDS})"
    )
