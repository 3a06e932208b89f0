"""Statistics and resource measurement shared by the benchmark workloads.

* :func:`percentile` applies the reporting rule for latency
  percentiles: a percentile is reported only when at least
  :data:`MIN_TAIL` samples lie beyond it.
* :class:`OpLog` times operations and counts the ones that fail, so a
  failure is counted against the operations attempted instead of
  aborting the run.
* :class:`PeakRss` samples the resident memory of this process and the
  private memory of its live descendants (pool workers) while a region
  runs.
* :func:`timed` times a call and measures the machine's speed around it
  with a fixed calibration kernel, so times can be reported at a fixed
  reference speed.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
import traceback
from pathlib import Path

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10

#: Median time of one calibration kernel run on the machine the README
#: baseline was recorded on (2 CPUs, Python 3.11.7, numpy 2.4.6).
REFERENCE_KERNEL_S = 0.012


class TooFewSamples(ValueError):
    """Raised when a percentile has fewer than MIN_TAIL samples beyond it."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_TAIL`
    samples rank above the returned one.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise TooFewSamples(
            f"p{q:g} needs {MIN_TAIL} samples beyond it; "
            f"{n} samples give {max(n - rank, 0)}"
        )
    return sorted(samples)[rank - 1]


def min_samples(q: float) -> int:
    """Smallest sample count for which :func:`percentile` reports ``q``."""
    n = MIN_TAIL + 1
    while n - max(1, math.ceil(q / 100.0 * n)) < MIN_TAIL:
        n += 1
    return n


def _kernel() -> float:
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(60_000):
        total += i * i
        table[i & 1023] = total
    column = np.arange(100_000, dtype=np.int64)
    for _ in range(5):
        column = np.maximum.accumulate(column[::-1]) + 1
    return time.perf_counter() - start


def calibrate() -> float:
    """Median time of five runs of a fixed interpreter-and-numpy kernel."""
    return statistics.median(_kernel() for _ in range(5))


def timed(fn) -> tuple[object, float, float]:
    """Run ``fn()``; return its result, its wall time in seconds, and the
    factor that converts that time to the reference machine speed.

    The host's speed drifts by tens of percent over minutes when other
    tenants load it. The kernel runs just before and just after ``fn``;
    the factor is the reference kernel time over their mean.
    """
    before = calibrate()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = calibrate()
    return result, wall, REFERENCE_KERNEL_S / ((before + after) / 2)


class OpLog:
    """Per-operation latencies plus attempted and failed counts."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, fn) -> tuple[bool, object]:
        """Run ``fn()`` as one operation: ``(True, result)``, or
        ``(False, None)`` with the traceback printed if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return False, None
        self.latencies_ms.append((time.perf_counter() - start) * 1e3)
        return True, result

    def add(self, wall_ms: float, ok: bool) -> None:
        """Record an operation timed elsewhere (e.g. in a pool worker)."""
        self.attempted += 1
        if ok:
            self.latencies_ms.append(wall_ms)
        else:
            self.failed += 1


def _proc_kb(pid: int | str, name: str, fields) -> int:
    """Sum of the kB ``fields`` in ``/proc/<pid>/<name>``; 0 once it exited."""
    try:
        text = Path(f"/proc/{pid}/{name}").read_text()
    except OSError:
        return 0  # the process exited between listing and reading
    total = 0
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key in fields:
            total += int(rest.split()[0])
    return total


def _descendants(pid: int) -> list[int]:
    found: list[int] = []
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            tids = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                text = Path(f"/proc/{current}/task/{tid}/children").read_text()
            except OSError:
                continue
            children = [int(child) for child in text.split()]
            found.extend(children)
            stack.extend(children)
    return found


class PeakRss:
    """Peak resident memory of this process plus its live descendants.

    On entry the process's high-water mark is reset (Linux
    ``clear_refs``), so earlier set-up does not count. A thread then
    samples every ``interval`` seconds: this process's high-water mark
    plus the private resident memory of its live descendants. The peak
    is the largest sample.

    A forked pool worker starts with the parent's pages mapped, so its
    own resident size counts the parent's memory again; and when one
    pool is replaced by the next, a sample can see both sets of workers.
    Counting only the workers' private pages (``smaps_rollup``) charges
    each worker for the memory it made its own, which a freshly forked
    or exiting worker barely has.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        pid = os.getpid()
        total = _proc_kb(pid, "status", ("VmHWM",)) + sum(
            _proc_kb(child, "smaps_rollup", ("Private_Clean", "Private_Dirty"))
            for child in _descendants(pid)
        )
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRss":
        try:
            Path("/proc/self/clear_refs").write_text("5")
        except OSError:
            pass  # no reset: the mark then covers the whole process life
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
