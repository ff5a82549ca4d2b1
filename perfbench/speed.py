"""Timing in reference seconds: wall and CPU time corrected for the speed
the machine ran at while they were measured.

On a shared VM the same work can take twice as long for minutes at a
time, because of other tenants, so plain wall times of runs made minutes apart
differ by more than any useful regression bound.  A `SpeedClock` measures
that speed while it times a region: it runs a short fixed calibration loop
right before and right after the region and, from a SIGALRM timer, every
INTERVAL_S seconds inside it.  A region's time in reference seconds is
its measured time times the mean of REFERENCE_S / (the loop's CPU time),
that is, the time it would have taken on a machine where the loop takes
REFERENCE_S.  The loop's own time is taken out of the region's.

The correction assumes that the program slows down in step with the loop.
The loop is plain interpreter work on a small dict and set, like most of
gammarho; a change that makes the program wait on memory or I/O instead is
still corrected by the speed of interpreter work.  The loop is timed in
thread CPU time, so a calibration that waits for a core (the scan's pool
workers keep both busy) does not read as a slow machine.

Only the process that starts the clock samples: interval timers are not
inherited across fork, so pool workers never run the handler.
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import time

INTERVAL_S = 0.1
# Chunks right before and right after a region; a set-up may be shorter
# than INTERVAL_S.
EDGE_CHUNKS = 3
CHUNK_ITERATIONS = 3000
# Thread CPU time of one calibration chunk at the reference speed: the
# median on an Intel Xeon VM with 2 vCPUs under Python 3.11.
REFERENCE_S = 0.0025

# The loop reuses one dict and one set, so every call does the same work
# and allocates no new containers.
_TABLE = dict.fromkeys(range(1021), 0)
_SEEN: set[int] = set()


def calibration_chunk() -> float:
    """Run the fixed calibration loop; return its thread CPU time."""
    was_enabled = gc.isenabled()
    gc.disable()  # a collection here would walk the program's heap
    start = time.thread_time()
    table, seen, acc = _TABLE, _SEEN, 0
    for i in range(CHUNK_ITERATIONS):
        key = (i * 7919) % 1021
        table[key] = (table[key] + i) & 0xFFFF
        if key & 1:
            seen.add(key)
        else:
            seen.discard(key - 1)
        acc ^= len(seen) + table.get(key ^ 5, 0)
    elapsed = time.thread_time() - start
    if was_enabled:
        gc.enable()
    return elapsed


def process_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class SpeedClock:
    """Times one region.  Use as a context manager; afterwards `wall` and
    `cpu` hold the measured seconds without the calibration loop,
    `speed` the mean speed relative to the reference, and `ref_wall` and
    `ref_cpu` the times in reference seconds.  With `sample=False` it
    runs no calibration and reads the speed as 1, for traced passes, whose
    spans would otherwise count the loop's time."""

    def __init__(self, sample: bool = True):
        self.sample = sample

    def __enter__(self) -> "SpeedClock":
        self.chunks: list[float] = []
        self.overhead_wall = 0.0
        self.overhead_cpu = 0.0
        if self.sample:
            self._sample(EDGE_CHUNKS)
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._cpu0 = process_cpu()
        self._start = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        cpu = process_cpu() - self._cpu0
        self.wall = end - self._start - self.overhead_wall
        self.cpu = cpu - self.overhead_cpu
        self.speed = 1.0
        if self.sample:
            signal.signal(signal.SIGALRM, self._previous)
            self._sample(EDGE_CHUNKS)
            self.speed = statistics.fmean(REFERENCE_S / c for c in self.chunks)
        self.ref_wall = self.wall * self.speed
        self.ref_cpu = self.cpu * self.speed

    def _sample(self, chunks: int = 1) -> None:
        self.chunks.extend(calibration_chunk() for _ in range(chunks))

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        self._sample()
        self.overhead_cpu += time.thread_time() - cpu
        self.overhead_wall += time.perf_counter() - start
