"""Host-speed calibration: a fixed reference kernel timed beside the work.

The 2-core reference container shares its host, and each of its CPUs
changes speed in stretches of a second to minutes.  Timed back to back
for 150 s, the fastest of 5 greedy decodes of one 8-row batch swung
between 4.7 and 8.6 ms (quartile spread 0.63 over 2333 samples), so even
the fastest repetition of a step does not help when a whole stretch is
slow.  A fixed kernel of the same kind of work as the program, small
float32 matmuls and table scans driven from a Python loop, slowed down
with it when run in the same thread: over 12-s windows the ratio of the
two spread 0.03 to 0.08.  Run in another process it did not (ratio spread
0.45): the speed belongs to the CPU a thread is on at the moment.

So while the benchmark works, a timer signal runs the kernel in the
working thread every ``INTERVAL`` seconds and reads the thread's CPU time
it took.  The host's slowdowns show in CPU time as much as in wall time;
CPU time leaves out the time another process on the same CPU (the server
child of ``device_session``) ran while the kernel waited.
:meth:`HostSpeed.rescale` turns clock readings taken during the work into
full-speed seconds: it removes the CPU time the kernel took from the
work, cuts the work at every kernel run, and scales each piece by
``REFERENCE_SECONDS`` over the median kernel time within ``WINDOW``
seconds of it.  The kernel is the benchmark's own code and calls nothing
in the program, so a change to the program moves the rescaled time as it
moves the measured one.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from typing import Dict, Iterator, List, Sequence

import numpy as np

#: Kernel time on the 2-core reference container (Intel Xeon, Python 3.11,
#: numpy 2.4, OpenBLAS with 1 thread) with its host at full speed: the
#: 10th percentile of its runs, the median over 15 benchmark runs.
REFERENCE_SECONDS = 0.00234
#: Seconds between kernel runs (the kernel takes about 5% of the time).
INTERVAL = 0.06
#: Each piece of work is scaled by the kernel runs within this many seconds.
WINDOW = 0.3

_rng = np.random.default_rng(0)
_WEIGHT = _rng.standard_normal((32, 128)).astype(np.float32)
_BLOCK = _rng.standard_normal((32, 32)).astype(np.float32)
#: A 1 MB table, scored against the state like a decode step scores its
#: vocabulary.
_TABLE = _rng.standard_normal((4000, 64)).astype(np.float32)
_ROW = _rng.standard_normal(64).astype(np.float32)


def kernel() -> float:
    """CPU seconds one run of the reference kernel takes now."""
    start = time.thread_time()
    block = _BLOCK
    for _ in range(100):
        block = np.tanh((np.maximum(block @ _WEIGHT, 0.0) @ _WEIGHT.T) * 0.01)
        float(block.sum())
    row = _ROW
    for _ in range(40):
        best = int(np.argmax(_TABLE @ row))
        row = np.tanh(_TABLE[best] + 0.5 * row)
    return time.thread_time() - start


class HostSpeed:
    """Kernel runs taken from a timer signal, and the rescaling they give."""

    def __init__(self) -> None:
        #: ``(start, end, kernel CPU seconds)`` of every run, in clock order.
        self.runs: List[tuple] = []
        self._starts: List[float] = []
        self._spent: List[float] = [0.0]

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        seconds = kernel()
        self.record(start, time.perf_counter(), seconds)

    def record(self, start: float, end: float, seconds: float) -> None:
        """Keep one kernel run: clock at its start and end, its CPU seconds."""
        self.runs.append((start, end, seconds))
        self._starts.append(start)
        self._spent.append(self._spent[-1] + seconds)

    @contextlib.contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        """Run the kernel every ``INTERVAL`` s in this (the main) thread.

        The block should end ``WINDOW`` seconds after the last reading it
        rescales, so that reading has kernel runs on both sides.
        """
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _work_clock(self, moment: float) -> float:
        """``moment`` minus the kernel's CPU time spent before it."""
        index = bisect.bisect_right(self._starts, moment)
        spent = self._spent[index]
        if index and moment < self.runs[index - 1][1]:  # read during a kernel run
            start, end, seconds = self.runs[index - 1]
            spent -= seconds * (end - moment) / (end - start)
        return moment - spent

    def _factor(self, begin: float, end: float) -> float:
        low = bisect.bisect_left(self._starts, begin - WINDOW)
        high = bisect.bisect_right(self._starts, end + WINDOW)
        nearby = self.runs[low:high] or self.runs[max(0, low - 2) : low + 2]
        if not nearby:
            return 1.0
        return REFERENCE_SECONDS / statistics.median(run[2] for run in nearby)

    def rescale(self, moments: Sequence[float]) -> List[float]:
        """Full-speed offsets ``0, c1, ..., cn`` of clock readings ``t0..tn``.

        The readings must not decrease.  The work between them is cut at
        every kernel run; each piece, without the kernel's own time, is
        scaled by the kernel runs around it, and ``c_j`` sums the pieces up
        to ``t_j``.
        """
        if not moments:
            return []
        low = bisect.bisect_right(self._starts, moments[0])
        high = bisect.bisect_left(self._starts, moments[-1])
        cuts = sorted([*moments, *(run[1] for run in self.runs[low:high])])
        total = 0.0
        at: Dict[float, float] = {cuts[0]: 0.0}
        for begin, end in zip(cuts, cuts[1:]):
            piece = self._work_clock(end) - self._work_clock(begin)
            total += max(0.0, piece) * self._factor(begin, end)
            at[end] = total
        return [at[moment] for moment in moments]

    def summary(self) -> Dict[str, float]:
        """The run's kernel times, as the host's speed relative to full speed."""
        if not self.runs:
            return {"kernel_runs": 0}
        seconds = sorted(run[2] for run in self.runs)
        return {
            "kernel_runs": len(seconds),
            "kernel_s_p10": seconds[int(0.1 * (len(seconds) - 1))],
            "kernel_s_median": statistics.median(seconds),
            "speed_median": REFERENCE_SECONDS / statistics.median(seconds),
            "kernel_share": sum(seconds)
            / max(1e-9, self.runs[-1][1] - self.runs[0][0]),
        }
