"""Correction of timings for host contention on a shared machine.

On a virtual machine whose cores share physical cores with other tenants the
same code runs at two or more speeds, switching within seconds, and the slow
share drifts over minutes; the same repetition can take 1.5-2x as long from
one minute to the next, which no amount of repetition inside a run averages
out.  ``SpeedProbe`` measures that speed while the workload runs: a daemon
thread, pinned with the workload to one CPU, times a fixed pure-Python
kernel every ``INTERVAL_S``.  The kernel runs twice and only the second run
is timed, so the workload's eviction of the kernel from the caches does not
count.  A timed span is scaled by ``REFERENCE_S`` over the mean kernel time
seen during the span: the time the span would have taken on a CPU that runs
the kernel in ``REFERENCE_S``.  Program changes move the span but not the
warm kernel, so they show in full.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

INTERVAL_S = 0.02
# A fixed nominal kernel time, near the fastest the kernel runs on the
# 2-vCPU Xeon VM the benchmark was tuned on.  A fixed value, not the fastest
# kernel time of each run: that minimum itself moved by several percent from
# run to run.
REFERENCE_S = 60e-6
# Kernel times above this multiple of the process's fastest one were
# preempted by the workload's own GIL-free work on the shared CPU, not slowed
# by the host.
OUTLIER_FACTOR = 3.0
MIN_SAMPLES = 5


def pin_to_one_cpu() -> int:
    """Pin this thread and the threads it starts later to one allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _work() -> None:
    # integer arithmetic, dict inserts, keyed sorts and string formatting:
    # 60-80 us warm on that VM, builtins only so that it runs before any import
    s = 0
    for i in range(150):
        s += i * i
    d = {}
    for i in range(40):
        d[str(i)] = [i, i * 0.5]
    sorted(d.items(), key=lambda kv: kv[1][1])
    sorted(range(200), key=lambda x: (x * 7919) % 211)
    "{:>10.3f}|{:<8}".format(3.14159, "abc")
    [f"{k}={v!r}" for k, v in d.items()]


def _kernel() -> float:
    _work()  # warms the caches
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class SpeedProbe:
    """Kernel timings taken every ``INTERVAL_S`` on a daemon thread."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            self.times.append(_kernel())
            self.starts.append(start)

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, t0: float, t1: float) -> float:
        """The span [t0, t1] scaled to ``REFERENCE_S`` by the mean kernel time
        over the span, preempted samples left out."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        cutoff = OUTLIER_FACTOR * min(self.times)
        kept = [t for t in self.times[i:j] if t <= cutoff]
        if len(kept) < MIN_SAMPLES:
            raise RuntimeError(f"the speed probe kept {len(kept)} samples in a "
                               f"{t1 - t0:.3f} s span, fewer than {MIN_SAMPLES}")
        return (t1 - t0) * REFERENCE_S * len(kept) / sum(kept)
