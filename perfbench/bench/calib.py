"""Host speed, sampled next to the program with a fixed probe.

The hosts the benchmark runs on are shared: a vCPU runs the same code up
to 1.6 times slower for spells of a fraction of a second to minutes, and
the two vCPUs of one VM are slowed independently.  A slow spell slows a
fixed probe as much as it slows the program on the same vCPU.  So while a
repetition runs, a :class:`HostSampler` in the benchmark's own process runs
a short fixed probe (pure-Python float and dict work plus small NumPy
operations, the mix the program's model code runs) every ``PERIOD_S`` on
each vCPU the program uses, pinned there, and times it in thread CPU
time, which waiting for the vCPU does not inflate.  Times are then
reported in *reference seconds*: a unit of work's seconds times
``REF_PROBE_S`` over the probe's mean time on the program's vCPUs during
that unit.  A change to the program moves reference seconds as it moves
seconds; a change of host speed moves the unit and the probe alike, and
drops out.
"""

import os
import statistics
import threading
import time
from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: The probe's median thread CPU time on the host the benchmark was tuned
#: on (a 2-vCPU VM, Python 3.11.7, NumPy 2.4.6): one reference second is
#: one second of that host in its median state.
REF_PROBE_S = 0.002

#: Pause between two probes on one vCPU: the sampler takes about 5 % of
#: the vCPU it shares with the program.
PERIOD_S = 0.04


def probe() -> float:
    total = 0.0
    table = {}
    for i in range(4_500):
        total += (i % 13) * 0.5 / (1.0 + (i & 7))
        table[i & 255] = total
    values = np.arange(64, dtype=float)
    for _ in range(110):
        values = np.minimum(values * 1.0001 + 0.5, 1e6)
        total += float(values.sum())
    return total


def usable_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


class HostSampler:
    """Probe threads, one pinned to each of ``cpus``, for a ``with`` block.

    ``samples`` holds (monotonic midpoint, probe thread-CPU seconds).
    """

    def __init__(self, cpus: Iterable[int]):
        self.cpus = sorted(set(cpus))
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in self.cpus
        ]

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.is_set():
            start = time.monotonic()
            cpu_start = time.thread_time()
            probe()
            spent = time.thread_time() - cpu_start
            with self._lock:
                self.samples.append((0.5 * (start + time.monotonic()), spent))
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> "HostSampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def ref_seconds(self, start: float, end: float) -> float:
        """Seconds ``start``..``end`` (monotonic) in reference seconds.

        Uses the probes that ran inside the span, or the four nearest to
        it when the span was too short to hold any.
        """
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            middle = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda ts: abs(ts[0] - middle))
            inside = [s for _t, s in nearest[:4]]
        return (end - start) * REF_PROBE_S / statistics.mean(inside)

    def ref_laps(self, marks: Sequence[float]) -> List[float]:
        """Each span between consecutive ``marks`` in reference seconds."""
        return [self.ref_seconds(a, b) for a, b in zip(marks, marks[1:])]
