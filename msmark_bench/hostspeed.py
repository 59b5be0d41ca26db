"""Host speed, sampled all through the timed work.

The vCPUs this benchmark was built on run at two speeds about 1.7x apart
and switch between them within seconds, whatever runs in the guest
(README.md, *Noise and bounds*). A raw time then says as much about the
host's state as about the program. So while a worker times something,
a ``Sampler`` lets a timer signal interrupt it every ``INTERVAL_S`` and
times ``probe``, a fixed sub-millisecond piece of work of the kinds the
program does: Python float parsing and small numpy solves. Python runs
the handler between bytecodes, so the probes sample the host's speed
while the timed work runs, not beside it.

The probes' own time is taken off the measured time. What is left is
divided by the host factor, the mean probe time over ``REF_PROBE_S``,
which gives the time the same work takes on the reference machine in its
fast state. The probe calls nothing of the package, so no change to the
program moves it.
"""
from __future__ import annotations

import signal
import statistics
import time
import tracemalloc

import numpy as np

INTERVAL_S = 0.05
# the probe's mean time on the reference machine in its fast state; in a
# slow stretch it is up to 1.7 times that
REF_PROBE_S = 0.7e-3

_CELLS = [repr(float(v)) for v in np.random.default_rng(20241121).standard_normal(400)]
_SMALL = 3.0 * np.eye(10) + 0.1


def probe() -> float:
    """Seconds taken by one fixed piece of reference work."""
    start = time.perf_counter()
    total = 0.0
    for cell in _CELLS:
        total += float(cell)
    b = np.full(10, total)
    for _ in range(40):
        b = np.linalg.solve(_SMALL, b) + 0.1
    return time.perf_counter() - start


class Sampler:
    """Times ``probe`` on a timer signal while the ``with`` block runs.

    ``start`` is when the timed work began, if before the block. After the
    block, ``work_s`` is the time from ``start`` to its end less the
    probes' time, ``factor`` the host factor and ``reference_s`` the work
    in seconds at the reference speed.
    """

    def __init__(self, start: float | None = None):
        self.start = start

    def __enter__(self):
        if self.start is None:
            self.start = time.perf_counter()
        self.probes = []
        self._spent = probe()  # numpy's first-call costs: taken off, not sampled
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _on_alarm(self, signum, frame):
        # tracemalloc, which the traced pass turns on inside mfdfa, slows
        # every allocation, the probe's too; such a probe would misreport
        # the host
        if not tracemalloc.is_tracing():
            self.probes.append(probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(probe())  # at least one sample, however short the block
        elapsed = time.perf_counter() - self.start
        self.work_s = elapsed - self._spent - sum(self.probes)
        self.factor = statistics.fmean(self.probes) / REF_PROBE_S
        self.reference_s = self.work_s / self.factor
        return False
