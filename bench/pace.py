"""Machine-speed probe: turns wall times on a shared machine into reference seconds.

On a shared virtual machine the speed of one CPU for this kind of code swings
by 30-50% within seconds and drifts over minutes, so raw wall times of the
same code spread far more than the changes worth detecting.  While a child
runs, the benchmark process, pinned to the same CPU, wakes every
``INTERVAL_S`` and times ``kernel()``: a fixed scan of integer lists in the
shape of fuzzaut's homomorphism check, written here so that no change to
fuzzaut moves it.  The child is preempted for the probe's duration, which is
taken out of its wall time again.  A child's time is then scaled by
``REFERENCE_S`` over the mean probe duration seen during its life: a
"reference second" is a second on a CPU fast enough to run the probe in
``REFERENCE_S``.
"""

from __future__ import annotations

import itertools
import os
import select
import signal
import statistics
import time

INTERVAL_S = 0.05
REFERENCE_S = 0.000625

_PERMS = list(itertools.permutations(range(4)))
_INDEX = {p: i for i, p in enumerate(_PERMS)}
_TABLE = [[_INDEX[tuple(p[q[k]] for k in range(4))] for q in _PERMS] for p in _PERMS]
_INVERSE = [row.index(_INDEX[(0, 1, 2, 3)]) for row in _TABLE]
_COFACTOR = [_TABLE[_INVERSE[a]] for a in range(24)]
_ROWS = [[(x * 3 + y) % 5 for y in range(24)] for x in range(24)]


def kernel() -> int:
    """Half a row of a (max, min) product over S4's table; about 0.5 ms."""
    total = 0
    r1 = _ROWS[0]
    for x2 in range(12):
        r2 = _ROWS[x2]
        for y in range(24):
            best = -1
            for y1 in range(24):
                v = r1[y1]
                w = r2[_COFACTOR[y1][y]]
                if w < v:
                    v = w
                if v > best:
                    best = v
            total += best
    return total


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to its lowest usable CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Pacer:
    """Probes the CPU while a child runs and normalises the child's times."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, end) of the current child's probes

    def _probe(self) -> None:
        start = time.perf_counter()
        kernel()
        self.probes.append((start, time.perf_counter()))

    def wait(self, pid: int, deadline: float) -> tuple[int, object]:
        """Probe every ``INTERVAL_S`` until ``pid`` exits; kill it at ``deadline``.

        Returns the ``wait4`` status and resource usage.  The probe list holds
        one probe taken before the child started, see ``start``.
        """
        fd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            while not poller.poll(INTERVAL_S * 1000):
                if time.perf_counter() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    break
                self._probe()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            os.close(fd)
        _, status, usage = os.wait4(pid, 0)
        return status, usage

    def start(self) -> None:
        """Forget the previous child's probes and take one before the next starts."""
        self.probes = []
        self._probe()

    def speed(self) -> float:
        """REFERENCE_S over the mean probe duration of the current child."""
        return REFERENCE_S / statistics.fmean(end - start for start, end in self.probes)

    def reference_s(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end``, less the probes inside it, in reference seconds."""
        inside = sum(b - a for a, b in self.probes if start <= a and b <= end)
        return (end - start - inside) * self.speed()
