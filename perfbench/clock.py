"""Host time of a block, and the same time in units of a tiny fixed probe
loop that is timed every 20 ms while the block runs.

On the shared 2-vCPU machine this benchmark was built on, a core's speed
for interpreter code shifts by up to 2x for seconds to minutes at a time,
independently per core, so host seconds of one simulation spread by tens
of percent from run to run.  The probe slows down with the code around it,
so dividing each 20 ms slice of host time by the probe time measured at its
ends gives a cost in probe units ("ref") that stays much steadier.
`REF_S` converts it to seconds at a fixed nominal speed.  SIGALRM
interrupts the block between bytecodes; the handler touches nothing of the
program.
"""

from __future__ import annotations

import heapq
import random
import signal
import time

PROBE_INTERVAL_S = 0.02
# Nominal seconds per probe: about its median while interleaved with the
# simulator on the machine the benchmark was built on (Xeon, 2 vCPUs).
REF_S = 1.4e-4


class _Frame:
    def __init__(self, start: int, end: int, source: int):
        self.start, self.end, self.source = start, end, source


# The probe mimics the simulator's mix: heap pushes and pops, overlap scans
# over plain objects, dictionary updates and a Gaussian draw per item.  A
# loop of dictionary updates alone tracked the program's slowdowns about
# half as well.  It avoids NumPy so that a set-up measurement still pays
# for the program's own NumPy import.
_FRAMES = [_Frame(i * 3, i * 3 + 5, i % 7) for i in range(40)]
_RNG = random.Random(0)


def probe_s() -> float:
    """Seconds for a fixed mixed loop (about 0.1 ms)."""
    t0 = time.perf_counter()
    heap: list[tuple[int, int]] = []
    cache: dict[int, float] = {}
    for i, frame in enumerate(_FRAMES):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if not any(
            o.source == frame.source and o.start < frame.end and frame.start < o.end
            for o in _FRAMES[:10]
        ):
            cache[frame.source] = cache.get(frame.source, 0.0) + _RNG.gauss(0.0, 2.0)
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


class Clock:
    """Context manager measuring its body: `wall_s` is host seconds with
    the probes' own time left out, `ref` is the same interval in probe
    durations.  With ``probing=False`` only `wall_s` is measured."""

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.wall_s = 0.0
        self.ref = 0.0

    def __enter__(self) -> "Clock":
        if self.probing:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            self._probe = probe_s()
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._last = time.perf_counter()
        return self

    def _slice(self, now: float, probe: float) -> None:
        self.wall_s += now - self._last
        self.ref += (now - self._last) / probe

    def _tick(self, signum, frame) -> None:
        now = time.perf_counter()
        probe = probe_s()
        self._slice(now, (self._probe + probe) / 2)
        self._probe = probe
        self._last = time.perf_counter()

    def __exit__(self, *exc) -> None:
        if not self.probing:
            self.wall_s += time.perf_counter() - self._last
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._slice(time.perf_counter(), self._probe)
        signal.signal(signal.SIGALRM, self._previous)
