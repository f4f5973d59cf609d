"""Deterministic discrete-event core.

Time is kept as integer microseconds so that sub-millisecond LoRa airtimes
(e.g. 138.496 ms) order events exactly, with no float drift.  Events with
equal timestamps fire in insertion order.  Randomness comes from labeled
streams derived from a single master seed, so adding a consumer never
perturbs the draws of another.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from typing import Callable

import numpy as np

US_PER_MS = 1000


def ms_to_us(ms: float) -> int:
    """Convert milliseconds to the internal integer-microsecond unit."""
    return int(round(ms * US_PER_MS))


class SchedulingError(ValueError):
    """Raised when an event is scheduled before the current clock."""


def stream_rng(master_seed: int, stream_id: str) -> np.random.Generator:
    """Return the generator for a named stream under a master seed.

    The same (master_seed, stream_id) pair always yields the identical draw
    sequence; distinct labels are independent (the label is hashed into a
    SeedSequence spawn key).
    """
    digest = hashlib.sha256(stream_id.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=words))


def draw_uniform_grid(rng: np.random.Generator, lo_ms: int, hi_ms: int, step_ms: int) -> int:
    """Draw uniformly from the grid {lo, lo+step, ..., hi} (milliseconds).

    The range must be divisible by the step; each of the (hi-lo)/step + 1
    grid points is equally likely.
    """
    if step_ms <= 0:
        raise ValueError("step must be positive")
    if hi_ms < lo_ms:
        raise ValueError("empty range: hi < lo")
    span = hi_ms - lo_ms
    if span % step_ms != 0:
        raise ValueError(f"range {lo_ms}..{hi_ms} not divisible by step {step_ms}")
    k = int(rng.integers(0, span // step_ms + 1))
    return lo_ms + k * step_ms


class EventHandle:
    """Cancellable reference to a scheduled event (tombstone flag)."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        # Drop the callback too: it may hold the object that holds this
        # handle, a cycle only the garbage collector would otherwise free.
        self.cancelled = True
        self.fn = None


class Simulator:
    """Single-threaded event loop with an integer-microsecond clock."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self.now_us: int = 0
        # Sequence number of the event being dispatched; outside any event it
        # sorts after every number handed out, as code run between
        # run_until calls comes after every event at its instant.
        self.now_seq: float = math.inf
        self._heap: list[tuple[int, int, EventHandle]] = []
        self._seq = itertools.count()

    def rng(self, stream_id: str) -> np.random.Generator:
        return stream_rng(self.master_seed, stream_id)

    def schedule_at(self, t_us: int, fn: Callable[[], None]) -> EventHandle:
        if t_us < self.now_us:
            raise SchedulingError(f"cannot schedule at {t_us} us; clock is at {self.now_us} us")
        handle = EventHandle(fn)
        heapq.heappush(self._heap, (t_us, next(self._seq), handle))
        return handle

    def schedule_in(self, delay_us: int, fn: Callable[[], None]) -> EventHandle:
        return self.schedule_at(self.now_us + int(delay_us), fn)

    def mark(self) -> int:
        """A sequence number between the events scheduled so far and those
        scheduled from now on: at an equal time, the former fire before a
        point marked now and the latter after it."""
        return next(self._seq)

    def run_until(self, t_end_us: int) -> int:
        """Process every event with time <= t_end_us; leave the clock at t_end_us."""
        if t_end_us < self.now_us:
            raise SchedulingError("t_end is in the past")
        processed = 0
        while self._heap and self._heap[0][0] <= t_end_us:
            t, seq, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self.now_us = t
            self.now_seq = seq
            handle.fn()
            processed += 1
        self.now_seq = math.inf
        self.now_us = t_end_us
        return processed

    def close(self) -> None:
        """Cancel every pending event, releasing the callbacks."""
        for _, _, handle in self._heap:
            handle.cancel()
        self._heap.clear()
