"""Deterministic discrete-event core.

Time is kept as integer microseconds so that sub-millisecond LoRa airtimes
(e.g. 138.496 ms) order events exactly, with no float drift.
``schedule_at(t, fn, *args)`` queues ``fn`` with its arguments, and the
loop calls ``fn(*args)`` at ``t``; as with asyncio's ``call_at``, a caller
passes a bound method and its arguments, with no closure or partial built
per event.  Events fire by time, then in the order they were scheduled.
The queue is keyed by instant (see ``Simulator``), so an event that ties
with another costs a list append, not a heap push.  Events are never
cancelled: an owner whose timer can go stale checks its own state when the
timer fires.
Randomness comes from labeled streams derived from a single master seed, so
adding a consumer never perturbs the draws of another.

Three rules that every layer shares live here too: a fault window is
active over [start, end) (``in_windows``), a stream drawn a block ahead
yields the values of one draw per item (``drawn_ahead``), and a config
field holds its declared type (``holds_type``, for sections and loader).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import sys
from heapq import heappop, heappush
from typing import Callable, Iterable, Iterator, get_args, get_origin, get_type_hints

import numpy as np

US_PER_MS = 1000


def ms_to_us(ms: float) -> int:
    """Convert milliseconds to the internal integer-microsecond unit."""
    return int(round(ms * US_PER_MS))


def holds_type(value, ftype) -> bool:
    """Whether ``value`` holds the config field type ``ftype``.  A float
    field takes an int too (not a bool), and only in the finite float range."""
    if ftype is float:
        return type(value) in (float, int) and abs(value) <= sys.float_info.max
    args = get_args(ftype)
    if type(None) in args:  # Optional[T]
        return any(holds_type(value, t) for t in args)
    if get_origin(ftype) is tuple:
        return type(value) is tuple and all(holds_type(v, args[0]) for v in value)
    return type(value) is int if ftype is int else isinstance(value, ftype)


def type_name(ftype) -> str:
    return "a finite float" if ftype is float else (str(ftype) if get_args(ftype) else ftype.__name__)


# A config class's field types by name, cached: get_type_hints takes ~130 us on ScenarioConfig.
field_types = functools.cache(get_type_hints)


def check_typed_fields(config, error: type[ValueError] = ValueError) -> None:
    """Refuse a config with a field that does not hold its declared type,
    naming the field.  Sections call this before their range checks."""
    for name, ftype in field_types(type(config)).items():
        value = getattr(config, name)
        if not holds_type(value, ftype):
            raise error(f"{type(config).__name__}.{name} must be {type_name(ftype)}, got {value!r}")


def in_windows(windows_us: Iterable[tuple[int, int]], t_us: int) -> bool:
    """True iff ``t_us`` lies in one of the half-open windows [start, end).
    A linear scan: every caller holds a handful of windows."""
    for start, end in windows_us:
        if start <= t_us < end:
            return True
    return False


def drawn_ahead(draw: Callable[[], Iterable]) -> Iterator:
    """The items of repeated ``draw()`` calls, one at a time, calling
    ``draw`` only when the previous block runs out.

    numpy's normal, standard-normal and bounded-integer draws give a block of
    k the same values, in order, as k single draws, so a stream with one
    owner can be drawn ahead without moving any value.  ``draw`` should
    close over its stream only, not its owner, so that an owner holding the
    iterator is freed by refcount.
    """
    return itertools.chain.from_iterable(itertools.starmap(draw, itertools.repeat(())))


class SchedulingError(ValueError):
    """Raised when an event is scheduled before the current clock, or at a
    time that is not a number."""


# A queued event: the callback and the arguments it is called with.
_Event = tuple[Callable[..., None], tuple]


def stream_rng(master_seed: int, stream_id: str) -> np.random.Generator:
    """Return the generator for a named stream under a master seed.

    The same (master_seed, stream_id) pair always yields the identical draw
    sequence; distinct labels are independent (the label is hashed into a
    SeedSequence spawn key).
    """
    digest = hashlib.sha256(stream_id.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=words))


class Simulator:
    """Single-threaded event loop with an integer-microsecond clock.

    ``_times`` is a heap of the distinct pending instants; ``_due`` maps
    each to its event, a ``(fn, args)`` pair, or to a list of them in
    scheduling order once the instant is tied.  An event scheduled at the
    instant that is running starts a new entry there, so it runs after the
    rest of the instant: the tie rule is time, then scheduling order.
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self.now_us: int = 0
        self._times: list[int] = []
        self._due: dict[int, _Event | list[_Event]] = {}

    def rng(self, stream_id: str) -> np.random.Generator:
        return stream_rng(self.master_seed, stream_id)

    def schedule_at(self, t_us: int, fn: Callable[..., None], *args) -> None:
        """Call ``fn(*args)`` at ``t_us``."""
        # Written so that NaN, which compares false, is refused too.
        if not t_us >= self.now_us:
            raise SchedulingError(f"cannot schedule at {t_us} us; clock is at {self.now_us} us")
        due = self._due
        pending = due.get(t_us)
        if pending is None:
            due[t_us] = (fn, args)
            heappush(self._times, t_us)
        elif pending.__class__ is list:
            pending.append((fn, args))
        else:
            due[t_us] = [pending, (fn, args)]

    def schedule_in(self, delay_us: int, fn: Callable[..., None], *args) -> None:
        """Call ``fn(*args)`` ``delay_us`` after now."""
        try:
            t_us = self.now_us + int(delay_us)
        except (ValueError, OverflowError):  # NaN or an infinity
            raise SchedulingError(f"cannot schedule {delay_us} us ahead") from None
        self.schedule_at(t_us, fn, *args)

    def run_until(self, t_end_us: int) -> int:
        """Process every event with time <= t_end_us; leave the clock at
        t_end_us.  Returns the number of callbacks run.

        If a callback raises, the clock stays at its instant, and the
        events of that instant it did not reach stay pending, ahead of any
        scheduled there since.
        """
        if not t_end_us >= self.now_us:
            raise SchedulingError("t_end is in the past")
        processed = 0
        times, due, pop = self._times, self._due, heappop
        while times and times[0] <= t_end_us:
            t = pop(times)
            self.now_us = t
            pending = due.pop(t)
            if pending.__class__ is list:
                rest = iter(pending)
                try:
                    for fn, args in rest:
                        fn(*args)
                except BaseException:
                    self._requeue(t, list(rest))
                    raise
                processed += len(pending)
            else:
                fn, args = pending
                fn(*args)
                processed += 1
        self.now_us = t_end_us
        return processed

    def _requeue(self, t_us: int, events: list[_Event]) -> None:
        """Put back the events an exception left unrun at ``t_us``, ahead
        of any scheduled there since."""
        if not events:
            return
        since = self._due.get(t_us)
        if since is None:
            heappush(self._times, t_us)
        else:
            events += since if since.__class__ is list else [since]
        self._due[t_us] = events

    def close(self) -> None:
        """Drop every pending event, releasing the callbacks and their
        arguments."""
        self._times.clear()
        self._due.clear()
