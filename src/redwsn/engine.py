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
timer fires.  A callback that raises ends the run; nothing resumes it.
Randomness comes from labeled streams derived from a single master seed, so
adding a consumer never perturbs the draws of another.

Three rules that every layer shares live here too: a fault window is
active over [start, end) (``in_windows``), a stream drawn a block ahead
yields the values of one draw per item (``drawn_ahead``), and a config
field holds its declared type within its bound (``check_typed_fields``).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import sys
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Annotated, Callable, Container, Iterable, Iterator, get_args, get_origin, get_type_hints

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
    if type(None) in get_args(ftype):  # Optional[T]
        return f"{type_name(get_args(ftype)[0])} or None"
    return "a finite float" if ftype is float else (str(ftype) if get_args(ftype) else ftype.__name__)


@dataclass(frozen=True)
class Interval:
    """A config field's bound: the numbers from ``lo`` to ``hi``, both
    included, except ``lo`` when ``lo_open``."""

    lo: float
    hi: float = math.inf
    lo_open: bool = False

    def __contains__(self, value) -> bool:
        return (self.lo < value if self.lo_open else self.lo <= value) and value <= self.hi

    def __str__(self) -> str:
        low = f"{'>' if self.lo_open else '>='} {self.lo:g}"
        return low if self.hi == math.inf else f"{low} and <= {self.hi:g}"


POSITIVE = Interval(0, lo_open=True)
NOT_NEGATIVE = Interval(0)


def bound_text(bound: Container) -> str:
    """The rule a bound states, as a refusal prints it: ``>= 6 and <= 12``, ``> 0``."""
    return str(bound) if isinstance(bound, Interval) else f"one of {bound}"


def value_text(value) -> str:
    """``repr(value)``, or what it is if it holds an int too long to print."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits(), or a tuple holding one
        what = f"an int of {value.bit_length()} bits" if type(value) is int else f"a {type(value).__name__}"
        return f"{what} too long to print"


@functools.cache
def declared_fields(cls) -> dict[str, tuple[type, Container | None]]:
    """A config class's (type, bound) by field, from ``type`` (no bound) or
    ``Annotated[type, bound]``.  Cached: get_type_hints takes ~130 us on ScenarioConfig."""
    hints = get_type_hints(cls, include_extras=True)
    return {name: get_args(t) if get_origin(t) is Annotated else (t, None) for name, t in hints.items()}


def check_typed_fields(config, error: type[ValueError] = ValueError) -> None:
    """Refuse a config with a field that does not hold its declared type,
    or lies outside its declared bound, naming the field and the rule.
    Sections call this before their cross-field checks."""
    for name, (ftype, bound) in declared_fields(type(config)).items():
        value = getattr(config, name)
        if not holds_type(value, ftype):
            rule = type_name(ftype)
        elif bound is not None and value not in bound:
            rule = bound_text(bound)
        else:
            continue
        raise error(f"{type(config).__name__}.{name} must be {rule}, got {value_text(value)}")


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
    scheduling order once the instant is tied.  A lone event skips the
    list: most instants of the paper's presets hold one.  An event
    scheduled at the instant that is running starts a new entry there, so
    it runs after the rest of the instant: the tie rule is time, then
    scheduling order.
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

    def run_until(self, t_end_us: int) -> int:
        """Process every event with time <= t_end_us; leave the clock at
        t_end_us.  Returns the number of callbacks run.

        A callback that raises ends the run: the exception leaves here with
        the clock at its instant, the events of that instant it did not
        reach are dropped, and the Simulator is not run again.
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
                for fn, args in pending:
                    fn(*args)
                processed += len(pending)
            else:
                fn, args = pending
                fn(*args)
                processed += 1
        self.now_us = t_end_us
        return processed

    def close(self) -> None:
        """Drop every pending event, releasing the callbacks and their
        arguments."""
        self._times.clear()
        self._due.clear()
