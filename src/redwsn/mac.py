"""Slotted-ALOHA-with-random-backoff MAC for primary boards.

Data slots fall on a 500 ms grid inside [20 s, 30 s] after the previous
slot; two fixed retransmission slots (+6 s, +12 s) follow each data slot.
Unacknowledged packets go through a bounded LIFO queue that evicts its
oldest entry when full.  With `enabled=False` the layer degrades to the
baseline: one transmission every fixed interval, no acks, no queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Callable, Optional

import numpy as np

from .engine import NOT_NEGATIVE, POSITIVE, Simulator, check_typed_fields, drawn_ahead, ms_to_us
from .packets import Packet


@dataclass(frozen=True)
class SarbConfig:
    slot_min_ms: Annotated[int, POSITIVE] = 20_000
    slot_max_ms: int = 30_000
    slot_step_ms: Annotated[int, POSITIVE] = 500
    retx_interval_ms: Annotated[int, POSITIVE] = 6_000
    retx_slots_per_cycle: Annotated[int, NOT_NEGATIVE] = 2
    queue_capacity: Annotated[int, NOT_NEGATIVE] = 10
    ack_timeout_ms: Annotated[int, POSITIVE] = 2_000
    enabled: bool = True
    # Baseline when disabled: fixed interval, no retransmission.
    fixed_interval_ms: Annotated[int, POSITIVE] = 30_000

    def __post_init__(self):
        check_typed_fields(self)
        if self.slot_min_ms > self.slot_max_ms:
            raise ValueError("SarbConfig.slot_min_ms must not exceed slot_max_ms")
        if (self.slot_max_ms - self.slot_min_ms) % self.slot_step_ms:
            raise ValueError("SarbConfig.slot_max_ms - slot_min_ms must be a multiple of slot_step_ms")
        if self.retx_slots_per_cycle * self.retx_interval_ms >= self.slot_min_ms:
            # Retransmission slots must fit before the earliest next data slot.
            raise ValueError("SarbConfig.retx_slots_per_cycle * retx_interval_ms must be less than slot_min_ms")

    @property
    def max_interval_ms(self) -> int:
        """The longest gap between two data slots."""
        return self.slot_max_ms if self.enabled else self.fixed_interval_ms


# Slot offsets drawn per numpy call (see drawn_ahead).
_DRAW_BLOCK = 32


class RetxQueue:
    """Bounded LIFO of unacknowledged packets; full push evicts the oldest."""

    def __init__(self, capacity: int = 10):
        self.capacity = capacity
        self._items: list[Packet] = []

    def __len__(self) -> int:
        return len(self._items)

    def push(self, packet: Packet) -> Optional[Packet]:
        """Append a packet; returns the evicted oldest packet, if any."""
        evicted = None
        if self.capacity == 0:
            return packet
        if len(self._items) >= self.capacity:
            evicted = self._items.pop(0)
        self._items.append(packet)
        return evicted

    def pop(self) -> Packet:
        """Remove and return the most recently pushed packet."""
        if not self._items:
            raise IndexError("pop from empty retransmission queue")
        return self._items.pop()

    def clear(self) -> None:
        self._items.clear()


class SarbMac:
    """Per-board MAC state machine, driven entirely by the event loop.

    The owning board supplies callbacks:
      * build_packet(emergency) -> Optional[Packet]
                                               fresh data packet, next seq;
                                               None while the board is off
      * transmit(packet) -> Optional[int]      end-of-frame time, or None if
                                               the send was deferred
      * on_slot(time_us)                       expected-slot bookkeeping

    The MAC never asks whether the board has power.  The host calls
    power_cycle when the board loses power, which empties the queue and
    forgets the frame awaiting its ack, whose timer then does nothing; while
    the board is off, build_packet returns None and the host sends no
    emergencies, so nothing refills them.  The slot clock keeps
    ticking through an outage (so the monitoring-epoch schedule is
    independent of injected faults); only the transmissions stop.
    """

    def __init__(
        self,
        sim: Simulator,
        cfg: SarbConfig,
        rng: np.random.Generator,
        build_packet: Callable[[bool], Optional[Packet]],
        transmit: Callable[[Packet], Optional[int]],
        on_slot: Callable[[int], None],
    ):
        self.sim = sim
        self.cfg = cfg
        self._build_packet = build_packet
        self._transmit = transmit
        self._on_slot = on_slot
        self.queue = RetxQueue(cfg.queue_capacity)
        # Data slots fall on the grid slot_min + k * slot_step, k uniform in
        # 0..steps.  A disabled MAC never draws from its stream.
        min_us, step_us = ms_to_us(cfg.slot_min_ms), ms_to_us(cfg.slot_step_ms)
        steps = (cfg.slot_max_ms - cfg.slot_min_ms) // cfg.slot_step_ms

        def draw() -> list[int]:
            # In Python integers: int64 arithmetic would wrap past 2**63 us.
            return [min_us + k * step_us for k in rng.integers(0, steps + 1, _DRAW_BLOCK).tolist()]

        self._offsets_us = drawn_ahead(draw)
        self._fixed_interval_us = ms_to_us(cfg.fixed_interval_ms)
        self._ack_timeout_us = ms_to_us(cfg.ack_timeout_ms)
        # Fixed per run, so read per slot without a call: whether SARB runs
        # and the retransmission slots' offsets from their data slot.
        self.enabled = cfg.enabled
        retx_us = ms_to_us(cfg.retx_interval_ms)
        n_retx = cfg.retx_slots_per_cycle if cfg.enabled else 0
        self._retx_offsets_us = tuple(k * retx_us for k in range(1, n_retx + 1))
        self._pending: Optional[Packet] = None  # the frame awaiting its ack

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.sim.schedule_at(self._draw_offset_us(), self._data_slot)

    def power_cycle(self) -> None:
        """Volatile state is lost when the board loses power."""
        self.queue.clear()
        self._pending = None

    def _draw_offset_us(self) -> int:
        if not self.enabled:
            return self.sim.now_us + self._fixed_interval_us
        return self.sim.now_us + next(self._offsets_us)

    # -- slots --------------------------------------------------------------

    def _data_slot(self) -> None:
        now = self.sim.now_us
        self._on_slot(now)
        # One bound method for the cycle's slots.  Kept on the instance, it
        # would make a reference cycle that holds the MAC past its last use.
        retx_slot = self._retx_slot
        for offset_us in self._retx_offsets_us:
            self.sim.schedule_at(now + offset_us, retx_slot)
        self.sim.schedule_at(self._draw_offset_us(), self._data_slot)
        packet = self._build_packet(False)
        if packet is not None:
            self._send(packet)

    def _retx_slot(self) -> None:
        # The queue's list, read directly: len() would be a Python-level
        # __len__ call per slot.
        if self._pending is None and self.queue._items:
            self._send(self.queue.pop())

    def on_emergency(self, emergency_packet: Packet) -> None:
        """Threshold crossing: transmit outside the slot schedule, right away."""
        self._send(emergency_packet)

    # -- transmission and acknowledgement ------------------------------------

    def _send(self, packet: Packet) -> None:
        end_us = self._transmit(packet)
        if not self.enabled:
            return  # baseline: fire and forget
        if end_us is None or self._pending is not None:
            # A deferred frame goes out with no ack timer; and while a frame
            # awaits its ack, a new one is unconfirmed at once rather than
            # tracked with a second timer.
            self.queue.push(packet)
            return
        self.sim.schedule_at(end_us + self._ack_timeout_us, self._ack_timeout, packet)
        self._pending = packet

    def _ack_timeout(self, packet: Packet) -> None:
        # A frame acked, or forgotten by power_cycle, leaves its timer queued.
        # The MAC keeps that frame nowhere else, so it cannot be pending again
        # before the timer fires, and the timer then does nothing.
        if self._pending is packet:
            self._pending = None
            self.queue.push(packet)

    def on_ack(self, acked_seq: int) -> None:
        if self._pending is not None and self._pending.seq == acked_seq:
            self._pending = None
