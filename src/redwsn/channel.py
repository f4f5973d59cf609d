"""Shared half-duplex radio medium.

All transmissions go over a single LoRa channel.  Reception is resolved at
frame end, at each receiver whose address filter passes the frame: it is
delivered iff it is above sensitivity, the receiver was not itself
transmitting during the overlap, and either nothing else was on the air or
the frame beats every overlapping frame, addressed to that receiver or not,
by at least the capture threshold.

A noise train is known in advance and schedules nothing: a burst joins the
log of frames on the air only when a frame that overlaps it begins.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Protocol

import numpy as np

from .engine import Simulator, ms_to_us
from .lora import LoraParams, time_on_air_us
from .packets import Packet, PacketKind


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("positions must be finite")

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class ChannelParams:
    """Log-distance path loss plus collision/receive constants.

    The reference loss absorbs antenna and AGC front-end losses; together
    with the exponent it is calibrated so an in-module link (~2 m) reads
    around -98 dBm at the gateway while a neighbouring gateway 12 m away,
    behind one wall, stays above the receiver sensitivity.
    """

    path_loss_exponent: float = 2.0
    reference_distance_m: float = 1.0
    reference_loss_db: float = 106.0
    shadowing_sigma_db: float = 2.0
    capture_threshold_db: float = 6.0
    sensitivity_dbm: float = -120.0
    agc_ceiling_dbm: float = -90.0

    def __post_init__(self):
        if not self.reference_distance_m > 0:
            raise ValueError("channel reference_distance_m must be positive")
        if not self.shadowing_sigma_db >= 0:
            raise ValueError("channel shadowing_sigma_db must not be negative")


def path_loss_db(distance_m: float, params: ChannelParams) -> float:
    d = max(distance_m, params.reference_distance_m)
    return params.reference_loss_db + 10.0 * params.path_loss_exponent * math.log10(
        d / params.reference_distance_m
    )


def rssi_at(
    tx: Position,
    rx: Position,
    tx_power_dbm: float,
    rng: Optional[np.random.Generator] = None,
    params: ChannelParams = ChannelParams(),
) -> float:
    """Received power in dBm for one frame on the tx->rx link.

    Log-distance path loss with a zero-mean Gaussian shadowing draw per call,
    clamped to the AGC ceiling.  Distances below the reference distance are
    floored to it.
    """
    rssi = tx_power_dbm - path_loss_db(tx.distance_to(rx), params)
    if rng is not None and params.shadowing_sigma_db > 0:
        rssi += float(rng.normal(0.0, params.shadowing_sigma_db))
    return min(rssi, params.agc_ceiling_dbm)


class Receiver(Protocol):
    """A radio that frames are resolved at.  No receiver hears NOISE: a
    noise burst is never resolved, and is only ever interference."""

    entity_id: str
    position: Position
    rx_extra_loss_db: float
    # The frames the receiver's address filter passes, as (kind, node id)
    # pairs; a None node id passes every node.  A frame is resolved only at
    # the receivers that hear it; to the rest it is interference.
    hears: tuple[tuple[PacketKind, Optional[str]], ...]

    def on_receive(self, packet: Packet, rssi_dbm: float, now_us: int) -> None: ...


@dataclass
class Transmission:
    source_id: str
    packet: Packet
    start_us: int
    end_us: int
    # Per receiver, in the channel's receiver order: transmit power minus
    # path loss (shared by every frame from the same position and power),
    # and the RSSI, drawn once per (frame, receiver) link and cached so
    # collision comparisons are consistent no matter which frame resolves
    # first.
    mean_dbm: array
    rssi: array
    # Simulator.now_seq when the frame began, or the train's mark for a
    # noise burst: with start_us, the order in which it would have begun had
    # each burst been an event scheduled when the train was.
    seq: float

    def overlaps(self, other: "Transmission") -> bool:
        return self.start_us < other.end_us and other.start_us < self.end_us


NOISE_SOURCE_ID = "noise"


@dataclass(frozen=True)
class NoiseConfig:
    """Periodic interferer: one burst of payload_bytes every period +- jitter."""

    enabled: bool = True
    period_ms: int = 500
    payload_bytes: int = 10
    # Jitter breaks the phase lock between the burst train and the MAC
    # timers, which all live on the same 500 ms grid.
    jitter_ms: int = 50
    position: Position = Position(-1.5, 0.5)
    tx_power_dbm: float = 14.0

    def __post_init__(self):
        if self.period_ms <= 0:
            raise ValueError("noise period_ms must be positive")
        if self.payload_bytes < 0 or self.jitter_ms < 0:
            raise ValueError("noise payload_bytes and jitter_ms must not be negative")


@dataclass
class _NoiseTrain:
    """The noise bursts, known in advance by start time."""

    packet: Packet
    # Receivers are fixed once the train is on the channel.
    mean_dbm: array
    starts_us: array
    airtime_us: int
    # Simulator.mark() at registration: at an equal start, a burst comes
    # after the frames begun by events scheduled before it, before the rest.
    mark: int
    # The first burst not logged yet; every burst before it was logged or
    # ended before any frame that can still begin.
    next: int = 0


# RSSI slot of a link not drawn yet; a drawn value is finite.
_UNDRAWN = math.inf
# Shadowing values drawn per numpy call.  A block consumed in order holds the
# same values as one scalar draw per link.
_DRAW_BLOCK = 1024

# The channel log's order: the order in which frames and bursts began.
_begin_order = attrgetter("start_us", "seq")


class Channel:
    """Single shared medium owned by one simulation instance."""

    def __init__(
        self,
        sim: Simulator,
        params: ChannelParams = ChannelParams(),
        lora: LoraParams = LoraParams(),
    ):
        self.sim = sim
        self.params = params
        self.lora = lora
        self._shadow_rng = sim.rng("channel-shadowing")
        self._draws = array("d")
        self._next_draw = 0
        self._receivers: list[Receiver] = []
        self._rx_extra_loss_db = array("d")
        # A fresh frame's RSSI row: one undrawn slot per receiver.
        self._undrawn = array("d")
        self._mean_dbm: dict[tuple[Position, float], array] = {}
        self._audiences: dict[tuple[PacketKind, str], list[tuple[int, Receiver]]] = {}
        # Frames and noise bursts that may still overlap a frame to resolve,
        # in begin order.
        self._log: list[Transmission] = []
        self._source_end_us: dict[str, int] = {}
        self._airtimes_us: dict[int, int] = {}
        self._longest_airtime_us = 0
        self._train: Optional[_NoiseTrain] = None

    def add_receiver(self, receiver: Receiver) -> None:
        """Register a receiver; only while no frame is on the air and before
        a noise train, because the frames' per-receiver caches are sized when
        they start."""
        now = self.sim.now_us
        if self._train is not None:
            raise RuntimeError("receivers must be added before the noise train")
        if any(tx.end_us >= now for tx in self._log):
            raise RuntimeError("receivers must be added while no frame is on the air")
        self._receivers.append(receiver)
        self._rx_extra_loss_db.append(receiver.rx_extra_loss_db)
        self._undrawn.append(_UNDRAWN)
        self._mean_dbm.clear()
        self._audiences.clear()

    def close(self) -> None:
        """Forget the receivers, which hold this channel in turn, so a
        finished run is freed without waiting for the cycle collector."""
        self._receivers = []
        self._audiences.clear()

    def airtime_us(self, size_bytes: int) -> int:
        """Time on air of a frame of ``size_bytes``, cached per size."""
        airtime = self._airtimes_us.get(size_bytes)
        if airtime is None:
            airtime = self._airtimes_us[size_bytes] = time_on_air_us(size_bytes, self.lora)
        return airtime

    def add_noise(self, noise: NoiseConfig, duration_us: int, rng: np.random.Generator) -> int:
        """Put the full burst train for the run on the air; returns the
        burst count.

        Burst k+1 starts period +- jitter after burst k (jitter drawn
        uniformly), never before the previous burst ends.  No burst is
        scheduled: a burst joins the log when a frame that overlaps it
        begins, and it interferes as it would have had each burst been an
        event scheduled now.
        """
        period_us = ms_to_us(noise.period_ms)
        jitter_us = ms_to_us(noise.jitter_ms)
        airtime_us = self.airtime_us(noise.payload_bytes)
        starts = array("q")
        # Jitters drawn per block hold the same values as one scalar draw per burst.
        jitters: list[int] = []
        j = 0
        t = period_us
        while t <= duration_us:
            starts.append(t)
            step = period_us
            if jitter_us > 0:
                if j == len(jitters):
                    jitters = rng.integers(-jitter_us, jitter_us + 1, size=_DRAW_BLOCK).tolist()
                    j = 0
                step += jitters[j]
                j += 1
            t = max(t + step, t + airtime_us + 1)
        self._train = _NoiseTrain(
            Packet(kind=PacketKind.NOISE, node_id=NOISE_SOURCE_ID, size_bytes=noise.payload_bytes),
            self._link_means(noise.position, noise.tx_power_dbm),
            starts,
            airtime_us,
            self.sim.mark(),
        )
        return len(starts)

    def busy_until(self, source_id: str) -> int:
        """End time of the source's in-flight frame, or the current time."""
        now = self.sim.now_us
        end = self._source_end_us.get(source_id, now)
        return end if end > now else now

    def begin_transmission(
        self,
        source_id: str,
        position: Position,
        packet: Packet,
        tx_power_dbm: float,
    ) -> int:
        """Put a frame on the air now; returns the time it ends.

        The source must be idle (half-duplex): callers serialize their own
        frames via busy_until().
        """
        now = self.sim.now_us
        if self.busy_until(source_id) > now:
            raise RuntimeError(f"source {source_id} is already transmitting")
        airtime = self.airtime_us(packet.size_bytes)
        tx = Transmission(
            source_id=source_id,
            packet=packet,
            start_us=now,
            end_us=now + airtime,
            mean_dbm=self._link_means(position, tx_power_dbm),
            rssi=self._undrawn[:],
            seq=self.sim.now_seq,
        )
        self._longest_airtime_us = max(self._longest_airtime_us, airtime)
        self._source_end_us[source_id] = tx.end_us
        self._prune(now)
        log = self._log
        train = self._train
        if train is not None:
            # A burst that overlaps this frame and is not logged yet begins
            # after everything logged so far: a frame logged after it began
            # would have logged it, and bursts are logged in start order.
            starts = train.starts_us
            lo = bisect_right(starts, now - train.airtime_us, train.next)
            train.next = bisect_left(starts, tx.end_us, lo)
            for k in range(lo, train.next):
                start = starts[k]
                log.append(
                    Transmission(
                        source_id=NOISE_SOURCE_ID,
                        packet=train.packet,
                        start_us=start,
                        end_us=start + train.airtime_us,
                        mean_dbm=train.mean_dbm,
                        rssi=self._undrawn[:],
                        seq=train.mark,
                    )
                )
        if log and log[-1].start_us >= now:
            insort(log, tx, key=_begin_order)
        else:
            log.append(tx)
        # A frame nobody hears is only interference.
        if self._audience(packet):
            self.sim.schedule_at(tx.end_us, lambda: self._resolve(tx))
        return tx.end_us

    def _audience(self, packet: Packet) -> list[tuple[int, Receiver]]:
        """The receivers that hear ``packet``, with their indices, in
        registration order; cached per (kind, node id)."""
        key = (packet.kind, packet.node_id)
        audience = self._audiences.get(key)
        if audience is None:
            audience = [
                (i, r)
                for i, r in enumerate(self._receivers)
                if any(kind is packet.kind and node in (None, packet.node_id) for kind, node in r.hears)
            ]
            self._audiences[key] = audience
        return audience

    def _link_means(self, position: Position, tx_power_dbm: float) -> array:
        """Transmit power minus path loss to every receiver, cached per
        transmitter position and power."""
        key = (position, tx_power_dbm)
        means = self._mean_dbm.get(key)
        if means is None:
            means = array(
                "d",
                [
                    tx_power_dbm - path_loss_db(position.distance_to(r.position), self.params)
                    for r in self._receivers
                ],
            )
            self._mean_dbm[key] = means
        return means

    def _prune(self, now_us: int) -> None:
        # A frame still on the air started at most the longest airtime ago,
        # so a frame that ended before that can no longer overlap one.
        horizon = now_us - self._longest_airtime_us
        if self._log and self._log[0].end_us < horizon:
            self._log = [t for t in self._log if t.end_us >= horizon]

    def _draw_rssi(self, tx: Transmission, i: int) -> float:
        """Draw and cache the RSSI of ``tx`` at receiver ``i``: path loss
        plus one shadowing draw, clamped to the AGC ceiling, minus the
        receiver's extra loss (the arithmetic of rssi_at, in its order)."""
        rssi = tx.mean_dbm[i]
        sigma = self.params.shadowing_sigma_db
        if sigma > 0:
            k = self._next_draw
            if k == len(self._draws):
                self._draws = array("d", self._shadow_rng.normal(0.0, sigma, _DRAW_BLOCK).tobytes())
                k = 0
            self._next_draw = k + 1
            rssi += self._draws[k]
        agc = self.params.agc_ceiling_dbm
        # min(rssi, agc) without the builtin call: this runs once per link.
        rssi = (agc if agc < rssi else rssi) - self._rx_extra_loss_db[i]
        tx.rssi[i] = rssi
        return rssi

    def _resolve(self, tx: Transmission) -> None:
        now = self.sim.now_us
        overlapping = [other for other in self._log if other is not tx and other.overlaps(tx)]
        # Half-duplex: a receiver that transmitted during any part of the
        # frame hears nothing.  Every other receiver sees all overlapping
        # frames as interference.
        deaf = {other.source_id for other in overlapping}
        deaf.add(tx.source_id)
        sensitivity = self.params.sensitivity_dbm
        capture = self.params.capture_threshold_db
        for i, receiver in self._audience(tx.packet):
            if receiver.entity_id in deaf:
                continue
            rssi = tx.rssi[i]
            if rssi == _UNDRAWN:
                rssi = self._draw_rssi(tx, i)
            if rssi < sensitivity:
                continue
            # Interferers are drawn lazily, stopping at the first one that
            # defeats capture.
            for other in overlapping:
                interference = other.rssi[i]
                if interference == _UNDRAWN:
                    interference = self._draw_rssi(other, i)
                if rssi < interference + capture:
                    break
            else:
                receiver.on_receive(tx.packet, rssi, now)
