"""Shared half-duplex radio medium.

All transmissions go over a single LoRa channel.  Reception is resolved per
receiver at frame end: a frame is delivered iff it is above sensitivity, the
receiver was not itself transmitting during the overlap, and either nothing
else was on the air or the frame beats every overlapping frame by at least
the capture threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    entity_id: str
    position: Position
    rx_extra_loss_db: float

    def on_receive(self, packet: Packet, rssi_dbm: float, now_us: int) -> None: ...


@dataclass
class Transmission:
    tx_id: int
    source_id: str
    position: Position
    packet: Packet
    tx_power_dbm: float
    start_us: int
    end_us: int
    # RSSI is drawn once per (frame, receiver) link and cached so collision
    # comparisons are consistent no matter which frame resolves first.
    rssi_cache: dict[str, float] = field(default_factory=dict)

    def overlaps(self, start_us: int, end_us: int) -> bool:
        return self.start_us < end_us and start_us < self.end_us


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


class Channel:
    """Single shared medium owned by one simulation instance."""

    def __init__(
        self,
        sim: Simulator,
        params: ChannelParams = ChannelParams(),
        lora: LoraParams = LoraParams(),
        shadowing_rng: Optional[np.random.Generator] = None,
    ):
        self.sim = sim
        self.params = params
        self.lora = lora
        self._shadow_rng = shadowing_rng if shadowing_rng is not None else sim.rng("channel-shadowing")
        self._receivers: list[Receiver] = []
        self._log: list[Transmission] = []
        self._longest_airtime_us = 0
        self._next_tx_id = 0

    def add_receiver(self, receiver: Receiver) -> None:
        self._receivers.append(receiver)

    def busy_until(self, source_id: str) -> int:
        """End time of the source's in-flight frame, or the current time."""
        t = self.sim.now_us
        for tx in self._log:
            if tx.source_id == source_id and tx.end_us > t:
                t = tx.end_us
        return t

    def begin_transmission(
        self,
        source_id: str,
        position: Position,
        packet: Packet,
        tx_power_dbm: float,
    ) -> int:
        """Put a frame on the air now; returns its transmission id.

        The source must be idle (half-duplex): callers serialize their own
        frames via busy_until().
        """
        now = self.sim.now_us
        if self.busy_until(source_id) > now:
            raise RuntimeError(f"source {source_id} is already transmitting")
        airtime = time_on_air_us(packet.size_bytes, self.lora)
        tx = Transmission(
            tx_id=self._next_tx_id,
            source_id=source_id,
            position=position,
            packet=packet,
            tx_power_dbm=tx_power_dbm,
            start_us=now,
            end_us=now + airtime,
        )
        self._next_tx_id += 1
        self._longest_airtime_us = max(self._longest_airtime_us, airtime)
        self._prune(now)
        self._log.append(tx)
        self.sim.schedule_at(tx.end_us, lambda: self._resolve(tx))
        return tx.tx_id

    def _prune(self, now_us: int) -> None:
        # A frame still on the air started at most the longest airtime ago,
        # so a frame that ended before that can no longer overlap one.
        horizon = now_us - self._longest_airtime_us
        if self._log and self._log[0].end_us < horizon:
            self._log = [t for t in self._log if t.end_us >= horizon]

    def _link_rssi(self, tx: Transmission, receiver: Receiver) -> float:
        cached = tx.rssi_cache.get(receiver.entity_id)
        if cached is None:
            cached = (
                rssi_at(tx.position, receiver.position, tx.tx_power_dbm, self._shadow_rng, self.params)
                - receiver.rx_extra_loss_db
            )
            tx.rssi_cache[receiver.entity_id] = cached
        return cached

    def _resolve(self, tx: Transmission) -> None:
        now = self.sim.now_us
        for receiver in self._receivers:
            if receiver.entity_id == tx.source_id:
                continue
            # Half-duplex: a receiver that transmitted during any part of the
            # frame hears nothing.
            deaf = any(
                other.source_id == receiver.entity_id and other.overlaps(tx.start_us, tx.end_us)
                for other in self._log
            )
            if deaf:
                continue
            rssi = self._link_rssi(tx, receiver)
            if rssi < self.params.sensitivity_dbm:
                continue
            overlapping = [
                other
                for other in self._log
                if other.tx_id != tx.tx_id
                and other.source_id != receiver.entity_id
                and other.overlaps(tx.start_us, tx.end_us)
            ]
            captured = all(
                rssi >= self._link_rssi(other, receiver) + self.params.capture_threshold_db
                for other in overlapping
            )
            if not captured:
                continue
            receiver.on_receive(tx.packet, rssi, now)


def start_noise(channel: Channel, noise: NoiseConfig, duration_us: int, rng: np.random.Generator) -> int:
    """Schedule the full burst train for the scenario; returns the burst count.

    Burst k+1 starts period +- jitter after burst k (jitter drawn uniformly),
    never before the previous burst ends.
    """
    period_us = ms_to_us(noise.period_ms)
    jitter_us = ms_to_us(noise.jitter_ms)
    airtime_us = time_on_air_us(noise.payload_bytes, channel.lora)
    packet = Packet(kind=PacketKind.NOISE, node_id=NOISE_SOURCE_ID, size_bytes=noise.payload_bytes)

    def burst():
        channel.begin_transmission(NOISE_SOURCE_ID, noise.position, packet, noise.tx_power_dbm)

    count = 0
    t = period_us
    while t <= duration_us:
        channel.sim.schedule_at(t, burst)
        count += 1
        step = period_us
        if jitter_us > 0:
            step += int(rng.integers(-jitter_us, jitter_us + 1))
        t = max(t + step, t + airtime_us + 1)
    return count
