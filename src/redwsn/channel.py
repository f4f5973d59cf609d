"""Shared half-duplex radio medium.

All transmissions go over a single LoRa channel.  Reception is resolved at
frame end, at each receiver whose address filter passes the frame: it is
delivered iff it is above sensitivity, the receiver was not itself
transmitting during the overlap, and either nothing else was on the air or
the frame beats every overlapping frame, addressed to that receiver or not,
by at least the capture threshold.

A noise train is known in advance and schedules nothing: a burst joins the
log of frames on the air only when a frame that overlaps it begins, and it
interferes as if it were an event that fires first at its instant.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Optional, Protocol, Sequence

import numpy as np

from .engine import Simulator, check_typed_fields, drawn_ahead, ms_to_us
from .lora import MAX_PAYLOAD_BYTES, LoraParams, check_tx_power, time_on_air_us
from .packets import Packet, PacketKind


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def __post_init__(self):
        check_typed_fields(self)


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
        check_typed_fields(self)
        if self.path_loss_exponent < 0:
            # A negative one: a farther receiver would hear the frame louder.
            raise ValueError("channel path_loss_exponent must not be negative")
        if self.reference_distance_m <= 0:
            raise ValueError("channel reference_distance_m must be positive")
        if self.shadowing_sigma_db < 0:
            raise ValueError("channel shadowing_sigma_db must not be negative")
        if self.capture_threshold_db <= 0:
            # At or below 0 dB two overlapping frames within -threshold dB
            # of each other would both be decoded at one receiver.
            raise ValueError("channel capture_threshold_db must be positive")
        if self.agc_ceiling_dbm < self.sensitivity_dbm:
            # Every frame would be clamped below the sensitivity.
            raise ValueError("channel agc_ceiling_dbm must not be below sensitivity_dbm")


def link_budget_dbm(tx: Position, rx: Position, tx_power_dbm: float, params: ChannelParams) -> float:
    """Transmit power minus the log-distance path loss on the tx->rx link,
    in dBm: the received power before shadowing and the AGC clamp.
    Distances below the reference distance are floored to it."""
    ref = params.reference_distance_m
    d = math.hypot(tx.x - rx.x, tx.y - rx.y)
    if d < ref:
        d = ref
    return tx_power_dbm - (params.reference_loss_db + 10.0 * params.path_loss_exponent * math.log10(d / ref))


def rssi_at(
    tx: Position,
    rx: Position,
    tx_power_dbm: float,
    rng: Optional[np.random.Generator] = None,
    params: ChannelParams = ChannelParams(),
) -> float:
    """Received power in dBm for one frame on the tx->rx link.

    The link budget with a zero-mean Gaussian shadowing draw per call,
    clamped to the AGC ceiling.
    """
    rssi = link_budget_dbm(tx, rx, tx_power_dbm, params)
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
    # the receivers that hear it; to the rest it is interference.  The
    # channel reads it once, when the receiver registers.
    hears: tuple[tuple[str, Optional[str]], ...]

    def on_receive(self, packet: Packet, rssi_dbm: float, now_us: int) -> None: ...


@dataclass(slots=True)
class Transmission:
    source_id: str
    packet: Packet
    start_us: int
    end_us: int
    position: Position
    tx_power_dbm: float
    # Keyed by receiver index: the link budget, transmit power minus path
    # loss, computed on the link's first draw and shared by every frame from
    # the same position and power; and the RSSI, drawn once per (frame,
    # receiver) link and cached so collision comparisons are consistent no
    # matter which frame resolves first.  A missing key is a link not drawn.
    mean_dbm: dict[int, float]
    rssi: dict[int, float]
    # The receivers that hear the frame, with their indices: looked up once
    # when the frame begins and resolved at when it ends.  Noise has none.
    audience: Sequence[tuple[int, Receiver]] = ()


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
        check_typed_fields(self)
        if self.period_ms <= 0:
            raise ValueError("noise period_ms must be positive")
        if self.payload_bytes < 0 or self.jitter_ms < 0:
            raise ValueError("noise payload_bytes and jitter_ms must not be negative")
        if self.payload_bytes > MAX_PAYLOAD_BYTES:
            raise ValueError(f"noise payload_bytes must not exceed the LoRa maximum, {MAX_PAYLOAD_BYTES}")
        check_tx_power(self.tx_power_dbm)


@dataclass
class _NoiseTrain:
    """The noise bursts, known in advance by start time.  The starts are a
    list of Python ints: each frame bisects them once and reads each burst
    it logs, and a bisection over an ``array('q')`` boxes an int at every
    probe, at about twice the cost.
    The list holds ~36 bytes per burst: ~0.1 MB over 30 minutes, ~10 MB
    over 2 hours at SF7's shortest accepted period."""

    packet: Packet
    position: Position
    tx_power_dbm: float
    # Receivers are fixed once the train is on the channel.
    mean_dbm: dict[int, float]
    starts_us: list[int]
    airtime_us: int
    # The first burst not logged yet; every burst before it was logged or
    # ended before any frame that can still begin.
    next: int = 0


# Shadowing values drawn per numpy call (see drawn_ahead).
_DRAW_BLOCK = 1024

# The channel log's order.  At an equal start a noise burst comes first, as
# insort places a frame after every entry that starts with it.
_start = attrgetter("start_us")


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
        self._agc_ceiling_dbm = params.agc_ceiling_dbm
        self._sensitivity_dbm = params.sensitivity_dbm
        self._capture_db = params.capture_threshold_db
        rng, sigma = sim.rng("channel-shadowing"), params.shadowing_sigma_db
        # None without shadowing: a link then takes no draw.
        self._shadowing: Optional[Iterator[float]] = (
            drawn_ahead(lambda: rng.normal(0.0, sigma, _DRAW_BLOCK).tolist()) if sigma > 0 else None
        )
        self._receivers: list[Receiver] = []
        # Keyed by (x, y, power) floats, which hash and compare in C.
        self._mean_dbm: dict[tuple[float, float, float], dict[int, float]] = {}
        self._audiences: dict[tuple[str, str], list[tuple[int, Receiver]]] = {}
        # Each ``hears`` entry -> the receivers listing it, with their indices.
        self._hearers: dict[tuple[str, Optional[str]], list[tuple[int, Receiver]]] = {}
        # Frames and noise bursts that may still overlap a frame to resolve,
        # by start time.
        self._log: list[Transmission] = []
        self._source_end_us: dict[str, int] = {}
        self._airtimes_us: dict[int, int] = {}
        self._longest_airtime_us = 0
        self._train: Optional[_NoiseTrain] = None
        # The last resolve's window that held more than its own frame:
        # (start, end, the log's entries on the air in it, their sources).
        # Frames that begin on one instant and end on one share it.
        self._window: Optional[tuple[int, int, list[Transmission], set[str]]] = None

    def add_receiver(self, receiver: Receiver) -> None:
        """Register a receiver and index what it hears; only while no frame
        is on the air and before a noise train, because the frames'
        per-receiver caches and audiences are fixed when they start."""
        now = self.sim.now_us
        if self._train is not None:
            raise RuntimeError("receivers must be added before the noise train")
        if any(tx.end_us >= now for tx in self._log):
            raise RuntimeError("receivers must be added while no frame is on the air")
        for entry in receiver.hears:
            self._hearers.setdefault(entry, []).append((len(self._receivers), receiver))
        self._receivers.append(receiver)
        self._audiences.clear()

    def close(self) -> None:
        """Forget the receivers, which hold this channel in turn, and the
        logged frames and the kept window, whose audiences hold receivers,
        so a finished run is freed without waiting for the cycle collector;
        and the link-budget rows, which are keyed by the receivers' indices."""
        self._receivers = []
        self._log = []
        self._window = None
        self._audiences.clear()
        self._hearers.clear()
        self._mean_dbm.clear()

    def add_noise(self, noise: NoiseConfig, duration_us: int, rng: np.random.Generator) -> int:
        """Put the full burst train for the run on the air; returns the
        burst count.

        Burst k+1 starts period +- jitter after burst k (jitter drawn
        uniformly), never before the previous burst ends.  No burst is
        scheduled: a burst joins the log when a frame that overlaps it
        begins, and it interferes as if it were an event that fires first at
        its instant.
        """
        if self._train is not None:
            # A second train would replace the first, whose logged bursts
            # stay in the log.
            raise RuntimeError("the channel already has a noise train")
        period_us = ms_to_us(noise.period_ms)
        jitter_us = ms_to_us(noise.jitter_ms)
        airtime_us = time_on_air_us(noise.payload_bytes, self.lora)
        # No step is shorter than ``shortest``, so this many steps reach past
        # the run.  One draw holds the same jitters as one scalar draw per
        # burst; the starts are the cumulative sum of the steps.
        shortest = max(period_us - jitter_us, airtime_us + 1)
        steps = period_us + rng.integers(-jitter_us, jitter_us + 1, size=duration_us // shortest + 1)
        steps = np.maximum(steps, airtime_us + 1)
        starts_us = np.cumsum(steps, dtype=np.int64) - steps + period_us
        starts = starts_us[: np.searchsorted(starts_us, duration_us, side="right")].tolist()
        self._train = _NoiseTrain(
            Packet(kind=PacketKind.NOISE, node_id=NOISE_SOURCE_ID, size_bytes=noise.payload_bytes),
            noise.position,
            noise.tx_power_dbm,
            self._mean_dbm.setdefault((noise.position.x, noise.position.y, noise.tx_power_dbm), {}),
            starts,
            airtime_us,
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
        # busy_until() inline: this runs once per frame.
        busy = self._source_end_us.get(source_id)
        if busy is not None and busy > now:
            raise RuntimeError(f"source {source_id} is already transmitting")
        airtime = self._airtimes_us.get(packet.size_bytes)
        if airtime is None:
            airtime = self._airtimes_us[packet.size_bytes] = time_on_air_us(packet.size_bytes, self.lora)
            if airtime > self._longest_airtime_us:
                self._longest_airtime_us = airtime
        end = now + airtime
        audience = self._audience(packet)
        # The link-budget row, cached per transmitter position and power; a
        # setdefault would build an empty row per frame.
        key = (position.x, position.y, tx_power_dbm)
        means = self._mean_dbm.get(key)
        if means is None:
            means = self._mean_dbm[key] = {}
        tx = Transmission(source_id, packet, now, end, position, tx_power_dbm, means, {}, audience)
        self._source_end_us[source_id] = end
        # Prune the head: a frame still on the air started at most the
        # longest airtime ago, so a frame that ended before that can no
        # longer overlap one.  An ended frame behind a live head stays until
        # the head goes; no overlap test passes it.
        log = self._log
        horizon = now - self._longest_airtime_us
        while log and log[0].end_us < horizon:
            del log[0]
        train = self._train
        if train is not None:
            starts = train.starts_us
            k = train.next
            count = len(starts)
            # When the first burst not logged yet starts at or after the
            # frame's end, the frame overlaps no burst to log and the cursor
            # stays, so most frames skip the search.
            if k < count and starts[k] < end:
                # A burst that overlaps this frame and is not logged yet
                # begins after everything logged so far: a frame logged after
                # it began would have logged it, and bursts are logged in
                # start order.
                k = bisect_right(starts, now - train.airtime_us, k)
                while k < count and starts[k] < end:
                    start = starts[k]
                    k += 1
                    log.append(
                        Transmission(
                            NOISE_SOURCE_ID,
                            train.packet,
                            start,
                            start + train.airtime_us,
                            train.position,
                            train.tx_power_dbm,
                            train.mean_dbm,
                            {},
                        )
                    )
                train.next = k
        # Only a burst logged ahead of the frame can start after it; at an
        # equal start the frame goes after the burst, as insort places it.
        if log and log[-1].start_us > now:
            insort(log, tx, key=_start)
        else:
            log.append(tx)
        # A frame nobody hears is only interference.
        if audience:
            self.sim.schedule_at(end, self._resolve, tx)
        return end

    def _audience(self, packet: Packet) -> list[tuple[int, Receiver]]:
        """The receivers that hear ``packet``, with their indices, in
        registration order and each once; cached per (kind, node id)."""
        key = (packet.kind, packet.node_id)
        audience = self._audiences.get(key)
        if audience is None:
            # Keyed by index, so a receiver that lists an entry twice, or
            # hears both the node and every node, appears once.
            merged = dict(self._hearers.get(key, ()))
            merged.update(self._hearers.get((packet.kind, None), ()))
            audience = self._audiences[key] = sorted(merged.items())
        return audience

    def _resolve(self, tx: Transmission) -> None:
        now = self.sim.now_us
        start, end = tx.start_us, tx.end_us
        # The log's entries on the air during the frame, in log order and the
        # frame itself included.  Frames that began together and end together
        # share them: every entry that overlaps the window was logged before
        # its first frame ends (a burst when the window began), nothing logged
        # since starts before its end, and the prune horizon lies before its
        # start.  Most frames overlap nothing, and keep no window.
        window = self._window
        if window is not None and window[1] == end and window[0] == start:
            on_air, deaf = window[2], window[3]
        else:
            on_air = [other for other in self._log if other.start_us < end and start < other.end_us]
            if len(on_air) > 1:
                deaf = {other.source_id for other in on_air}
                self._window = (start, end, on_air, deaf)
            else:
                on_air, deaf = (), (tx.source_id,)
        # Half-duplex: a receiver that transmitted during any part of the
        # frame hears nothing.  Every other receiver sees all overlapping
        # frames as interference.
        sensitivity = self._sensitivity_dbm
        capture = self._capture_db
        agc = self._agc_ceiling_dbm
        shadowing = self._shadowing
        params = self.params
        tx_rssi = tx.rssi
        for i, receiver in tx.audience:
            if receiver.entity_id in deaf:
                continue
            extra_loss = receiver.rx_extra_loss_db
            # A link's RSSI is drawn once, on its first use, with rssi_at's
            # arithmetic in its order: the path loss on the first use of the
            # link budget, one shadowing draw, the AGC clamp (min() without
            # the builtin call), then the receiver's extra loss.  The draw is
            # written out here and for the interferers below: one loop over
            # the frame and its interferers measured slower.
            rssi = tx_rssi.get(i)
            if rssi is None:
                rssi = tx.mean_dbm.get(i)
                if rssi is None:
                    rssi = tx.mean_dbm[i] = link_budget_dbm(tx.position, receiver.position, tx.tx_power_dbm, params)
                if shadowing is not None:
                    rssi += next(shadowing)
                rssi = tx_rssi[i] = (agc if agc < rssi else rssi) - extra_loss
            if rssi < sensitivity:
                continue
            # Interferers are drawn lazily, stopping at the first one that
            # defeats capture.
            for other in on_air:
                if other is tx:
                    continue
                interference = other.rssi.get(i)
                if interference is None:
                    interference = other.mean_dbm.get(i)
                    if interference is None:
                        interference = other.mean_dbm[i] = link_budget_dbm(
                            other.position, receiver.position, other.tx_power_dbm, params
                        )
                    if shadowing is not None:
                        interference += next(shadowing)
                    interference = other.rssi[i] = (agc if agc < interference else interference) - extra_loss
                if rssi < interference + capture:
                    break
            else:
                receiver.on_receive(tx.packet, rssi, now)
