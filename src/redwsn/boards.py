"""Primary and secondary board state machines plus fault injection.

The primary board senses continuously and transmits through the SARB MAC;
the secondary board overhears the channel, sends heartbeats while idle, and
substitutes with single-shot data packets when the primary goes silent or
its data is incomplete/anomalous.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Annotated, Iterator, Optional

import numpy as np

from .channel import Channel, Position
from .engine import NOT_NEGATIVE, POSITIVE, Simulator, check_typed_fields, drawn_ahead, in_windows, ms_to_us
from .lora import PAYLOAD_BYTES, TX_POWER_DBM
from .mac import SarbConfig, SarbMac
from .packets import (
    DATA_BYTES,
    NO_FAULT_TAGS,
    SENSOR_FIELDS,
    SENSOR_TABLE,
    BoardRole,
    Packet,
    PacketKind,
    SensorReading,
    check_thresholds,
    detect_anomaly,
    packet_from_fields,
    reading_from_fields,
)


class FaultKind:
    """The fault kinds, as the strings the loader reads.  A kind loaded from
    a file is an equal string, not one of these objects: compare with ==."""

    HARD_FAILURE = "hard_failure"
    SENSOR_READ_FAILURE = "sensor_read_failure"
    SENSOR_ANOMALY = "sensor_anomaly"
    GATEWAY_FAILURE = "gateway_failure"


FAULT_KINDS = tuple(kind for name, kind in vars(FaultKind).items() if name.isupper())


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, active during [start, end)."""

    kind: Annotated[str, FAULT_KINDS]
    target: str  # "<node>.primary", "<node>.secondary" or a gateway id
    start_ms: Annotated[int, NOT_NEGATIVE] = 300_000  # minutes 5..25 of a 30-minute run
    end_ms: int = 1_500_000
    affected_sensor: Optional[str] = None
    anomaly_multiplier: float = 1.5

    def __post_init__(self):
        check_typed_fields(self)
        if self.start_ms >= self.end_ms:
            raise ValueError("FaultSpec.start_ms must be less than end_ms")
        if self.kind in (FaultKind.SENSOR_READ_FAILURE, FaultKind.SENSOR_ANOMALY):
            if self.affected_sensor not in SENSOR_FIELDS:
                raise ValueError(f"unknown sensor field: {self.affected_sensor!r}")

    @property
    def window_us(self) -> tuple[int, int]:
        """[start, end) in microseconds: the fault is active at the
        instants with ``start <= now_us < end``."""
        return ms_to_us(self.start_ms), ms_to_us(self.end_ms)


# SENSOR_TABLE's nominal column, in SENSOR_FIELDS order.
_NOMINAL_VALUES = np.array([nominal for nominal, _, _ in SENSOR_TABLE.values()])
_SENSOR_NOISE_REL = 0.005  # per-reading relative sensor noise (1 sigma)
_NOISE_CLIP = 0.03  # the noise is clipped at +-6 sigma
# The fault-free values that the lowest and the highest clipped noise make.
_EXTREME_VALUES = tuple(tuple((_NOMINAL_VALUES * (1.0 + c)).tolist()) for c in (-_NOISE_CLIP, _NOISE_CLIP))
_SENSING_POLL_US = ms_to_us(5_000)  # primary's threshold check between data slots
# Relative margin under a threshold at which two noise-only readings are
# still taken to be able to differ by more than it; it covers rounding and
# errs toward comparing.
_FLAG_MARGIN = 1e-9
# Readings drawn per refill of a board's sensor noise.
_BLOCK_ROWS = 32


def noise_can_flag(rel_threshold: float) -> bool:
    """True iff detect_anomaly at ``rel_threshold`` can flag two readings
    that are both nominal times clipped noise.  A field's discrepancy grows
    as the two noise factors move apart, so it is largest at the clip
    extremes, one reading at each; the margin errs toward True."""
    low, high = (SensorReading(values) for values in _EXTREME_VALUES)
    threshold = rel_threshold * (1.0 - _FLAG_MARGIN)
    return detect_anomaly(high, low, threshold) or detect_anomaly(low, high, threshold)


def _noise_rows(rng: np.random.Generator) -> Iterator[np.ndarray]:
    """A board's fault-free sensor values, one row per reading built:
    nominal times 1 + the clipped noise, drawn _BLOCK_ROWS readings at a
    time as one array (see drawn_ahead)."""

    def draw() -> np.ndarray:
        z = rng.standard_normal((_BLOCK_ROWS, len(SENSOR_FIELDS)))
        return _NOMINAL_VALUES * (1.0 + np.clip(z * _SENSOR_NOISE_REL, -_NOISE_CLIP, _NOISE_CLIP))

    return drawn_ahead(draw)


@dataclass(frozen=True)
class NodeConfig:
    id: str
    position: Position = Position(2.0, 0.0)
    has_secondary: bool = True
    tx_power_dbm: Annotated[float, TX_POWER_DBM] = 14.0

    def __post_init__(self):
        check_typed_fields(self)

    @property
    def secondary_position(self) -> Position:
        # The spare sits on the same node, a hand's width from the primary.
        return Position(self.position.x, self.position.y + 0.1)


class _RadioBoard:
    """Shared radio behaviour: half-duplex serialization and fault gating."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        node: NodeConfig,
        role: str,
        faults: tuple[FaultSpec, ...],
        hears: tuple[tuple[str, Optional[str]], ...],
    ):
        self.sim = sim
        self.channel = channel
        self.node_id = node.id
        self.role = role
        self.entity_id = f"{node.id}.{role}"
        self.position = node.position if role is BoardRole.PRIMARY else node.secondary_position
        self.rx_extra_loss_db = 0.0
        own = [f for f in faults if f.target == self.entity_id]
        self.fault_windows_us = [f.window_us for f in own]
        self._outages_us = [f.window_us for f in own if f.kind == FaultKind.HARD_FAILURE]
        # Per sensor fault: the field's index, the window, the factor the
        # value is multiplied by and the reading's tag.  A read failure's
        # factor is NaN, which makes any value NaN.  Only sensor faults name
        # a field; any other kind may carry anything in affected_sensor.
        self._sensor_faults: list[tuple[int, int, int, float, str]] = []
        for f in own:
            if f.kind == FaultKind.SENSOR_READ_FAILURE:
                factor, tag = math.nan, f"read_failure:{f.affected_sensor}"
            elif f.kind == FaultKind.SENSOR_ANOMALY:
                factor, tag = f.anomaly_multiplier, f"anomaly:{f.affected_sensor}"
            else:
                continue
            self._sensor_faults.append((SENSOR_FIELDS.index(f.affected_sensor), *f.window_us, factor, tag))
        self.tx_power_dbm = node.tx_power_dbm
        self._noise = _noise_rows(sim.rng(f"{self.entity_id}-sensor"))
        self._seq = itertools.count(1)
        self.hears = hears
        channel.add_receiver(self)

    def is_powered(self) -> bool:
        outages = self._outages_us
        return not (outages and in_windows(outages, self.sim.now_us))

    def sense(self) -> SensorReading:
        """Fresh reading; callers check power first."""
        return self._reading(next(self._noise).tolist(), self.sim.now_us)

    def _reading(self, values: list[float], now_us: int) -> SensorReading:
        """The reading at now_us from the fault-free ``values``, which it
        takes over: the sensor faults active at now_us apply per field in
        list order, then the list is frozen into a tuple.  A read failure
        makes the value NaN, an anomaly multiplies it; ground-truth tags
        ride on the reading."""
        if not self._sensor_faults:
            return reading_from_fields((tuple(values), NO_FAULT_TAGS))
        tags = set()
        for i, start, end, factor, tag in self._sensor_faults:
            if start <= now_us < end:
                values[i] *= factor
                tags.add(tag)
        return SensorReading(tuple(values), frozenset(tags))

    def data_packet(self, emergency: bool = False, corrective: bool = False) -> Optional[Packet]:
        """A data frame carrying a fresh reading under the board's next seq;
        None while the board is hard-failed (it uses up no seq)."""
        # A board with no outage is always powered, so it skips the call;
        # transmit and on_receive do the same.
        if self._outages_us and not self.is_powered():
            return None
        # The seq is taken before the reading is sensed, as the fields are
        # evaluated in order.
        return packet_from_fields(
            (PacketKind.DATA, self.node_id, self.role, next(self._seq), DATA_BYTES, self.sense(), emergency, corrective)
        )

    def transmit(self, packet: Packet) -> Optional[int]:
        """Put a frame on the air, waiting out an in-flight frame if needed.

        Returns the end-of-frame time, or None when the board is silenced or
        the send was deferred (the board sends it once its own frame ends).
        """
        if self._outages_us and not self.is_powered():
            return None
        busy = self.channel.busy_until(self.entity_id)
        if busy > self.sim.now_us:
            self.sim.schedule_at(busy + 1, self.transmit, packet)
            return None
        return self.channel.begin_transmission(self.entity_id, self.position, packet, self.tx_power_dbm)


class PrimaryBoard(_RadioBoard):
    """Sensing board: periodic data slots via SARB, emergency transmissions
    on threshold crossings, ack-driven retransmission."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        node: NodeConfig,
        faults: tuple[FaultSpec, ...],
        mac_cfg: SarbConfig,
    ):
        # It hears its own acks: an ack carries the node id of the frame it
        # answers.
        super().__init__(sim, channel, node, BoardRole.PRIMARY, faults, ((PacketKind.ACK, node.id),))
        self.expected_slots_us: list[int] = []
        self._in_emergency = False
        self._poll_windows_us = self._crossing_windows_us()
        self.mac = SarbMac(
            sim,
            mac_cfg,
            sim.rng(f"{self.entity_id}-mac"),
            build_packet=self.data_packet,
            transmit=self.transmit,
            on_slot=self.expected_slots_us.append,
        )
        for start_us, _ in self._outages_us:
            # Power loss wipes the MAC queue and any pending ack timer.
            sim.schedule_at(start_us, self.mac.power_cycle)

    def _crossing_windows_us(self) -> list[tuple[int, int]]:
        """The [start, end) spans where a reading can cross an emergency
        bound.  Between the edges of the sensor-fault windows the active
        faults do not change, and a reading lies between the ones that the
        lowest and the highest clipped noise make: each of its steps is
        monotone in the noise."""
        edges = sorted({t for _, start, end, _, _ in self._sensor_faults for t in (start, end)})
        return [
            (start, end)
            for start, end in zip(edges, edges[1:])
            if any(check_thresholds(self._reading(list(values), start)) for values in _EXTREME_VALUES)
        ]

    def start(self) -> None:
        """Start the MAC and, if a reading can ever cross a bound, the 5 s
        sensing poll.  The poll runs from the start, as one chain, until the
        last such window ends, and only a poll inside a window reads.  Each
        poll is inserted by the one before it, so it breaks ties with other
        events on its microsecond as a poll every 5 s for the whole run
        would; a chain started at a window would not, against a timer set
        exactly 5 s before its first poll."""
        self.mac.start()
        if self._poll_windows_us:
            self.sim.schedule_at(self.sim.now_us + _SENSING_POLL_US, self._sensing_poll)

    def _sensing_poll(self) -> None:
        now = self.sim.now_us
        if now + _SENSING_POLL_US < self._poll_windows_us[-1][1]:
            self.sim.schedule_at(now + _SENSING_POLL_US, self._sensing_poll)
        crossed = self.is_powered() and in_windows(self._poll_windows_us, now) and check_thresholds(self.sense())
        if crossed and not self._in_emergency:
            self.mac.on_emergency(self.data_packet(emergency=True))
        self._in_emergency = crossed

    def on_receive(self, packet: Packet, rssi_dbm: float, now_us: int) -> None:
        if not self._outages_us or self.is_powered():
            self.mac.on_ack(packet.seq)


@dataclass(frozen=True)
class SecondaryConfig:
    sensing_interval_ms: int = 35_000
    heartbeat_period_ms: Annotated[int, POSITIVE] = 60_000
    # Time the board needs to read all sensors before a substitute
    # transmission goes out.
    sense_duration_ms: Annotated[int, NOT_NEGATIVE] = 3_500
    heartbeat_bytes: Annotated[int, PAYLOAD_BYTES] = 12
    anomaly_rel_threshold: Annotated[float, POSITIVE] = 0.25

    def __post_init__(self):
        check_typed_fields(self)
        if self.sense_duration_ms >= self.sensing_interval_ms:
            raise ValueError("SecondaryConfig.sense_duration_ms must be less than sensing_interval_ms")


class SecondaryBoard(_RadioBoard):
    """Hot spare: overhears the primary, heartbeats while idle, and sends a
    single-shot backup or corrective data packet when the primary misses its
    window or ships faulty data.  No retransmission mechanism."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        node: NodeConfig,
        faults: tuple[FaultSpec, ...],
        cfg: SecondaryConfig,
    ):
        # It hears its node's data frames, which are the primary's: the
        # channel never resolves a frame at its own transmitter.
        super().__init__(sim, channel, node, BoardRole.SECONDARY, faults, ((PacketKind.DATA, node.id),))
        self.cfg = cfg
        self._sensor_windows_us = [(start, end) for _, start, end, _, _ in self._sensor_faults]
        self._noise_can_flag = noise_can_flag(cfg.anomaly_rel_threshold)
        self._interval_us = ms_to_us(cfg.sensing_interval_ms)
        self._sense_duration_us = ms_to_us(cfg.sense_duration_ms)
        self._heartbeat_us = ms_to_us(cfg.heartbeat_period_ms)
        # Each arming outdates the watchdog timers queued before it.  A count,
        # not the deadline: two armings at one instant can share a deadline.
        self._watchdog_arms = 0
        self._last_responded_seq = 0
        # Substitutions run at the board's own sensing cadence: at most one
        # backup/corrective per sensing interval, however many triggers fire.
        self._next_substitute_us = 0

    def start(self) -> None:
        self._arm_watchdog(self.sim.now_us + self._interval_us)
        self.sim.schedule_at(self.sim.now_us + self._heartbeat_us, self._heartbeat)

    def _arm_watchdog(self, deadline_us: int) -> None:
        self._watchdog_arms += 1
        arm = self._watchdog_arms
        self.sim.schedule_at(deadline_us, self._watchdog_expired, arm)

    def on_receive(self, packet: Packet, rssi_dbm: float, now_us: int) -> None:
        if self._outages_us and not self.is_powered():
            return
        # Any overheard primary data packet proves the primary is alive, so
        # the watchdog resets even when the payload turns out to be faulty
        # (the corrective path handles the payload).
        self._arm_watchdog(now_us + self._interval_us)
        if packet.seq <= self._last_responded_seq:
            return  # retransmission of a packet already considered
        if self._is_faulty(packet):
            self._last_responded_seq = packet.seq
            self._substitute(corrective=True)

    def _is_faulty(self, packet: Packet) -> bool:
        reading = packet.reading
        windows = self._sensor_windows_us
        if not (self._noise_can_flag or reading.fault_tags or (windows and in_windows(windows, self.sim.now_us))):
            # Both readings are nominal times clipped noise: a reading is
            # tagged with every sensor fault active when it was built.  So the
            # comparison cannot flag, and no reading is built.
            return False
        if not reading.is_complete():
            return True
        return detect_anomaly(reading, self.sense(), rel_threshold=self.cfg.anomaly_rel_threshold)

    def _substitute(self, corrective: bool) -> bool:
        """Schedule a substitute for when the board has sensed, at most one
        per sensing interval; returns whether it scheduled one.  As
        sense_duration_ms is shorter than that interval, the previous
        substitute has already gone out."""
        now = self.sim.now_us
        if now < self._next_substitute_us:
            return False
        self._next_substitute_us = now + self._interval_us
        self.sim.schedule_at(now + self._sense_duration_us, self._send_substitute, corrective)
        return True

    def _watchdog_expired(self, arm: int) -> None:
        if arm != self._watchdog_arms:
            return
        deadline = self.sim.now_us + self._interval_us
        if self.is_powered() and self._substitute(corrective=False):
            # The next silence countdown starts once this substitute is out.
            deadline += self._sense_duration_us
        self._arm_watchdog(deadline)

    def _send_substitute(self, corrective: bool) -> None:
        packet = self.data_packet(corrective=corrective)
        if packet is not None:
            self.transmit(packet)

    def _heartbeat(self) -> None:
        self.sim.schedule_at(self.sim.now_us + self._heartbeat_us, self._heartbeat)
        if not self.is_powered():
            return
        seq = next(self._seq)
        packet = packet_from_fields(
            (PacketKind.HEARTBEAT, self.node_id, BoardRole.SECONDARY, seq, self.cfg.heartbeat_bytes, None, False, False)
        )
        self.transmit(packet)
