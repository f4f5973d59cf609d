"""Frame and sensor-reading types, and the rules that read a reading's values."""

from __future__ import annotations

from types import MethodType
from typing import NamedTuple, Optional

# The twelve monitored fields, in reading order: four scalar gas/pressure
# sensors plus four temperature/humidity probe pairs.  Per field: the quiet
# habitat's value, which every reading is sensor noise around, and the
# (lower, upper) emergency bounds.
SENSOR_TABLE: dict[str, tuple[float, float, float]] = {
    "co2_ppm": (800.0, 450.0, 3_000.0),
    "pressure_hpa": (1_013.0, 900.0, 1_090.0),
    "o2_percent": (20.9, 18.0, 23.0),
    "co_ppm": (5.0, 0.0, 100.0),
    **{f"temp_c_{i}": (22.0, 5.0, 40.0) for i in range(4)},
    **{f"humidity_pct_{i}": (45.0, 10.0, 90.0) for i in range(4)},
}
SENSOR_FIELDS: tuple[str, ...] = tuple(SENSOR_TABLE)
_EMERGENCY_BOUNDS = [(lo, hi) for _, lo, hi in SENSOR_TABLE.values()]

# Size of a data frame carrying one full reading, from either board.
DATA_BYTES = 76


# The frame kinds and board roles, as the strings the server records.  Every
# frame and board holds these very objects, so a kind or role compares by
# identity.


class PacketKind:
    DATA = "data"
    HEARTBEAT = "heartbeat"
    ACK = "ack"
    NOISE = "noise"


class BoardRole:
    PRIMARY = "primary"
    SECONDARY = "secondary"


# The tags of a reading with no fault applied, one object for all of them.
NO_FAULT_TAGS: frozenset = frozenset()


class SensorReading(NamedTuple):
    """One snapshot of all monitored fields: a tuple of Python floats in
    SENSOR_FIELDS order.  NaN is reserved for a sensor that could not be
    read; the config types refuse the non-finite inputs that could make one."""

    values: tuple[float, ...]
    # Injected-fault ground truth: the server scores validity from it, and a
    # secondary skips a comparison that an untagged reading cannot fail.
    fault_tags: frozenset = NO_FAULT_TAGS

    def is_complete(self) -> bool:
        for v in self.values:
            if v != v:  # a NaN is the one value that differs from itself
                return False
        return True


# The record helpers below build a NamedTuple from the full tuple of its
# fields, in field order: tuple.__new__ bound to the type, a call in C, where
# the generated __new__ is a Python frame (on 3.11, 219 against 417 ns).  No
# default applies, so every field must be given.

# SensorReading from (values, fault_tags); a fault-free reading passes
# NO_FAULT_TAGS.
reading_from_fields = MethodType(tuple.__new__, SensorReading)


class Packet(NamedTuple):
    """One frame on the air.  A tuple: built once per frame, ack and
    heartbeat, it costs less than a frozen dataclass and is as immutable."""

    kind: str  # a PacketKind attribute
    node_id: str = ""
    board_role: str = ""  # a BoardRole attribute; "" on an ack or a noise burst
    seq: int = 0
    size_bytes: int = 0
    reading: Optional[SensorReading] = None
    emergency: bool = False
    corrective: bool = False


# Packet from all eight fields (kind, node_id, board_role, seq, size_bytes,
# reading, emergency, corrective): the per-frame data, ack and heartbeat
# frames are built with it.
packet_from_fields = MethodType(tuple.__new__, Packet)


_ANOMALY_EPS = 1e-9  # detect_anomaly's floor under the reference |s|


def detect_anomaly(
    primary: SensorReading,
    secondary: SensorReading,
    rel_threshold: float = 0.25,
) -> bool:
    """True iff some field's primary/secondary discrepancy exceeds the threshold.

    A field is flagged iff |p - s| / max(|s|, 1e-9) is strictly greater than
    the threshold; the comparison says that *some* board is wrong, not which.
    A field missing (NaN) on either side is never flagged: every step with a
    NaN gives NaN, and a NaN compares false.  An inline floor costs less
    than ``max``.
    """
    for p, s in zip(primary.values, secondary.values):
        ref = abs(s)
        if ref < _ANOMALY_EPS:  # false for a NaN, which stays NaN as under max()
            ref = _ANOMALY_EPS
        if abs(p - s) / ref > rel_threshold:
            return True
    return False


def check_thresholds(reading: SensorReading) -> bool:
    """True iff any present field lies outside its emergency bounds (absent
    fields do not trigger; absence is a sensor failure symptom, not an
    emergency).  A NaN compares false both ways, so it never triggers."""
    for v, (lo, hi) in zip(reading.values, _EMERGENCY_BOUNDS):
        if v < lo or v > hi:
            return True
    return False
