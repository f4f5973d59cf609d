"""Frame and sensor-reading types shared by boards, channel and gateways."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

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

# Size of a data frame carrying one full reading, from either board.
DATA_BYTES = 76


# Both enums hash by identity, in C, in place of Enum's Python-level hash of
# the member name: every frame's audience is looked up by (kind, node id).
# Members are singletons that compare by identity, so equal members still
# hash equal; only the hash values differ, and no report depends on them.


class PacketKind(Enum):
    DATA = "data"
    HEARTBEAT = "heartbeat"
    ACK = "ack"
    NOISE = "noise"

    __hash__ = object.__hash__


class BoardRole(Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"

    __hash__ = object.__hash__


class SensorReading(NamedTuple):
    """One snapshot of all monitored fields, in SENSOR_FIELDS order; a NaN
    value means the sensor could not be read.  A tuple, like Packet, but
    equal and hashed by identity, so comparing frames never compares arrays."""

    values: np.ndarray
    # Injected-fault ground truth: the server scores validity from it, and a
    # secondary skips a comparison that an untagged reading cannot fail.
    fault_tags: frozenset = frozenset()

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    # For twelve values a Python loop costs less than numpy's calls; a NaN
    # is the one value that differs from itself.
    def is_complete(self) -> bool:
        for v in self.values.tolist():
            if v != v:
                return False
        return True


class Packet(NamedTuple):
    """One frame on the air.  A tuple: built once per frame, ack and
    heartbeat, it costs less than a frozen dataclass and is as immutable."""

    kind: PacketKind
    node_id: str = ""
    board_role: Optional[BoardRole] = None
    seq: int = 0
    size_bytes: int = 0
    reading: Optional[SensorReading] = None
    emergency: bool = False
    corrective: bool = False


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
    NaN gives NaN, and a NaN compares false.  For twelve values a Python loop
    costs less than numpy's calls, and an inline floor less than ``max``.
    """
    for p, s in zip(primary.values.tolist(), secondary.values.tolist()):
        ref = abs(s)
        if ref < _ANOMALY_EPS:  # false for a NaN, which stays NaN as under max()
            ref = _ANOMALY_EPS
        if abs(p - s) / ref > rel_threshold:
            return True
    return False
