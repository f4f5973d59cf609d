"""Frame and sensor-reading types shared by boards, channel and gateways."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

# The twelve monitored fields: four scalar gas/pressure sensors plus four
# temperature/humidity probe pairs.
SENSOR_FIELDS: tuple[str, ...] = (
    "co2_ppm",
    "pressure_hpa",
    "o2_percent",
    "co_ppm",
    "temp_c_0",
    "temp_c_1",
    "temp_c_2",
    "temp_c_3",
    "humidity_pct_0",
    "humidity_pct_1",
    "humidity_pct_2",
    "humidity_pct_3",
)

# Size of a data frame carrying one full reading, from either board.
DATA_BYTES = 76


class PacketKind(Enum):
    DATA = "data"
    HEARTBEAT = "heartbeat"
    ACK = "ack"
    NOISE = "noise"


class BoardRole(Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"


@dataclass(frozen=True)
class SensorReading:
    """One snapshot of all monitored fields; a None value means the sensor
    could not be read."""

    values: dict[str, Optional[float]]
    fault_tags: frozenset = frozenset()  # injected-fault ground truth; metrics only

    def missing_fields(self) -> list[str]:
        return [k for k in SENSOR_FIELDS if self.values.get(k) is None]

    def is_complete(self) -> bool:
        return not self.missing_fields()


@dataclass(frozen=True)
class Packet:
    kind: PacketKind
    node_id: str = ""
    board_role: Optional[BoardRole] = None
    seq: int = 0
    size_bytes: int = 0
    reading: Optional[SensorReading] = None
    emergency: bool = False
    corrective: bool = False
    # For acks: (node_id, seq) of the acknowledged data packet.
    ack_for: Optional[tuple[str, int]] = None


def detect_anomaly(
    primary: SensorReading,
    secondary: SensorReading,
    rel_threshold: float = 0.25,
    eps: float = 1e-9,
) -> list[str]:
    """Fields whose primary/secondary discrepancy exceeds the threshold.

    A field is flagged iff |p - s| / max(|s|, eps) is strictly greater than
    the threshold; the comparison says that *some* board is wrong, not which.
    Fields absent on either side are skipped.
    """
    flagged = []
    for name in SENSOR_FIELDS:
        p = primary.values.get(name)
        s = secondary.values.get(name)
        if p is None or s is None:
            continue
        if abs(p - s) / max(abs(s), eps) > rel_threshold:
            flagged.append(name)
    return flagged
