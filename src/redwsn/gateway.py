"""Gateway reception, acknowledgements, and server-side de-duplication."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from types import MethodType
from typing import NamedTuple

from .boards import FaultSpec
from .channel import Channel, Position
from .engine import Simulator, check_typed_fields, in_windows
from .lora import check_tx_power
from .packets import BoardRole, Packet, PacketKind, packet_from_fields


class ServerEntry(NamedTuple):
    """One reception as the server sees it.  ``valid`` holds for a data
    frame whose reading is complete and carries no injected-fault tag.  A
    tuple, built once per reception: cheaper than a frozen dataclass."""

    node_id: str
    board_role: str
    seq: int
    kind: str
    time_us: int
    gateway_id: str
    rssi_dbm: float
    valid: bool


# ServerEntry from all eight fields, in field order: tuple.__new__ bound to
# the type, a call in C, where the generated __new__ is a Python frame.
entry_from_fields = MethodType(tuple.__new__, ServerEntry)


class Server:
    """Loss-free backhaul endpoint: collects gateway forwards and keeps the
    earliest copy per (node, board, seq)."""

    def __init__(self):
        self.raw: list[ServerEntry] = []
        self._first_seen: dict[tuple[str, str, int], ServerEntry] = {}

    @property
    def duplicate_count(self) -> int:
        """Forwards of a (node, board, seq) the server already had."""
        return len(self.raw) - len(self._first_seen)

    def on_gateway_reception(self, gateway_id: str, packet: Packet, rssi_dbm: float, now_us: int) -> None:
        kind, node_id, role, seq, _, reading, _, _ = packet
        # The tag test first: it is cheaper than the scan for a NaN.
        valid = kind is PacketKind.DATA and reading is not None and not reading.fault_tags and reading.is_complete()
        entry = entry_from_fields((node_id, role, seq, kind, now_us, gateway_id, rssi_dbm, valid))
        self.raw.append(entry)
        self._first_seen.setdefault((node_id, role, seq), entry)

    def deduplicated(self) -> list[ServerEntry]:
        """Unique stream ordered by earliest reception time (stable)."""
        # By time_us, node_id, seq: the record's fields 4, 0, 2.
        return sorted(self._first_seen.values(), key=itemgetter(4, 0, 2))


@dataclass(frozen=True)
class GatewayConfig:
    id: str
    position: Position = Position(0.0, 0.0)
    acks_enabled: bool = True
    extra_loss_db: float = 0.0
    tx_power_dbm: float = 14.0

    def __post_init__(self):
        check_typed_fields(self)
        # A gain would lift frames above the AGC ceiling that clamps them.
        if self.extra_loss_db < 0:
            raise ValueError("extra_loss_db must not be negative")
        check_tx_power(self.tx_power_dbm)


class Gateway:
    """Radio receiver that forwards to the server and acknowledges primary
    data frames (when it is the acking gateway for its module).  It is down
    while any of the faults aimed at its id is active."""

    ACK_BYTES = 8

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        server: Server,
        cfg: GatewayConfig,
        faults: tuple[FaultSpec, ...],
    ):
        self.sim = sim
        self.channel = channel
        self.server = server
        self.cfg = cfg
        self.entity_id = cfg.id
        self.position = cfg.position
        self.rx_extra_loss_db = cfg.extra_loss_db
        # Noise is interference only; acks are for boards.
        self.hears = ((PacketKind.DATA, None), (PacketKind.HEARTBEAT, None))
        self._outages_us = [f.window_us for f in faults if f.target == cfg.id]
        channel.add_receiver(self)

    def failed(self, now_us: int) -> bool:
        outages = self._outages_us
        return in_windows(outages, now_us) if outages else False

    def on_receive(self, packet: Packet, rssi_dbm: float, now_us: int) -> None:
        if self._outages_us and self.failed(now_us):
            return
        self.server.on_gateway_reception(self.entity_id, packet, rssi_dbm, now_us)
        if packet.kind is PacketKind.DATA and packet.board_role is BoardRole.PRIMARY and self.cfg.acks_enabled:
            self._send_ack(packet)

    def _send_ack(self, packet: Packet) -> None:
        # A gateway mid-transmission drops the ack; the board's timeout
        # covers the loss with a (benign) retransmission.
        if self.channel.busy_until(self.entity_id) > self.sim.now_us:
            return
        # An ack carries the node id and seq of the frame it acknowledges.
        ack = packet_from_fields((PacketKind.ACK, packet.node_id, "", packet.seq, self.ACK_BYTES, None, False, False))
        self.channel.begin_transmission(self.entity_id, self.position, ack, self.cfg.tx_power_dbm)
