"""Gateway reception, acknowledgements, and server-side de-duplication."""

from __future__ import annotations

from dataclasses import dataclass

from .boards import FaultSpec
from .channel import Channel, Position
from .engine import Simulator
from .packets import BoardRole, Packet, PacketKind


@dataclass(frozen=True)
class ServerEntry:
    """One reception as the server sees it.  ``valid`` holds for a data
    frame whose reading is complete and carries no injected-fault tag."""

    node_id: str
    board_role: str
    seq: int
    kind: str
    time_ms: float
    gateway_id: str
    rssi_dbm: float
    valid: bool


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
        valid = (
            packet.kind is PacketKind.DATA
            and packet.reading is not None
            and packet.reading.is_complete()
            and not packet.reading.fault_tags
        )
        entry = ServerEntry(
            node_id=packet.node_id,
            board_role=packet.board_role.value if packet.board_role else "",
            seq=packet.seq,
            kind=packet.kind.value,
            time_ms=now_us / 1000,
            gateway_id=gateway_id,
            rssi_dbm=rssi_dbm,
            valid=valid,
        )
        self.raw.append(entry)
        self._first_seen.setdefault((entry.node_id, entry.board_role, entry.seq), entry)

    def deduplicated(self) -> list[ServerEntry]:
        """Unique stream ordered by earliest reception time (stable)."""
        return sorted(self._first_seen.values(), key=lambda e: (e.time_ms, e.node_id, e.seq))


@dataclass(frozen=True)
class GatewayConfig:
    id: str
    position: Position = Position(0.0, 0.0)
    acks_enabled: bool = True
    extra_loss_db: float = 0.0
    tx_power_dbm: float = 14.0


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
        self.faults = [f for f in faults if f.target == cfg.id]
        channel.add_receiver(self)

    def failed(self, now_us: int) -> bool:
        t_ms = now_us / 1000
        return any(f.active(t_ms) for f in self.faults)

    def on_receive(self, packet: Packet, rssi_dbm: float, now_us: int) -> None:
        if self.failed(now_us):
            return
        self.server.on_gateway_reception(self.entity_id, packet, rssi_dbm, now_us)
        if (
            packet.kind is PacketKind.DATA
            and packet.board_role is BoardRole.PRIMARY
            and self.cfg.acks_enabled
        ):
            self._send_ack(packet)

    def _send_ack(self, packet: Packet) -> None:
        # A gateway mid-transmission drops the ack; the board's timeout
        # covers the loss with a (benign) retransmission.
        if self.channel.busy_until(self.entity_id) > self.sim.now_us:
            return
        # An ack carries the node id and seq of the frame it acknowledges.
        ack = Packet(kind=PacketKind.ACK, node_id=packet.node_id, seq=packet.seq, size_bytes=self.ACK_BYTES)
        self.channel.begin_transmission(self.entity_id, self.position, ack, self.cfg.tx_power_dbm)
