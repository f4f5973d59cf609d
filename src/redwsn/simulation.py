"""One simulation instance: wires the channel, boards, gateways and noise
from a scenario configuration and produces per-iteration metrics."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .boards import PrimaryBoard, SecondaryBoard
from .channel import Channel
from .engine import Simulator, ms_to_us
from .gateway import Gateway, Server
from .metrics import (
    Epoch,
    IterationMetrics,
    compute_detection_rate,
    compute_prr,
    delay_violations,
    epoch_ledger,
    rssi_summary,
)
from .packets import BoardRole

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import ScenarioConfig


class Simulation:
    """Deterministic single run of a scenario under one master seed."""

    def __init__(self, cfg: "ScenarioConfig", seed: int):
        self.cfg = cfg
        self.seed = seed
        self.sim = Simulator(master_seed=seed)
        self.channel = Channel(self.sim, params=cfg.channel, lora=cfg.lora)
        self.server = Server()
        self.epochs: list[Epoch] = []
        self._ran = False

        self.gateways = [Gateway(self.sim, self.channel, self.server, gw, cfg.faults) for gw in cfg.gateways]
        self.primaries: dict[str, PrimaryBoard] = {}
        self.secondaries: dict[str, SecondaryBoard] = {}
        for node in cfg.nodes:
            self.primaries[node.id] = PrimaryBoard(self.sim, self.channel, node, cfg.faults, cfg.mac)
            if node.has_secondary:
                self.secondaries[node.id] = SecondaryBoard(self.sim, self.channel, node, cfg.faults, cfg.secondary)

    def run(self) -> IterationMetrics:
        """Run the scenario and score it.  A Simulation runs once: the run
        releases the boards' MACs and the channel's receivers, however it
        ends."""
        if self._ran:
            raise RuntimeError("a Simulation runs once; build a new one to run again")
        self._ran = True
        cfg = self.cfg
        duration_us = ms_to_us(cfg.duration_ms)
        try:
            for primary in self.primaries.values():
                primary.start()
            for secondary in self.secondaries.values():
                secondary.start()
            if cfg.noise.enabled:
                self.channel.add_noise(cfg.noise, duration_us, self.sim.rng("noise-schedule"))
            self.sim.run_until(duration_us)
            return self._metrics(duration_us)
        finally:
            self._release()

    def _release(self) -> None:
        """Break the run's reference cycles (pending events, channel and
        receivers, board and MAC), so a finished run is freed as soon as the
        caller drops it rather than at the next full garbage collection.
        The server, the epoch ledger and each primary's expected slots stay
        readable."""
        self.sim.close()
        self.channel.close()
        for primary in self.primaries.values():
            primary.mac = None

    # -- metrics -------------------------------------------------------------

    def _metrics(self, duration_us: int) -> IterationMetrics:
        arrivals = self.server.arrivals
        bound_us = ms_to_us(self.cfg.max_monitoring_delay_ms)
        slots = {node_id: primary.expected_slots_us for node_id, primary in self.primaries.items()}
        windows = {node_id: primary.fault_windows_us for node_id, primary in self.primaries.items()}
        self.epochs = epoch_ledger(arrivals, slots, windows, duration_us, bound_us)
        prr = compute_prr(self.epochs)
        prr_primary = compute_prr(self.epochs, roles=(BoardRole.PRIMARY,))
        detection = compute_detection_rate(self.epochs)
        violations = delay_violations(arrivals, list(self.primaries), duration_us, bound_us)
        rssi_by_gateway: dict[str, list[float]] = {gw.entity_id: [] for gw in self.gateways}
        for e in self.server.raw:
            rssi_by_gateway[e.gateway_id].append(e.rssi_dbm)
        rssi = {gw_id: rssi_summary(samples) for gw_id, samples in rssi_by_gateway.items()}
        return IterationMetrics(
            seed=self.seed,
            prr_redundant=prr,
            prr_primary_only=prr_primary,
            detection_rate=detection,
            delay_violations=violations,
            duplicate_count=self.server.duplicate_count,
            epochs_total=len(self.epochs),
            epochs_fault_active=sum(row.fault_active for row in self.epochs),
            rssi=rssi,
        )
