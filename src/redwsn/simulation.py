"""One simulation instance: wires the channel, boards, gateways and noise
from a scenario configuration and produces per-iteration metrics."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .boards import Environment, PrimaryBoard, SecondaryBoard
from .channel import Channel
from .engine import Simulator, ms_to_us
from .gateway import Gateway, Server
from .metrics import (
    IterationMetrics,
    compute_detection_rate,
    compute_prr,
    delay_violations,
    rssi_summary,
)

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

        self.gateways = [Gateway(self.sim, self.channel, self.server, gw, cfg.faults) for gw in cfg.gateways]
        self.primaries: dict[str, PrimaryBoard] = {}
        self.secondaries: dict[str, SecondaryBoard] = {}
        for node in cfg.nodes:
            env = Environment(self.sim.rng(f"{node.id}-environment"))
            self.primaries[node.id] = PrimaryBoard(self.sim, self.channel, node, env, cfg.faults, cfg.mac)
            if node.has_secondary:
                self.secondaries[node.id] = SecondaryBoard(
                    self.sim, self.channel, node, env, cfg.faults, cfg.secondary
                )

    def run(self) -> IterationMetrics:
        cfg = self.cfg
        duration_us = ms_to_us(cfg.duration_ms)
        for primary in self.primaries.values():
            primary.start()
        for secondary in self.secondaries.values():
            secondary.start()
        if cfg.noise.enabled:
            self.channel.add_noise(cfg.noise, duration_us, self.sim.rng("noise-schedule"))
        self.sim.run_until(duration_us)
        try:
            return self._metrics()
        finally:
            self._release()

    def _release(self) -> None:
        """Break the run's reference cycles (pending events, channel and
        receivers, board and MAC), so a finished run is freed as soon as the
        caller drops it rather than at the next full garbage collection.
        The server and each primary's expected slots stay readable."""
        self.sim.close()
        self.channel.close()
        for primary in self.primaries.values():
            primary.mac = None

    # -- metrics -------------------------------------------------------------

    def _metrics(self) -> IterationMetrics:
        cfg = self.cfg
        entries = self.server.deduplicated()
        bound = cfg.max_monitoring_delay_ms
        # Only epochs whose whole monitoring window fits inside the run are
        # scored; a window truncated by the horizon cannot be evaluated.
        slots_by_node = {
            node_id: [
                t / 1000
                for t in primary.expected_slots_us
                if t / 1000 + bound <= cfg.duration_ms
            ]
            for node_id, primary in self.primaries.items()
        }
        prr = compute_prr(entries, slots_by_node, bound)
        prr_primary = compute_prr(entries, slots_by_node, bound, roles=("primary",))

        # Ground truth: the epochs during a fault on the node's primary board.
        fault_slots = {
            node_id: [t for t in slots_by_node[node_id] if any(f.active(t) for f in primary.faults)]
            for node_id, primary in self.primaries.items()
        }
        detection = compute_detection_rate(entries, fault_slots, bound)

        violations = delay_violations(entries, list(slots_by_node), cfg.duration_ms, bound)
        rssi = {
            gw.entity_id: rssi_summary(
                [e.rssi_dbm for e in self.server.raw if e.gateway_id == gw.entity_id]
            )
            for gw in self.gateways
        }
        return IterationMetrics(
            seed=self.seed,
            prr_redundant=prr,
            prr_primary_only=prr_primary,
            detection_rate=detection,
            delay_violations=violations,
            duplicate_count=self.server.duplicate_count,
            epochs_total=sum(len(s) for s in slots_by_node.values()),
            epochs_fault_active=sum(len(s) for s in fault_slots.values()),
            rssi=rssi,
        )
