"""Spans and counters at the simulator's layer boundaries, recorded from
outside the package.

`Tracer` wraps each entry point at runtime under the name its caller looks
it up by (modules bind each other's names at import, so ``rssi_at`` is
wrapped as ``redwsn.channel.rssi_at`` and ``compute_prr`` as
``redwsn.simulation.compute_prr``), and restores the originals on exit.
Every timed call becomes a span: name, start, end, parent span and run id,
kept in flat arrays in memory and saved when the run ends.  A span's self
time is its duration minus that of its child spans; the tracer is a call
stack in one thread, so the children of a span never overlap.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from types import ModuleType
from typing import Callable, Optional

import numpy as np

# Span names whose share of the traced wall time `metrics.share` reports.
METRIC_SPANS = ("metrics.prr", "metrics.detection", "metrics.delay", "metrics.rssi")
ROOT_SPAN = "simulation.run"


class Tracer:
    """Records spans and counts while active (use as a context manager)."""

    def __init__(self, rw: ModuleType):
        self.rw = rw
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.run = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span; ``after(result, args)``
        runs once the span has ended."""
        nid = self._name_id(name)
        start, end, parent, names, runs = self.start, self.end, self.parent, self.name, self.run
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            runs.append(self.run_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def counter(self, name: Optional[str], fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call adds one to ``counts[name]`` (unless name
        is None) and then runs ``after(result, args)``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            if name is not None:
                counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(getattr(owner, attr)))

    def __enter__(self) -> "Tracer":
        instrument(self, self.rw)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- accounting ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64)
        own = self_times(dur, a["parent"])
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n) / 1e9
        self_s = np.bincount(a["name"], weights=own, minlength=n) / 1e9
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }

    def covered_s(self) -> float:
        """Seconds spent in layer spans directly under a root span, plus
        CTMC tables: the part of the timed region some layer accounts for."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64)
        name, parent = a["name"], a["parent"]
        has_parent = parent >= 0
        under_root = np.zeros(len(dur), dtype=bool)
        under_root[has_parent] = name[parent[has_parent]] == self._ids.get(ROOT_SPAN, -1)
        under_root |= name == self._ids.get("ctmc.table", -1)
        return float(dur[under_root].sum()) / 1e9


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    has_parent = parents >= 0
    children = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=len(durations)
    )
    return durations - children


def instrument(tr: Tracer, rw: ModuleType) -> None:
    """Wrap every layer entry point the per-layer metrics are read from."""
    counts = tr.counts
    engine, channel, mac, boards = rw.engine, rw.channel, rw.mac, rw.boards
    gateway, simulation, scenario, ctmc = rw.gateway, rw.simulation, rw.scenario, rw.ctmc
    secondary = rw.packets.BoardRole.SECONDARY
    data_kind = rw.packets.PacketKind.DATA

    def events(result, args):
        counts["engine.events"] += result

    tr.patch(engine.Simulator, "run_until", lambda f: tr.span("engine.run_until", f, events))
    tr.patch(engine.Simulator, "schedule_at", lambda f: tr.counter("engine.scheduled", f))

    tr.patch(channel, "time_on_air_us", lambda f: tr.span("lora.toa", f))
    tr.patch(channel, "rssi_at", lambda f: tr.span("channel.rssi", f))
    tr.patch(channel.Channel, "begin_transmission", lambda f: tr.span("channel.begin", f))
    tr.patch(channel.Channel, "busy_until", lambda f: tr.span("channel.busy_until", f))

    def pairs(result, args):
        chan, tx = args
        counts["channel.pairs"] += sum(r.entity_id != tx.source_id for r in chan._receivers)

    tr.patch(channel.Channel, "_resolve", lambda f: tr.span("channel.resolve", f, pairs))
    for receiver in (boards.PrimaryBoard, boards.SecondaryBoard):
        tr.patch(receiver, "on_receive", lambda f: tr.counter("channel.deliveries", f))
    tr.patch(gateway.Gateway, "on_receive", lambda f: tr.span("gateway.on_receive", f))

    def evicted(result, args):
        if result is not None:
            counts["mac.evictions"] += 1

    def sent(result, args):
        if args[0].cfg.enabled:
            counts["mac.sends"] += 1

    tr.patch(mac.RetxQueue, "pop", lambda f: tr.counter("mac.retx", f))
    tr.patch(mac.RetxQueue, "push", lambda f: tr.counter(None, f, evicted))
    tr.patch(mac.SarbMac, "_send", lambda f: tr.counter(None, f, sent))

    def on_ack(f):
        def wrapper(self, acked_seq):
            pending = self._pending
            f(self, acked_seq)
            if pending is not None and self._pending is None:
                counts["mac.acks"] += 1

        return wrapper

    tr.patch(mac.SarbMac, "on_ack", on_ack)

    def transmitted(result, args):
        board, packet = args
        if result is None:
            if board.is_powered():
                counts["boards.transmit.deferred"] += 1
        elif board.role is secondary and packet.kind is data_kind:
            counts["boards.substitutes"] += 1

    tr.patch(boards._RadioBoard, "sense", lambda f: tr.span("boards.sense", f))
    tr.patch(boards._RadioBoard, "transmit", lambda f: tr.counter("boards.transmit.calls", f, transmitted))
    tr.patch(boards, "detect_anomaly", lambda f: tr.span("packets.detect_anomaly", f))

    tr.patch(gateway.Server, "on_gateway_reception", lambda f: tr.counter("server.forwards", f))
    tr.patch(gateway.Server, "deduplicated", lambda f: tr.span("server.dedup", f))

    tr.patch(simulation, "compute_prr", lambda f: tr.span("metrics.prr", f))
    tr.patch(simulation, "compute_detection_rate", lambda f: tr.span("metrics.detection", f))
    tr.patch(simulation, "delay_violations", lambda f: tr.span("metrics.delay", f))
    tr.patch(simulation, "rssi_summary", lambda f: tr.span("metrics.rssi", f))

    def finished(result, args):
        sim = args[0]
        counts["mac.slots"] += sum(len(p.expected_slots_us) for p in sim.primaries.values())
        counts["server.duplicates"] += sim.server.duplicate_count

    tr.patch(simulation.Simulation, "__init__", lambda f: tr.span("simulation.init", f))
    tr.patch(simulation.Simulation, "run", lambda f: tr.span(ROOT_SPAN, f, finished))
    tr.patch(scenario, "build_preset", lambda f: tr.span("scenario.build", f))
    tr.patch(scenario, "report_to_json", lambda f: tr.span("scenario.report", f))

    tr.patch(ctmc, "BirthDeathModel", lambda f: tr.counter("ctmc.models", f))
    tr.patch(ctmc, "failure_probability_table", lambda f: tr.span("ctmc.table", f))
