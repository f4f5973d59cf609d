"""A finished Simulation keeps its results readable and is freed by
reference counting alone, without waiting for the cycle collector, also
when a callback ends its run by raising.  A
node's slot schedule depends on nothing but its own stream.  Every epoch
count and ratio of a run is a reduction of its epoch ledger.  Reversing
the order of same-microsecond events keeps every preset's headline numbers,
but not yet every report byte."""

import gc
import weakref
from heapq import heappop
from collections import Counter
from dataclasses import replace

import pytest

from redwsn import simulation
from redwsn.channel import Channel, Position
from redwsn.engine import SchedulingError, Simulator, ms_to_us
from redwsn.gateway import Server
from redwsn.packets import BoardRole, PacketKind
from redwsn.scenario import PRESET_NAMES, NodeConfig, build_preset, report_to_json, run_scenario
from redwsn.simulation import Simulation
from test_golden import CASES as GOLDEN_CASES


def two_node_control_noise():
    # Two simulated minutes: the first data slot (20-30 s) needs its whole
    # 40 s monitoring window inside the run to be scored.
    return replace(
        build_preset("control-noise"),
        nodes=(
            NodeConfig(id="n1", position=Position(2.0, 0.0)),
            NodeConfig(id="n2", position=Position(0.0, 3.0)),
        ),
        duration_ms=120_000,
    )


def test_finished_run_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        sim = Simulation(two_node_control_noise(), seed=5)
        sim.run()
        channel = weakref.ref(sim.channel)
        secondary = weakref.ref(sim.secondaries["n1"])
        del sim
        assert channel() is None
        assert secondary() is None
    finally:
        gc.enable()


def test_a_run_a_callback_ends_is_freed_without_the_cycle_collector(monkeypatch):
    def refuse(*args):
        raise RuntimeError("server down")

    monkeypatch.setattr(Server, "on_gateway_reception", refuse)
    gc.collect()
    gc.disable()
    try:
        sim = Simulation(build_preset("HF"), seed=1)
        channel = weakref.ref(sim.channel)
        with pytest.raises(RuntimeError, match="server down"):
            sim.run()
        del sim
        assert channel() is None
    finally:
        gc.enable()


def test_results_stay_readable_after_run():
    sim = Simulation(two_node_control_noise(), seed=5)
    sim.run()
    assert any(e.kind == "data" for e in sim.server.deduplicated())
    assert all(primary.expected_slots_us for primary in sim.primaries.values())


def test_other_nodes_and_noise_leave_a_nodes_slots_unchanged():
    hf = build_preset("HF")
    # n1 keeps its place at (2, 0); four more nodes share the channel.
    crowd = tuple(NodeConfig(id=f"n{i}", position=Position(2.0, float(i - 1))) for i in range(1, 6))
    schedules = []
    for nodes in (hf.nodes, crowd):
        for noise in (True, False):
            sim = Simulation(replace(hf, nodes=nodes, noise=replace(hf.noise, enabled=noise)), seed=3)
            sim.run()
            schedules.append(sim.primaries["n1"].expected_slots_us)
    assert schedules[0] and all(s == schedules[0] for s in schedules)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_run_metrics_are_reductions_of_the_epoch_ledger(preset, seed):
    sim = Simulation(build_preset(preset), seed=seed)
    metrics = sim.run()
    epochs = sim.epochs
    assert len(epochs) == metrics.epochs_total
    assert sum(1 for row in epochs if row.fault_active) == metrics.epochs_fault_active

    served = sum(1 for row in epochs if row.primary_us is not None or row.secondary_us is not None)
    assert served / len(epochs) == metrics.prr_redundant
    assert sum(1 for row in epochs if row.primary_us is not None) / len(epochs) == metrics.prr_primary_only
    missed = [row for row in epochs if row.fault_active and row.primary_us is None]
    detected = sum(1 for row in missed if row.secondary_us is not None)
    assert (detected / len(missed) if missed else None) == metrics.detection_rate

    # Each arrival a row names is the earliest valid deduplicated data entry
    # of that node and board inside the epoch's window; None means none is.
    bound_us = ms_to_us(sim.cfg.max_monitoring_delay_ms)
    arrivals = {}
    for e in sim.server.deduplicated():
        if e.valid:
            arrivals.setdefault((e.node_id, e.board_role), []).append(e.time_us)
    for row in epochs:
        for role, time_us in (("primary", row.primary_us), ("secondary", row.secondary_us)):
            in_window = [t for t in arrivals.get((row.node_id, role), []) if row.slot_us <= t < row.slot_us + bound_us]
            assert time_us == min(in_window, default=None)

def test_run_calls_each_metric_through_the_simulation_module(monkeypatch):
    # perfbench's tracer times the metrics by wrapping these names in
    # redwsn.simulation; a call that bypassed them would go untimed.
    calls = Counter()
    for name in ("compute_prr", "compute_detection_rate", "delay_violations", "rssi_summary"):
        original = getattr(simulation, name)

        def counted(*args, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(*args, **kw)

        monkeypatch.setattr(simulation, name, counted)
    cfg = build_preset("GWF")
    Simulation(cfg, seed=1).run()
    assert calls == {
        "compute_prr": 2,
        "compute_detection_rate": 1,
        "delay_violations": 1,
        "rssi_summary": len(cfg.gateways),
    }


def test_a_second_run_is_refused_and_leaves_the_first_runs_results():
    sim = Simulation(build_preset("HF"), 1)
    metrics = sim.run()
    epochs, raw, now_us = list(sim.epochs), list(sim.server.raw), sim.sim.now_us
    with pytest.raises(RuntimeError, match="runs once"):
        sim.run()
    # Refused before anything moved: the clock, the server and the ledger
    # still hold the first run, and score as it did.
    assert sim.sim.now_us == now_us
    assert sim.epochs == epochs and len(epochs) == metrics.epochs_total
    assert sim.server.raw == raw and raw
    assert sim.server.duplicate_count == metrics.duplicate_count
    assert simulation.compute_prr(sim.epochs) == metrics.prr_redundant
    assert all(primary.expected_slots_us for primary in sim.primaries.values())


@pytest.mark.parametrize("preset", ["HF", "GWF"])
def test_frames_and_boards_hold_the_kind_and_role_constants_themselves(monkeypatch, preset):
    # Code that reads a kind or a role compares it by identity, the
    # benchmark tracer's substitute count too: an equal string built again
    # would match nothing.
    kinds = (PacketKind.DATA, PacketKind.HEARTBEAT, PacketKind.ACK, PacketKind.NOISE)
    roles = (BoardRole.PRIMARY, BoardRole.SECONDARY)
    frames = []
    begin = Channel.begin_transmission

    def recorded(self, source_id, position, packet, tx_power_dbm):
        frames.append(packet)
        return begin(self, source_id, position, packet, tx_power_dbm)

    monkeypatch.setattr(Channel, "begin_transmission", recorded)
    sim = Simulation(build_preset(preset), 1)
    boards = [*sim.primaries.values(), *sim.secondaries.values()]
    sim.run()
    assert {packet.kind for packet in frames} == {PacketKind.DATA, PacketKind.HEARTBEAT, PacketKind.ACK}
    assert all(any(packet.kind is kind for kind in kinds) for packet in frames)
    assert all(any(packet.board_role is role for role in (*roles, "")) for packet in frames)
    assert len(boards) == 2 and all(any(board.role is role for role in roles) for board in boards)


class ReversedTies(Simulator):
    """``Simulator.run_until`` with each tied instant's events run last
    scheduled first.  An event scheduled at the running instant still runs
    after the rest of it."""

    def run_until(self, t_end_us: int) -> int:
        if not t_end_us >= self.now_us:
            raise SchedulingError("t_end is in the past")
        processed = 0
        times, due, pop = self._times, self._due, heappop
        while times and times[0] <= t_end_us:
            t = pop(times)
            self.now_us = t
            pending = due.pop(t)
            if pending.__class__ is list:
                for fn, args in reversed(pending):
                    fn(*args)
                processed += len(pending)
            else:
                fn, args = pending
                fn(*args)
                processed += 1
        self.now_us = t_end_us
        return processed


TIE_SEEDS = range(1, 31)
FLEETS = ("control-noise-x10-jitter0", "control-noise-x50", "control-noise-x200")
HEADLINE = ("prr_redundant", "prr_primary_only", "detection_rate", "epochs_total")


def one_run_reports():
    """Each run's report, by (case, seed): every preset at TIE_SEEDS, and
    the fleet golden cases at their golden seeds."""
    runs = [(build_preset(name), name, seed) for name in PRESET_NAMES for seed in TIE_SEEDS]
    for name in FLEETS:
        build, seeds = GOLDEN_CASES[name]
        runs += [(build(), name, seed) for seed in seeds]
    return {(name, seed): run_scenario(cfg, [seed]) for cfg, name, seed in runs}


@pytest.fixture(scope="module")
def stock_and_reversed():
    """Both sides of the tie-order test, run once for its two parts: about
    3 s on a 2-core x86 box under CPython 3.11."""
    stock = one_run_reports()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("redwsn.simulation.Simulator", ReversedTies)
        reversed_ = one_run_reports()
    return stock, reversed_


def test_reversed_ties_keep_every_presets_headline_numbers(stock_and_reversed):
    stock, reversed_ = stock_and_reversed
    moved = [
        (name, seed, field)
        for (name, seed), report in stock.items()
        if name in PRESET_NAMES
        for field in HEADLINE
        if getattr(report.iterations[0], field) != getattr(reversed_[name, seed].iterations[0], field)
    ]
    assert moved == []


@pytest.mark.xfail(
    strict=True,
    reason="reversed ties change the RSSI stats of "
    "control-noise at seed 2, duplicate_count and the RSSI stats of HF at seed 18, and every "
    "fleet report (control-noise-x10-jitter0 at seeds 5 and 6, control-noise-x50 and -x200 at seed 5)",
)
def test_reversed_ties_keep_every_report_byte(stock_and_reversed):
    stock, reversed_ = stock_and_reversed
    assert [key for key, report in stock.items() if report_to_json(report) != report_to_json(reversed_[key])] == []
