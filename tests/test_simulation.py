"""A finished Simulation keeps its results readable and is freed by
reference counting alone, without waiting for the cycle collector.  A
node's slot schedule depends on nothing but its own stream."""

import gc
import weakref
from dataclasses import replace

from redwsn.channel import Position
from redwsn.scenario import NodeConfig, build_preset
from redwsn.simulation import Simulation


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
