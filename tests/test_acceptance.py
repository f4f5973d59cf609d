"""Acceptance suite: one test (one pass/fail line under pytest -v) per
top-level requirement.  Band checks run on the frozen seed set 5..14; every
simulation is deterministic given its seed, so these are stable, not flaky.
"""

import json
import time
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from redwsn.boards import FaultKind, FaultSpec
from redwsn.cli import EXIT_OK, main_avail
from redwsn.ctmc import BirthDeathModel, build_generator, steady_state_closed_form, steady_state_linear_solve
from redwsn.lora import time_on_air_ms
from redwsn.mac import RetxQueue
from redwsn.packets import Packet, PacketKind
from redwsn.scenario import build_preset, report_to_json, run_scenario
from redwsn.simulation import Simulation

SEEDS = list(range(5, 15))


def gain_pp(iteration):
    return (iteration.prr_redundant - iteration.prr_primary_only) * 100.0


def test_acceptance_ctmc_failure_table_reproduction(capsys):
    start = time.monotonic()
    code = main_avail(["--lambda", "1e-4", "--mu", "20.83e-3", "--n-max", "4", "--format", "csv"])
    elapsed = time.monotonic() - start
    assert code == EXIT_OK
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    values = [float(row.split(",")[1]) for row in rows]
    published = [4.777e-3, 4.565e-5, 6.543e-7, 1.250e-8]
    for got, expected in zip(values, published):
        # Published table truncates the 4th significant digit.
        assert got == pytest.approx(expected, rel=5e-4)
    assert elapsed < 1.0


def test_acceptance_closed_form_vs_linear_solve_cross_check():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        lam = 10 ** rng.uniform(-6, 0)
        mu = 10 ** rng.uniform(-6, 0)
        model = BirthDeathModel(n, lam, mu)
        closed = steady_state_closed_form(model)
        solved = steady_state_linear_solve(build_generator(model))
        assert abs(closed.sum() - 1.0) <= 1e-12
        assert abs(solved.sum() - 1.0) <= 1e-12
        # Agreement relative to the distribution: components that underflow
        # toward 1e-60 carry no representable relative precision in f64.
        assert np.max(np.abs(closed - solved)) <= 1e-12 * np.max(np.abs(closed))


def test_acceptance_time_on_air_anchor():
    time_on_air_ms(76)  # warm up before timing
    start = time.perf_counter()
    toa = time_on_air_ms(76)
    elapsed = time.perf_counter() - start
    assert toa == pytest.approx(138.496, abs=0.1)
    assert elapsed < 1e-3


def test_acceptance_monitoring_delay_bound_clean_channel():
    cfg = build_preset("HF")
    cfg = replace(cfg, noise=replace(cfg.noise, enabled=False))
    start = time.monotonic()
    for seed in SEEDS:
        sim = Simulation(cfg, seed)
        metrics = sim.run()
        assert metrics.detection_rate == 1.0
        assert metrics.delay_violations == 0
        # Direct check on the raw server stream: no data gap exceeds 40 s.
        times = sorted(
            e.time_us for e in sim.server.deduplicated() if e.kind == "data" and e.valid
        )
        gaps = [b - a for a, b in zip([0, *times], [*times, cfg.duration_ms * 1000])]
        assert max(gaps) <= 40_000_000
    assert time.monotonic() - start < 10.0


def test_acceptance_redundancy_gain_band():
    for preset in ("HF", "SF1", "SF2"):
        report = run_scenario(build_preset(preset), SEEDS)
        gains = [gain_pp(it) for it in report.iterations]
        assert all(g > 0 for g in gains), f"{preset}: non-positive gain on a seed"
        mean_gain = float(np.mean(gains))
        assert 20.0 <= mean_gain <= 45.0, f"{preset}: mean gain {mean_gain:.2f} pp out of band"


def test_acceptance_sarb_gain_band():
    with_sarb = run_scenario(build_preset("control-noise"), SEEDS)
    without = run_scenario(build_preset("control-noise-noSARB"), SEEDS)
    per_seed = [
        (a.prr_redundant - b.prr_redundant) * 100.0
        for a, b in zip(with_sarb.iterations, without.iterations)
    ]
    assert all(g > 0 for g in per_seed)
    mean_gain = float(np.mean(per_seed))
    assert 2.0 <= mean_gain <= 20.0


def test_acceptance_lifo_queue_property_suite():
    rng = np.random.default_rng(7)
    queue = RetxQueue(capacity=10)
    model = deque()
    seq = 0
    for _ in range(10_000):
        if rng.random() < 0.6:
            seq += 1
            packet = Packet(kind=PacketKind.DATA, node_id="n1", seq=seq, size_bytes=76)
            evicted = queue.push(packet)
            expected = model.popleft() if len(model) >= 10 else None
            model.append(packet)
            if expected is None:
                assert evicted is None
            else:
                # Eviction removes the oldest element still in the queue.
                assert evicted is not None and evicted.seq == expected.seq
                assert all(evicted.seq < p.seq for p in model)
        else:
            if model:
                assert queue.pop().seq == model.pop().seq
            else:
                with pytest.raises(IndexError):
                    queue.pop()
        assert len(queue) == len(model) <= 10
    assert [queue.pop().seq for _ in range(len(queue))] == [p.seq for p in reversed(model)]


def test_acceptance_gateway_failover():
    cfg = build_preset("GWF")
    report = run_scenario(cfg, SEEDS)
    for it in report.iterations:
        assert it.prr_redundant > 0.8
        home = it.rssi["gw-home"]
        backup = it.rssi["gw-backup"]
        assert home["count"] > 0 and backup["count"] > 0
        assert backup["median"] < home["median"]
        assert backup["median"] > -120.0 and home["median"] > -120.0
    all_failed = replace(
        cfg,
        faults=tuple(
            FaultSpec(FaultKind.GATEWAY_FAILURE, g.id, 0, cfg.duration_ms) for g in cfg.gateways
        ),
    )
    dead = run_scenario(all_failed, SEEDS[:3])
    assert all(it.prr_redundant == 0.0 for it in dead.iterations)


def test_acceptance_deterministic_reports():
    for preset in ("HF", "GWF"):
        first = report_to_json(run_scenario(build_preset(preset), SEEDS[:3]))
        second = report_to_json(run_scenario(build_preset(preset), SEEDS[:3]))
        assert first == second
        assert json.loads(first) == json.loads(second)
