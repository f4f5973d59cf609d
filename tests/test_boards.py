import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redwsn import boards
from redwsn.boards import (
    FaultKind,
    FaultSpec,
    NodeConfig,
    PrimaryBoard,
    SecondaryBoard,
    SecondaryConfig,
    check_thresholds,
    Environment,
)
from redwsn.channel import Channel, ChannelParams, Position
from redwsn.engine import Simulator, ms_to_us, stream_rng
from redwsn.mac import SarbConfig
from redwsn.packets import SENSOR_FIELDS, SENSOR_TABLE, BoardRole, Packet, PacketKind, SensorReading
from redwsn.scenario import build_preset
from redwsn.simulation import Simulation


class GatewayProbe:
    def __init__(self, entity_id="gw", position=Position(0, 0)):
        self.entity_id = entity_id
        self.position = position
        self.rx_extra_loss_db = 0.0
        self.hears = ((PacketKind.DATA, None), (PacketKind.HEARTBEAT, None))
        self.heard = []

    def on_receive(self, packet, rssi_dbm, now_us):
        self.heard.append((packet, rssi_dbm, now_us))

    def data(self, role=None):
        out = [p for p, _, _ in self.heard if p.kind is PacketKind.DATA]
        if role is not None:
            out = [p for p in out if p.board_role is role]
        return out


def build_node(faults=(), seed=0, with_secondary=True, secondary_cfg=SecondaryConfig()):
    sim = Simulator(master_seed=seed)
    channel = Channel(sim, params=ChannelParams(shadowing_sigma_db=0.0))
    gw = GatewayProbe()
    channel.add_receiver(gw)
    env = Environment(sim.rng("n1-environment"))
    node = NodeConfig(id="n1")
    primary = PrimaryBoard(sim, channel, node, env, tuple(faults), SarbConfig())
    secondary = None
    if with_secondary:
        secondary = SecondaryBoard(sim, channel, node, env, tuple(faults), secondary_cfg)
    return sim, gw, primary, secondary


def active(fault, t_ms):
    """The reference window: a fault is active over [start_ms, end_ms)."""
    return fault.start_ms <= t_ms < fault.end_ms


# -- fault specs and thresholds ---------------------------------------------------


def test_fault_window_semantics():
    fault = FaultSpec(kind=FaultKind.HARD_FAILURE, target="n1.primary", start_ms=100, end_ms=200)
    assert fault.window_us == (100_000, 200_000)
    sim, _, primary, _ = build_node(faults=[fault])
    for now_us, powered in ((99_999, True), (100_000, False), (199_999, False), (200_000, True)):
        sim.now_us = now_us
        assert primary.is_powered() is powered


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultKind.HARD_FAILURE, target="n1.primary", start_ms=5, end_ms=5)
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultKind.SENSOR_READ_FAILURE, target="n1.primary", affected_sensor="nope")
    # window_us would round a fractional millisecond away.
    with pytest.raises(ValueError, match="integers"):
        FaultSpec(kind=FaultKind.HARD_FAILURE, target="n1.primary", start_ms=100.0004, end_ms=200)


def test_threshold_check_ignores_missing_fields():
    values = np.full(len(SENSOR_FIELDS), np.nan)
    assert not check_thresholds(SensorReading(values=values))
    values[SENSOR_FIELDS.index("co2_ppm")] = 5_000.0
    assert check_thresholds(SensorReading(values=values))


def test_walk_band_lies_inside_emergency_bounds():
    # A healthy board's readings stay near the +-5 % walk band, so only an
    # injected anomaly can cross an emergency bound.
    for name, (nominal, _, lo, hi) in SENSOR_TABLE.items():
        assert lo < nominal * (1 - 0.05) and nominal * (1 + 0.05) < hi, name


def test_environment_stays_in_band_and_is_shared():
    sim = Simulator(master_seed=3)
    env = Environment(sim.rng("env"))
    co2, o2 = SENSOR_FIELDS.index("co2_ppm"), SENSOR_FIELDS.index("o2_percent")
    for _ in range(500):
        sample = next(env)
        assert 760.0 <= sample[co2] <= 840.0
        assert 19.855 <= sample[o2] <= 21.945


# -- healthy operation ------------------------------------------------------------


def test_healthy_primary_transmits_and_secondary_stays_quiet():
    sim, gw, primary, secondary = build_node(seed=1)
    primary.start()
    secondary.start()
    sim.run_until(ms_to_us(300_000))
    primary_data = gw.data(BoardRole.PRIMARY)
    assert len(primary_data) >= 9  # ~12 slots in 5 min, some retransmissions
    assert all(p.reading is not None and p.reading.is_complete() for p in primary_data)
    assert gw.data(BoardRole.SECONDARY) == []


def test_secondary_heartbeats_on_schedule():
    sim, gw, primary, secondary = build_node(seed=1)
    primary.start()
    secondary.start()
    sim.run_until(ms_to_us(600_000))
    beats = [t for p, _, t in gw.heard if p.kind is PacketKind.HEARTBEAT]
    # Sent every 60 s; a beat sharing the grid with a primary frame can be
    # lost to collision, so delivery is a subset of the 60 s schedule.
    assert len(beats) >= 6
    for t in beats:
        assert (t - beats[0]) % 60_000_000 == 0


def test_deferred_send_is_tracked_by_the_mac():
    # The second frame waits for the board's first to leave the air; the
    # board sends it without an ack timer, so the MAC must queue it.
    sim, gw, primary, _ = build_node(with_secondary=False)
    first, second = (
        Packet(kind=PacketKind.DATA, node_id="n1", board_role=BoardRole.PRIMARY, seq=seq, size_bytes=76)
        for seq in (1, 2)
    )
    primary.mac.on_emergency(first)
    primary.mac.on_emergency(second)
    assert len(primary.mac.queue) == 1
    sim.run_until(ms_to_us(1_000))
    assert [(p.seq, t) for p, _, t in gw.heard] == [(1, 138_496), (2, 276_993)]
    assert primary.mac.queue.pop() is second


# -- hard failure -----------------------------------------------------------------

HARD = FaultSpec(kind=FaultKind.HARD_FAILURE, target="n1.primary", start_ms=120_000, end_ms=480_000)


def test_hard_failure_silences_primary_and_triggers_backups():
    sim, gw, primary, secondary = build_node(faults=[HARD], seed=2)
    primary.start()
    secondary.start()
    sim.run_until(ms_to_us(600_000))
    outage = [
        p
        for p, _, t in gw.heard
        if p.kind is PacketKind.DATA and 120_000_000 < t <= 480_000_000
    ]
    assert all(p.board_role is BoardRole.SECONDARY for p in outage)
    # Watchdog cadence ~38.5 s over a 6 min outage.
    assert 8 <= len(outage) <= 10
    assert all(not p.corrective for p in outage)


def test_backup_gaps_stay_under_monitoring_bound():
    sim, gw, primary, secondary = build_node(faults=[HARD], seed=2)
    primary.start()
    secondary.start()
    sim.run_until(ms_to_us(600_000))
    data_times = [t for p, _, t in gw.heard if p.kind is PacketKind.DATA]
    gaps = [b - a for a, b in zip(data_times, data_times[1:])]
    assert max(gaps) <= ms_to_us(40_000)


def test_primary_resumes_after_fault_and_watchdog_requiesces():
    sim, gw, primary, secondary = build_node(faults=[HARD], seed=2)
    primary.start()
    secondary.start()
    sim.run_until(ms_to_us(900_000))
    late_secondary = [
        p
        for p, _, t in gw.heard
        if p.kind is PacketKind.DATA
        and p.board_role is BoardRole.SECONDARY
        and t > 560_000_000
    ]
    late_primary = [
        p
        for p, _, t in gw.heard
        if p.kind is PacketKind.DATA and p.board_role is BoardRole.PRIMARY and t > 480_000_000
    ]
    assert late_primary
    assert late_secondary == []


def test_down_board_builds_and_sends_nothing():
    # HF on a quiet channel, plus an outage of the spare that covers the end
    # of the primary's outage and runs past it.  No acks, so the MAC queue is
    # full when the primary goes down.
    cfg = build_preset("HF")
    spare_down = FaultSpec(FaultKind.HARD_FAILURE, "n1.secondary", 1_200_000, 1_700_000)
    cfg = replace(
        cfg,
        noise=replace(cfg.noise, enabled=False),
        gateways=(replace(cfg.gateways[0], acks_enabled=False),),
        faults=cfg.faults + (spare_down,),
    )
    run = Simulation(cfg, seed=1)
    primary, mac = run.primaries["n1"], run.primaries["n1"].mac
    boards = {b.entity_id: b for b in (primary, run.secondaries["n1"])}
    outages = {f.target: f for f in cfg.faults}
    assert set(outages) == set(boards)

    on_air = []  # (time_us, source id, packet)
    begin = run.channel.begin_transmission

    def record(source_id, position, packet, tx_power_dbm):
        on_air.append((run.sim.now_us, source_id, packet))
        return begin(source_id, position, packet, tx_power_dbm)

    run.channel.begin_transmission = record
    # Per board, at 1 s steps through its outage: (powered, MAC queue length,
    # ack pending) of the node's one MAC.
    probes = {target: [] for target in outages}

    def probe(board):
        probes[board.entity_id].append((board.is_powered(), len(mac.queue), mac._pending is not None))

    for target, fault in outages.items():
        for t_ms in range(fault.start_ms, fault.end_ms, 1_000):
            run.sim.schedule_at(ms_to_us(t_ms), lambda b=boards[target]: probe(b))
    queued_before = []
    down_us = ms_to_us(outages[primary.entity_id].start_ms)
    run.sim.schedule_at(down_us - 1, lambda: queued_before.append(len(mac.queue)))
    run.run()

    assert queued_before == [mac.cfg.queue_capacity]
    assert [len(p) for p in probes.values()] == [1_200, 500]
    assert not any(powered for p in probes.values() for powered, _, _ in p)
    assert not any(queued or pending for _, queued, pending in probes[primary.entity_id])
    for source, fault in outages.items():
        times = [t for t, s, _ in on_air if s == source]
        assert not [t for t in times if active(fault, t / 1000)]
        assert min(times) < ms_to_us(fault.start_ms) and max(times) >= ms_to_us(fault.end_ms)
        # A down board uses up no seq: the on-air seqs run 1, 2, ... unbroken.
        seqs = {p.seq for _, s, p in on_air if s == source}
        assert seqs == set(range(1, max(seqs) + 1))


# -- sensor faults ----------------------------------------------------------------

SF_READ = FaultSpec(
    kind=FaultKind.SENSOR_READ_FAILURE,
    target="n1.primary",
    start_ms=120_000,
    end_ms=480_000,
    affected_sensor="co2_ppm",
)
SF_ANOM = FaultSpec(
    kind=FaultKind.SENSOR_ANOMALY,
    target="n1.primary",
    start_ms=120_000,
    end_ms=480_000,
    affected_sensor="co2_ppm",
    anomaly_multiplier=1.5,
)


def test_read_failure_produces_incomplete_packets_and_correctives():
    sim, gw, primary, secondary = build_node(faults=[SF_READ], seed=3)
    primary.start()
    secondary.start()
    sim.run_until(ms_to_us(600_000))
    faulty = [
        p
        for p, _, t in gw.heard
        if p.kind is PacketKind.DATA
        and p.board_role is BoardRole.PRIMARY
        and 120_000_000 < t <= 480_000_000
    ]
    co2 = SENSOR_FIELDS.index("co2_ppm")
    assert faulty and all(np.flatnonzero(np.isnan(p.reading.values)).tolist() == [co2] for p in faulty)
    correctives = [p for p, _, _ in gw.heard if p.kind is PacketKind.DATA and p.corrective]
    assert correctives
    assert all(p.board_role is BoardRole.SECONDARY for p in correctives)
    assert all(p.reading.is_complete() for p in correctives)


def test_anomaly_fault_detected_by_secondary_comparison():
    sim, gw, primary, secondary = build_node(faults=[SF_ANOM], seed=4)
    primary.start()
    secondary.start()
    sim.run_until(ms_to_us(600_000))
    anomalous = [
        p
        for p, _, t in gw.heard
        if p.kind is PacketKind.DATA
        and p.board_role is BoardRole.PRIMARY
        and 120_000_000 < t <= 480_000_000
    ]
    assert anomalous and all("anomaly:co2_ppm" in p.reading.fault_tags for p in anomalous)
    # The 1.5x offset exceeds the 25 % comparison threshold.
    correctives = [p for p, _, _ in gw.heard if p.kind is PacketKind.DATA and p.corrective]
    assert correctives


def test_fault_windows_in_microseconds_agree_with_fault_active():
    down = FaultSpec(FaultKind.HARD_FAILURE, "n1.primary", 100_000, 200_000)
    down_again = FaultSpec(FaultKind.HARD_FAILURE, "n1.primary", 200_000, 300_000)
    unread = FaultSpec(
        FaultKind.SENSOR_READ_FAILURE, "n1.secondary", 100_000, 200_000, affected_sensor="co2_ppm"
    )
    skewed = FaultSpec(FaultKind.SENSOR_ANOMALY, "n1.secondary", 200_000, 300_000, affected_sensor="o2_percent")
    faults = (down, down_again, unread, skewed)
    sim, _, primary, secondary = build_node(faults=faults, seed=5)
    # The same streams with no fault: its readings are the faulty ones' values.
    clean_sim, _, _, clean = build_node(seed=5)
    co2, o2 = SENSOR_FIELDS.index("co2_ppm"), SENSOR_FIELDS.index("o2_percent")
    # Each window's first and last microsecond, and the one either side.
    edges_us = {ms_to_us(edge) for f in faults for edge in (f.start_ms, f.end_ms)}
    for now_us in sorted(t for edge in edges_us for t in (edge - 1, edge)):
        sim.now_us = clean_sim.now_us = now_us
        t_ms = now_us / 1000
        assert primary.is_powered() is not (active(down, t_ms) or active(down_again, t_ms))
        reading, truth = secondary.sense(), clean.sense().values
        assert math.isnan(reading.values[co2]) is active(unread, t_ms)
        o2_factor = skewed.anomaly_multiplier if active(skewed, t_ms) else 1.0
        assert reading.values[o2] == truth[o2] * o2_factor
        others = [i for i in range(len(SENSOR_FIELDS)) if i not in (co2, o2)]
        assert reading.values[others].tobytes() == truth[others].tobytes()
        expected_tags = {"read_failure:co2_ppm"} if active(unread, t_ms) else set()
        expected_tags |= {"anomaly:o2_percent"} if active(skewed, t_ms) else set()
        assert reading.fault_tags == expected_tags


def test_correctives_rate_limited_to_sensing_interval():
    sim, gw, primary, secondary = build_node(faults=[SF_READ], seed=5)
    primary.start()
    secondary.start()
    sim.run_until(ms_to_us(600_000))
    times = [
        t
        for p, _, t in gw.heard
        if p.kind is PacketKind.DATA and p.board_role is BoardRole.SECONDARY
    ]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps and min(gaps) >= ms_to_us(35_000)


def test_secondary_hard_failure_silences_backups():
    sec_fault = FaultSpec(
        kind=FaultKind.HARD_FAILURE, target="n1.secondary", start_ms=0, end_ms=600_000
    )
    sim, gw, primary, secondary = build_node(faults=[HARD, sec_fault], seed=6)
    primary.start()
    secondary.start()
    sim.run_until(ms_to_us(600_000))
    assert gw.data(BoardRole.SECONDARY) == []


def test_emergency_threshold_fires_outside_slots():
    # 1.3 x the ~20.9 % ambient O2 is above the 23 % emergency bound.
    o2_high = FaultSpec(
        kind=FaultKind.SENSOR_ANOMALY,
        target="n1.primary",
        start_ms=0,
        end_ms=600_000,
        affected_sensor="o2_percent",
        anomaly_multiplier=1.3,
    )
    sim, gw, primary, _ = build_node(faults=[o2_high], seed=7, with_secondary=False)
    primary.start()
    sim.run_until(ms_to_us(20_000))
    emergencies = [p for p, _, _ in gw.heard if p.emergency]
    assert emergencies  # fired from the 5 s sensing poll, before the first slot
    assert all(p.reading.fault_tags == {"anomaly:o2_percent"} for p in emergencies)


# -- array readings against the per-field scalar path -----------------------------


def reference_walk(rng):
    """The per-field scalar walk the array draw replaced: one step per
    field, each clamped to +-5 % of nominal."""
    truth = {name: row[0] for name, row in SENSOR_TABLE.items()}
    while True:
        for name, (nominal, sigma, _, _) in SENSOR_TABLE.items():
            v = truth[name] + float(rng.normal(0.0, sigma))
            truth[name] = min(max(v, nominal * (1 - 0.05)), nominal * (1 + 0.05))
        yield [truth[name] for name in SENSOR_FIELDS]


def reference_readings(seed, faults, times_ms):
    """The per-field scalar path the array readings replaced: the board
    draws one noise factor per field, then each field's faults apply in
    list order.  A field that could not be read stays missing under an
    anomaly (the scalar path crashed there)."""
    walk = reference_walk(stream_rng(seed, "n1-environment"))
    sense_rng = stream_rng(seed, "n1.primary-sensor")
    readings = []
    for t_ms in times_ms:
        if any(f.kind is FaultKind.HARD_FAILURE and active(f, t_ms) for f in faults):
            readings.append(None)
            continue
        values, tags = [], set()
        for name, true_value in zip(SENSOR_FIELDS, next(walk)):
            v = true_value * (1.0 + float(sense_rng.normal(0.0, 0.005)))
            for fault in faults:
                if fault.affected_sensor != name or not active(fault, t_ms):
                    continue
                if fault.kind is FaultKind.SENSOR_READ_FAILURE:
                    v = None
                    tags.add(f"read_failure:{name}")
                elif fault.kind is FaultKind.SENSOR_ANOMALY:
                    v = None if v is None else v * fault.anomaly_multiplier
                    tags.add(f"anomaly:{name}")
            values.append(math.nan if v is None else v)
        readings.append((values, tags))
    return readings


def test_environment_matches_the_per_field_walk():
    env = Environment(stream_rng(11, "env"))
    walk = reference_walk(stream_rng(11, "env"))
    samples = np.array([next(env) for _ in range(3_000)])
    np.testing.assert_array_equal(samples, [next(walk) for _ in range(3_000)])
    lo, hi = samples.min(axis=0), samples.max(axis=0)
    co2 = SENSOR_FIELDS.index("co2_ppm")
    assert (lo[co2], hi[co2]) == (800.0 * (1 - 0.05), 800.0 * (1 + 0.05))  # the clamp is exercised


def sensor_fault(kind, sensor, start_s, end_s, multiplier=1.5):
    return FaultSpec(kind, "n1.primary", start_s * 1000, end_s * 1000, sensor, multiplier)


READ, ANOM = FaultKind.SENSOR_READ_FAILURE, FaultKind.SENSOR_ANOMALY
MIXED_FAULTS = [
    sensor_fault(READ, "co2_ppm", 60, 300),
    sensor_fault(ANOM, "o2_percent", 120, 400, 1.3),
    # Both kinds on one field, overlapping, in either list order.
    sensor_fault(READ, "temp_c_1", 150, 350),
    sensor_fault(ANOM, "temp_c_1", 250, 450),
    sensor_fault(ANOM, "humidity_pct_2", 200, 500, 0.6),
    sensor_fault(READ, "humidity_pct_2", 300, 420),
    # Two anomalies on one field; rounding depends on their order.
    sensor_fault(ANOM, "co_ppm", 100, 200, 1.7),
    sensor_fault(ANOM, "co_ppm", 150, 250, 1.3),
    # Only sensor faults name a field.
    FaultSpec(FaultKind.HARD_FAILURE, "n1.primary", 520_000, 540_000, "not-a-field"),
]


@pytest.mark.parametrize("seed", range(5))
def test_array_readings_match_the_per_field_path(seed):
    times_ms = list(range(0, 600_000, 5_000))
    sim, _, primary, _ = build_node(faults=MIXED_FAULTS, seed=seed, with_secondary=False)
    expected = reference_readings(seed, MIXED_FAULTS, times_ms)
    for t_ms, want in zip(times_ms, expected):
        sim.run_until(ms_to_us(t_ms))
        if want is None:
            assert not primary.is_powered()
            continue
        reading = primary.sense()
        values, tags = want
        np.testing.assert_array_equal(reading.values, values)
        assert reading.fault_tags == tags
    assert sum(w is None for w in expected) == 4


# -- block draws against one draw per reading ---------------------------------------

NOMINAL = np.array([row[0] for row in SENSOR_TABLE.values()])
WALK_STEP = np.array([row[1] for row in SENSOR_TABLE.values()])


class PerCallEnvironment:
    """The environment stream as it was before block draws: one normal draw
    per step, clamped to +-5 % of nominal."""

    def __init__(self, rng):
        self._rng = rng
        self._values = NOMINAL

    def __next__(self):
        step = self._rng.normal(0.0, WALK_STEP)
        self._values = np.minimum(np.maximum(self._values + step, NOMINAL * 0.95), NOMINAL * 1.05)
        return self._values


def per_call_sense(env, rng, faults, entity_id, t_ms):
    """_RadioBoard.sense as it was before block draws: one noise draw per
    reading, then the board's sensor faults in list order."""
    values = next(env) * (1.0 + rng.normal(0.0, 0.005, len(SENSOR_FIELDS)))
    tags = set()
    for fault in faults:
        if fault.target != entity_id or fault.kind not in (READ, ANOM) or not active(fault, t_ms):
            continue
        i = SENSOR_FIELDS.index(fault.affected_sensor)
        if fault.kind is READ:
            values[i] = np.nan
            tags.add(f"read_failure:{fault.affected_sensor}")
        else:
            values[i] *= fault.anomaly_multiplier
            tags.add(f"anomaly:{fault.affected_sensor}")
    return values, frozenset(tags)


SECONDARY_FAULTS = [
    replace(sensor_fault(ANOM, "co2_ppm", 90, 330, 0.7), target="n1.secondary"),
    replace(sensor_fault(READ, "pressure_hpa", 200, 260), target="n1.secondary"),
]


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**16),
    faults=st.sampled_from([(), tuple(MIXED_FAULTS + SECONDARY_FAULTS)]),
    # 100 readings per board cross three refills of its 32-row noise block;
    # the shared walk, which also steps for direct samples, crosses seven.
    order=st.permutations(["primary"] * 100 + ["secondary"] * 100 + ["env"] * 40),
)
def test_block_draws_match_one_draw_per_reading(seed, faults, order):
    sim, _, primary, secondary = build_node(faults=faults, seed=seed)
    env = PerCallEnvironment(stream_rng(seed, "n1-environment"))
    sense_rngs = {b.entity_id: stream_rng(seed, f"{b.entity_id}-sensor") for b in (primary, secondary)}
    boards = {"primary": primary, "secondary": secondary}
    got, want = [], []
    for k, reader in enumerate(order):
        sim.run_until(ms_to_us(2_500 * k))
        if reader == "env":
            # Kept, not copied: a later refill must not write into it.
            got.append((next(primary.env), frozenset()))
            want.append((next(env), frozenset()))
            continue
        board = boards[reader]
        reading = board.sense()
        got.append((reading.values, reading.fault_tags))
        want.append(per_call_sense(env, sense_rngs[board.entity_id], faults, board.entity_id, 2_500 * k))
    assert [(v.tobytes(), tags) for v, tags in got] == [(v.tobytes(), tags) for v, tags in want]


# -- the walk one block at a time, and the in_bounds mark ---------------------------

WALK_LO, WALK_HI = NOMINAL * 0.95, NOMINAL * 1.05
EMERGENCY_LO = np.array([row[2] for row in SENSOR_TABLE.values()])
EMERGENCY_HI = np.array([row[3] for row in SENSOR_TABLE.values()])


def reference_block(values, steps):
    """One step at a time, as the walk stepped before block sums."""
    rows = []
    for step in steps:
        values = np.minimum(np.maximum(values + step, WALK_LO), WALK_HI)
        rows.append(values)
    return np.array(rows)


@settings(deadline=None, max_examples=150)
@given(
    start=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=12, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 0.05, 0.5, 2.0]),
    # (row, column, size in band widths): a kick of one width or more clamps.
    kicks=st.lists(st.tuples(st.integers(0, 31), st.integers(0, 11), st.floats(-3.0, 3.0)), max_size=6),
    pinned=st.sets(st.integers(0, 11), max_size=3),
)
def test_walk_block_matches_one_step_at_a_time(start, seed, scale, kicks, pinned):
    width = WALK_HI - WALK_LO
    values = WALK_LO + np.array(start) * width
    steps = np.random.default_rng(seed).normal(0.0, scale * width, size=(32, 12))
    for row, column, size in kicks:
        steps[row, column] = size * width[column]
    for column in pinned:  # every step leaves the band: every row clamps
        steps[:, column] = np.where(np.arange(32) % 2, 2.0, -2.0) * width[column]
    got = boards._walk_block(values, steps)
    assert got.tobytes() == reference_block(values, steps).tobytes()
    assert ((WALK_LO <= got) & (got <= WALK_HI)).all()


@pytest.mark.parametrize(
    "clamped",
    [[(0, 0)], [(31, 0)], [(0, 1), (5, 3), (31, 11)], [(i, 2) for i in range(32)]],
    ids=["first-row", "last-row", "several-columns", "pinned-column"],
)
def test_walk_block_clamps_where_one_step_at_a_time_does(clamped):
    steps = np.random.default_rng(4).normal(0.0, WALK_STEP, size=(32, 12))
    for row, column in clamped:
        steps[row, column] = (-1) ** row * (WALK_HI - WALK_LO)[column]
    want = reference_block(NOMINAL, steps)
    assert all(want[row, column] in (WALK_LO[column], WALK_HI[column]) for row, column in clamped)
    assert boards._walk_block(NOMINAL, steps).tobytes() == want.tobytes()


def test_factor_range_corners_round_inside_the_emergency_bounds():
    assert (WALK_LO * boards._FACTOR_LO >= EMERGENCY_LO).all()
    assert (WALK_HI * boards._FACTOR_HI <= EMERGENCY_HI).all()
    # Nearly every reading is marked: the range spans 4.9 sigma of the noise.
    assert boards._FACTOR_LO.max() < 1 - 4.9 * 0.005 and boards._FACTOR_HI.min() > 1 + 4.9 * 0.005


def test_a_factor_one_ulp_outside_the_range_leaves_its_row_unmarked():
    rows = np.ones((4 * 12 + 1, 12))
    for j in range(12):
        rows[4 * j, j] = boards._FACTOR_LO[j]
        rows[4 * j + 1, j] = boards._FACTOR_HI[j]
        rows[4 * j + 2, j] = np.nextafter(boards._FACTOR_LO[j], -np.inf)
        rows[4 * j + 3, j] = np.nextafter(boards._FACTOR_HI[j], np.inf)
    marked = boards._in_factor_range(rows).tolist()
    assert marked == [True, True, False, False] * 12 + [True]


def factor_in_range(j):
    lo, hi = float(boards._FACTOR_LO[j]), float(boards._FACTOR_HI[j])
    ends = [lo, hi, -0.0] if lo == 0.0 else [lo, hi]
    return st.sampled_from(ends) | st.floats(lo, hi)


@settings(deadline=None, max_examples=300)
@given(
    walk=st.tuples(*(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0) for _ in range(12))),
    factors=st.tuples(*(factor_in_range(j) for j in range(12))),
)
def test_marked_readings_cannot_cross_a_bound(walk, factors):
    row = np.minimum(WALK_LO + np.array(walk) * (WALK_HI - WALK_LO), WALK_HI)
    factors = np.array(factors)
    assert boards._in_factor_range(factors[np.newaxis]).tolist() == [True]
    # The full loop, on a reading that does not carry the mark.
    assert not check_thresholds(SensorReading(row * factors))


def test_only_readings_no_fault_touched_are_marked_in_bounds():
    fault = sensor_fault(ANOM, "co2_ppm", 60, 120, 1.01)
    sim, _, primary, secondary = build_node(faults=[fault])
    marks = []
    for t_s in (0, 59, 60, 119, 120, 300):
        sim.run_until(ms_to_us(t_s * 1000))
        marks.append((primary.sense().in_bounds, secondary.sense().in_bounds))
    assert marks == [(True, True), (True, True), (False, True), (False, True), (True, True), (True, True)]
    assert all(primary.sense().in_bounds for _ in range(500))


# -- streams as cursors, and the sensing poll's fast path ----------------------------


@pytest.mark.parametrize("stream", [boards.Environment, boards._NoiseFactors], ids=["walk", "noise"])
@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), skips=st.lists(st.booleans(), min_size=100, max_size=100))
def test_skip_equals_a_discarded_next(stream, seed, skips):
    # 100 rows cross three refills of a 32-row block.
    got, want = stream(np.random.default_rng(seed)), stream(np.random.default_rng(seed))
    kept = []
    for skip in skips:
        if stream is boards._NoiseFactors:
            assert got.in_range() is want.in_range()
        wanted = next(want)
        if skip:
            got.skip()
        else:
            kept.append((next(got), wanted.copy()))
    # A kept row is a view that no later refill has written into.
    assert all(row.tobytes() == wanted.tobytes() for row, wanted in kept)
    assert next(got).tobytes() == next(want).tobytes()


def test_standard_normal_times_scale_is_the_normal_draw_bit_for_bit():
    for scale in (WALK_STEP, 0.005):
        fast, slow = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(3_000):
            got = fast.standard_normal((32, 12)) * scale
            want = slow.normal(0.0, scale, (32, 12))
            assert (got.view(np.int64) == want.view(np.int64)).all()


class EmergencyRecorder:
    """Stands in for the primary's MAC: keeps each emergency frame."""

    def __init__(self):
        self.frames = []

    def on_emergency(self, packet):
        self.frames.append(packet)


def reference_poll(board):
    """PrimaryBoard._sensing_poll, less its rescheduling, as it was before its
    fast path: every powered poll builds a reading and checks its bounds."""
    if not board.is_powered():
        board._in_emergency = False
        return
    crossed = check_thresholds(board.sense())
    if crossed and not board._in_emergency:
        board.mac.on_emergency(board.data_packet(emergency=True))
    board._in_emergency = crossed


def frame_key(packet):
    if packet is None:
        return None
    return packet.seq, packet.emergency, packet.reading.values.tobytes(), packet.reading.fault_tags


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**16),
    # After each 5 s poll: data packets, secondary readings and walk steps.
    between=st.lists(st.lists(st.sampled_from(["data", "secondary", "env"]), max_size=3), min_size=125, max_size=125),
)
def test_fast_path_polls_match_polls_that_build_every_reading(seed, between):
    # MIXED_FAULTS: an O2 x 1.3 anomaly over 120-400 s crosses the 23 %
    # bound; a hard failure over 520-540 s; sensor faults on other fields.
    faults = tuple(MIXED_FAULTS + SECONDARY_FAULTS)
    runs = []
    for poll in (PrimaryBoard._sensing_poll, reference_poll):
        sim, _, primary, secondary = build_node(faults=faults, seed=seed)
        primary.mac = EmergencyRecorder()
        built = []

        def counted_sense(sense=primary.sense):
            built.append(sim.now_us)
            return sense()

        primary.sense = counted_sense
        trail = []
        for k, ops in enumerate(between):
            # Set the clock instead of running the loop, so only these calls run.
            sim.now_us = ms_to_us(5_000 * k)
            poll(primary)
            trail.append(primary._in_emergency)
            for op in ops:
                sim.now_us += ms_to_us(1_000)
                if op == "data":
                    trail.append(frame_key(primary.data_packet()))
                elif op == "secondary":
                    trail.append(secondary.sense().values.tobytes())
                else:
                    trail.append(next(primary.env).tobytes())
        sim.now_us = ms_to_us(700_000)
        trail += [(primary.sense().values.tobytes(), secondary.sense().values.tobytes()) for _ in range(40)]
        runs.append((trail, [frame_key(p) for p in primary.mac.frames], len(built)))
    (trail, emergencies, built), (want_trail, want_emergencies, want_built) = runs
    assert trail == want_trail and emergencies == want_emergencies
    assert len(emergencies) == 1 and emergencies[0][3] >= {"anomaly:o2_percent"}
    assert trail.count(True) == 56  # every poll over 120-395 s
    # The 33 powered polls that no sensor fault touches take the fast path,
    # but for the rare one whose noise could carry a value past a bound.
    assert 30 <= want_built - built <= 33
