import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redwsn import boards, simulation
from redwsn.boards import (
    FaultKind,
    FaultSpec,
    NodeConfig,
    PrimaryBoard,
    SecondaryBoard,
    SecondaryConfig,
)
from redwsn.channel import Channel, ChannelParams, Position
from redwsn.engine import Simulator, in_windows, ms_to_us, stream_rng
from redwsn.mac import SarbConfig
from redwsn.metrics import MetricsReport
from redwsn.packets import (
    DATA_BYTES,
    NO_FAULT_TAGS,
    SENSOR_FIELDS,
    SENSOR_TABLE,
    BoardRole,
    Packet,
    PacketKind,
    SensorReading,
    check_thresholds,
    detect_anomaly,
)
from redwsn.scenario import build_preset, report_to_json
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


class StreamsSimulator(Simulator):
    """A Simulator that keeps each stream it hands out, by label."""

    def __init__(self, master_seed):
        super().__init__(master_seed)
        self.streams = {}

    def rng(self, stream_id):
        rng = self.streams[stream_id] = super().rng(stream_id)
        return rng


def build_node(faults=(), seed=0, with_secondary=True, secondary_cfg=SecondaryConfig(), mac_cfg=SarbConfig()):
    sim = StreamsSimulator(master_seed=seed)
    channel = Channel(sim, params=ChannelParams(shadowing_sigma_db=0.0))
    gw = GatewayProbe()
    channel.add_receiver(gw)
    node = NodeConfig(id="n1")
    primary = PrimaryBoard(sim, channel, node, tuple(faults), mac_cfg)
    secondary = None
    if with_secondary:
        secondary = SecondaryBoard(sim, channel, node, tuple(faults), secondary_cfg)
    return sim, gw, primary, secondary


def active(fault, t_ms):
    """The reference window: a fault is active over [start_ms, end_ms)."""
    return fault.start_ms <= t_ms < fault.end_ms


def bits(values):
    """The IEEE doubles of a reading's values (or an array of them), byte for
    byte: a NaN equals a NaN with the same bits, and 0.0 differs from -0.0."""
    return struct.pack(f"{len(values)}d", *values)


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
    with pytest.raises(ValueError, match="start_ms"):
        FaultSpec(kind=FaultKind.HARD_FAILURE, target="n1.primary", start_ms=100.0004, end_ms=200)


def test_threshold_check_ignores_missing_fields():
    values = [math.nan] * len(SENSOR_FIELDS)
    assert not check_thresholds(SensorReading(values=tuple(values)))
    values[SENSOR_FIELDS.index("co2_ppm")] = 5_000.0
    assert check_thresholds(SensorReading(values=tuple(values)))


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


def test_boards_build_the_frames_the_keyword_constructor_does():
    sim, gw, primary, secondary = build_node(seed=1)
    flags = [(False, False), (True, False), (False, True)]
    frames = [primary.data_packet(emergency=e, corrective=c) for e, c in flags]
    for seq, ((emergency, corrective), frame) in enumerate(zip(flags, frames), start=1):
        assert type(frame) is Packet and type(frame.reading) is SensorReading
        assert frame.reading.fault_tags is NO_FAULT_TAGS
        expected = Packet(
            kind=PacketKind.DATA,
            node_id="n1",
            board_role=BoardRole.PRIMARY,
            seq=seq,
            size_bytes=DATA_BYTES,
            reading=SensorReading(values=frame.reading.values),
            emergency=emergency,
            corrective=corrective,
        )
        assert frame._asdict() == expected._asdict()
    secondary.start()
    sim.run_until(ms_to_us(61_000))  # the first beat goes out at 60 s
    [beat] = [p for p, _, _ in gw.heard if p.kind is PacketKind.HEARTBEAT]
    # Its seq follows the watchdog's substitute at 35 s.
    expected = Packet(kind=PacketKind.HEARTBEAT, node_id="n1", board_role=BoardRole.SECONDARY, seq=2, size_bytes=12)
    assert type(beat) is Packet and beat._asdict() == expected._asdict()


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
        assert [reading.values[i].hex() for i in others] == [truth[i].hex() for i in others]
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




# -- readings against the per-field scalar path -----------------------------------

NOMINAL = np.array([nominal for nominal, _, _ in SENSOR_TABLE.values()])
CLIP = 0.03  # 6 sigma of the 0.5 % sensor noise


def clipped_factor(rng):
    """One field's noise factor, drawn alone and clipped at +-6 sigma."""
    return 1.0 + min(max(float(rng.normal(0.0, 0.005)), -CLIP), CLIP)


def reference_readings(seed, faults, times_ms):
    """The per-field scalar path the array readings replaced: the board
    draws one clipped noise factor per field, then each field's faults
    apply in list order.  A field that could not be read stays missing
    under an anomaly (the scalar path crashed there)."""
    sense_rng = stream_rng(seed, "n1.primary-sensor")
    readings = []
    for t_ms in times_ms:
        if any(f.kind is FaultKind.HARD_FAILURE and active(f, t_ms) for f in faults):
            readings.append(None)
            continue
        values, tags = [], set()
        for name, nominal in zip(SENSOR_FIELDS, NOMINAL.tolist()):
            v = nominal * clipped_factor(sense_rng)
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


def sensor_fault(kind, sensor, start_s, end_s, multiplier=1.5, target="n1.primary"):
    return FaultSpec(kind, target, round(start_s * 1000), round(end_s * 1000), sensor, multiplier)


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


def test_every_reading_is_a_tuple_of_python_floats():
    # Read failures and anomalies on both boards; at this threshold the
    # secondary builds a reading for every data frame it overhears.
    faults = [*MIXED_FAULTS, *SECONDARY_FAULTS]
    sim, _, primary, secondary = build_node(faults, seed=2, secondary_cfg=SecondaryConfig(anomaly_rel_threshold=0.01))
    built = []
    for board in (primary, secondary):

        def recorded(values, now_us, build=board._reading, role=board.role):
            reading = build(values, now_us)
            built.append((role, reading))
            return reading

        board._reading = recorded
    primary.start()
    secondary.start()
    sim.run_until(ms_to_us(600_000))
    assert all(type(r.values) is tuple and len(r.values) == len(SENSOR_FIELDS) for _, r in built)
    assert all(type(v) is float for _, r in built for v in r.values)
    kinds = {(role, tag.split(":")[0]) for role, r in built for tag in r.fault_tags}
    roles = (BoardRole.PRIMARY, BoardRole.SECONDARY)
    assert kinds == {(role, kind) for role in roles for kind in ("read_failure", "anomaly")}
    assert any(not r.is_complete() for _, r in built)


# -- block draws against one draw per reading ---------------------------------------


def per_call_sense(rng, faults, entity_id, t_ms):
    """_RadioBoard.sense as it was before block draws: one noise draw per
    reading, clipped, then the board's sensor faults in list order."""
    values = NOMINAL * (1.0 + np.clip(rng.normal(0.0, 0.005, len(SENSOR_FIELDS)), -CLIP, CLIP))
    return apply_faults(values, faults, entity_id, t_ms)


def apply_faults(values, faults, entity_id, t_ms):
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
    sensor_fault(ANOM, "co2_ppm", 90, 330, 0.7, target="n1.secondary"),
    sensor_fault(READ, "pressure_hpa", 200, 260, target="n1.secondary"),
]


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**16),
    faults=st.sampled_from([(), tuple(MIXED_FAULTS + SECONDARY_FAULTS)]),
    # 100 readings per board cross three refills of its 32-row noise block.
    order=st.permutations(["primary"] * 100 + ["secondary"] * 100),
)
def test_block_draws_match_one_draw_per_reading(seed, faults, order):
    sim, _, primary, secondary = build_node(faults=faults, seed=seed)
    sense_rngs = {b.entity_id: stream_rng(seed, f"{b.entity_id}-sensor") for b in (primary, secondary)}
    boards = {"primary": primary, "secondary": secondary}
    got, want = [], []
    for k, reader in enumerate(order):
        sim.run_until(ms_to_us(2_500 * k))
        board = boards[reader]
        reading = board.sense()
        got.append((reading.values, reading.fault_tags))
        want.append(per_call_sense(sense_rngs[board.entity_id], faults, board.entity_id, 2_500 * k))
    assert [(bits(v), tags) for v, tags in got] == [(bits(v), tags) for v, tags in want]


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**16),
    faults=st.sampled_from([(), tuple(MIXED_FAULTS + SECONDARY_FAULTS)]),
    # Each step is a run of readings on one board; a run can be longer than
    # one 32-row noise block, or two, and a board may never read.
    steps=st.lists(st.tuples(st.sampled_from(["primary", "secondary"]), st.integers(1, 80)), max_size=12),
)
@example(seed=3, faults=(), steps=[("secondary", 70), ("primary", 33), ("primary", 1)])
@example(seed=4, faults=(), steps=[("secondary", 32), ("secondary", 32), ("secondary", 1)])
@example(seed=5, faults=(), steps=[("primary", 1), ("primary", 31), ("primary", 1)])
def test_rows_are_drawn_only_for_readings_and_each_is_one_draw_per_reading(seed, faults, steps):
    sim, _, primary, secondary = build_node(faults=faults, seed=seed)
    boards_by_role = {"primary": primary, "secondary": secondary}
    sense_rngs = {role: stream_rng(seed, f"n1.{role}-sensor") for role in boards_by_role}
    got, want = [], []
    for k, (role, readings) in enumerate(steps):
        sim.run_until(ms_to_us(2_500 * k))
        board, rng = boards_by_role[role], sense_rngs[role]
        for _ in range(readings):
            reading = board.sense()
            got.append((reading.values, reading.fault_tags))
            want.append(per_call_sense(rng, faults, board.entity_id, 2_500 * k))
    assert [(bits(v), tags) for v, tags in got] == [(bits(v), tags) for v, tags in want]
    # A board that never reads has drawn nothing.
    for role in boards_by_role.keys() - {role for role, _ in steps}:
        fresh = stream_rng(seed, f"n1.{role}-sensor")
        assert sim.streams[f"n1.{role}-sensor"].bit_generator.state == fresh.bit_generator.state


def test_a_secondary_that_only_overhears_draws_no_noise():
    # At the default threshold clipped noise cannot flag a reading, so the
    # secondary builds no reading for the data frames it overhears.
    sim, gw, primary, secondary = build_node(seed=11)
    verdicts = []
    is_faulty = secondary._is_faulty
    secondary._is_faulty = lambda packet: verdicts.append(is_faulty(packet)) or verdicts[-1]
    primary.start()
    secondary.start()
    sim.run_until(ms_to_us(1_200_000))
    assert not gw.data(BoardRole.SECONDARY)
    assert len(verdicts) > 2 * boards._BLOCK_ROWS and not any(verdicts)
    fresh = stream_rng(11, "n1.secondary-sensor")
    assert sim.streams["n1.secondary-sensor"].bit_generator.state == fresh.bit_generator.state


def test_standard_normal_times_scale_is_the_normal_draw_bit_for_bit():
    fast, slow = np.random.default_rng(21), np.random.default_rng(21)
    for _ in range(3_000):
        got = fast.standard_normal((32, 12)) * 0.005
        want = slow.normal(0.0, 0.005, (32, 12))
        assert (got.view(np.int64) == want.view(np.int64)).all()


# -- the clipped noise and the poll decision ----------------------------------------


class OutlierDraws:
    """Stands in for a board's generator: every draw is +-50 sigma."""

    def standard_normal(self, shape):
        return np.where(np.arange(np.prod(shape)).reshape(shape) % 2, 50.0, -50.0)


def test_noise_is_clipped_at_6_sigma():
    noise = boards._noise_rows(OutlierDraws())
    rows = [next(noise).tolist() for _ in range(40)]  # 40 rows cross a refill
    clipped = NOMINAL * np.array([1 - 0.03, 1 + 0.03] * 6)
    assert [bits(row) for row in rows] == [bits(clipped)] * 40


def poll_windows_us(faults):
    _, _, primary, _ = build_node(faults=faults, with_secondary=False)
    return primary._poll_windows_us


def crosses_at_a_clip_extreme(faults, t_ms):
    """Brute force: whether check_thresholds fires on the reading the lowest
    or the highest clipped noise makes at t_ms, faults applied."""
    return any(
        check_thresholds(SensorReading(tuple(apply_faults(NOMINAL * f, faults, "n1.primary", t_ms)[0].tolist())))
        for f in (1 - CLIP, 1 + CLIP)
    )


def multipliers_onto_a_bound(field):
    """The multipliers that put a field's value at a clip extreme exactly on
    one of its bounds, and their neighbours a few ulps either side."""
    j = SENSOR_FIELDS.index(field)
    _, lo, hi = SENSOR_TABLE[field]
    exact, near = [], []
    for f in (1 - CLIP, 1 + CLIP):
        for bound in (lo, hi):
            m = bound / (NOMINAL[j] * f)
            for _ in range(4):
                m = np.nextafter(m, -np.inf)
            for _ in range(9):
                (exact if NOMINAL[j] * f * m == bound else near).append(float(m))
                m = np.nextafter(m, np.inf)
    return exact, near


@pytest.mark.parametrize("field", SENSOR_FIELDS)
def test_poll_decision_matches_check_thresholds_at_the_clip_extremes(field):
    exact, near = multipliers_onto_a_bound(field)
    assert exact  # every field has a multiplier that lands on a bound
    decided = set()
    for m in [0.0, -1.0, 0.5, 0.97, 1.0, 1.03, 1.5, 10.0, *exact, *near]:
        fault = sensor_fault(ANOM, field, 100, 200, m)
        crosses = crosses_at_a_clip_extreme([fault], 100_000)
        assert poll_windows_us([fault]) == ([(100_000_000, 200_000_000)] if crosses else []), m
        decided.add(crosses)
    assert decided == {True, False}
    # A field that cannot be read cannot cross, whatever multiplies it.
    assert poll_windows_us([sensor_fault(ANOM, field, 100, 200, 10.0), sensor_fault(READ, field, 100, 200)]) == []


EMERGENCY_LO = np.array([lo for _, lo, _ in SENSOR_TABLE.values()])
EMERGENCY_HI = np.array([hi for _, _, hi in SENSOR_TABLE.values()])


def test_walk_band_lies_inside_emergency_bounds():
    # The bounds leave at least the +-5 % band the old habitat walk moved in
    # around each nominal value.  That band holds the +-3 % noise clip, so a
    # healthy board's readings stay inside it and only an injected anomaly
    # can cross an emergency bound.
    for name, (nominal, lo, hi) in SENSOR_TABLE.items():
        assert lo < nominal * (1 - 0.05) and nominal * (1 + 0.05) < hi, name
    assert CLIP < 0.05


def test_factor_range_corners_round_inside_the_emergency_bounds():
    # The noise factors range over the clip, [1 - 6 sigma, 1 + 6 sigma].
    lo, hi = boards._EXTREME_VALUES
    assert (bits(lo), bits(hi)) == (bits(NOMINAL * (1 - CLIP)), bits(NOMINAL * (1 + CLIP)))
    assert (np.array(lo) >= EMERGENCY_LO).all()
    assert (np.array(hi) <= EMERGENCY_HI).all()
    # So a board with no sensor fault never polls.
    assert poll_windows_us([]) == []


def factor_in_clip():
    return st.sampled_from([1 - CLIP, 1 + CLIP]) | st.floats(1 - CLIP, 1 + CLIP)


def field_and_multiplier(field):
    onto_a_bound = [m for ms in multipliers_onto_a_bound(field) for m in ms]
    multiplier = st.none() | st.sampled_from([0.0, -1.0, *onto_a_bound]) | st.floats(-2.0, 5.0)
    return st.tuples(st.just(field), multiplier)


@settings(deadline=None, max_examples=300)
@given(
    factors=st.tuples(*(factor_in_clip() for _ in range(12))),
    field_multiplier=st.sampled_from(SENSOR_FIELDS).flatmap(field_and_multiplier),
)
def test_marked_readings_cannot_cross_a_bound(factors, field_multiplier):
    field, multiplier = field_multiplier
    # A span the poll decision leaves out cannot cross, whatever noise
    # within the clip the reading draws.
    faults = [] if multiplier is None else [sensor_fault(ANOM, field, 100, 200, multiplier)]
    _, _, primary, _ = build_node(faults=faults, with_secondary=False)
    # The full loop, on the reading the board builds at the fault's start.
    reading = primary._reading((NOMINAL * np.array(factors)).tolist(), 100_000_000)
    if not primary._poll_windows_us:
        assert not check_thresholds(reading)
    elif check_thresholds(reading):
        assert primary._poll_windows_us == [(100_000_000, 200_000_000)]


# -- the windowed sensing poll against a poll every 5 s -----------------------------

POLL_US = ms_to_us(5_000)


def o2_high(start_s, end_s):
    # 1.3 x the 20.9 % nominal O2 is 27.2 %, far above the 23 % bound.
    return sensor_fault(ANOM, "o2_percent", start_s, end_s, 1.3)


def pressure_high(start_s, end_s, multiplier=1.1):
    # 1.1 x 1013 hPa is 1114.3, within 6 sigma of the 1090 hPa bound.
    return sensor_fault(ANOM, "pressure_hpa", start_s, end_s, multiplier)


def data_slot_on_the_poll_grid(seed, mac_cfg):
    """The first data slot, after 40 s, that falls on a 5 s grid point."""
    sim, _, primary, _ = build_node(seed=seed, with_secondary=False, mac_cfg=mac_cfg)
    primary.mac.start()
    sim.run_until(ms_to_us(600_000))
    return next(t for t in primary.expected_slots_us if t > 40_000_000 and t % POLL_US == 0) // 1000


def run_polls(faults, seed, reference, mac_cfg):
    """Emergency frames (seq, time, tags), the times of every reading the
    primary built and the frames the gateway heard, over 10 minutes.  The reference polls every 5 s by
    rescheduling itself, and builds a reading wherever a brute-force check
    at the clip extremes says it could cross."""
    sim, gw, primary, secondary = build_node(faults=faults, seed=seed, mac_cfg=mac_cfg)
    emergencies, sensed = [], []
    on_emergency, sense = primary.mac.on_emergency, primary.sense

    def record_emergency(packet):
        emergencies.append((packet.seq, sim.now_us, packet.reading.fault_tags))
        on_emergency(packet)

    def record_sense():
        sensed.append(sim.now_us)
        return sense()

    primary.mac.on_emergency, primary.sense = record_emergency, record_sense
    if reference:
        primary.mac.start()
        in_emergency = False

        def poll():
            nonlocal in_emergency
            sim.schedule_at(sim.now_us + POLL_US, poll)
            now_ms = sim.now_us / 1000
            crossed = (
                primary.is_powered()
                and crosses_at_a_clip_extreme(faults, now_ms)
                and check_thresholds(primary.sense())
            )
            if crossed and not in_emergency:
                primary.mac.on_emergency(primary.data_packet(emergency=True))
            in_emergency = crossed

        sim.schedule_at(sim.now_us + POLL_US, poll)
    else:
        primary.start()
    secondary.start()
    sim.run_until(ms_to_us(600_000))
    return emergencies, sensed, [(p.seq, p.board_role, p.emergency, t) for p, _, t in gw.heard]


POLL_CASES = {
    "o2-x1.3": [o2_high(120, 400)],
    "pressure-x1.1": [pressure_high(100, 330)],
    "hard-failure-inside": [o2_high(120, 400), FaultSpec(FaultKind.HARD_FAILURE, "n1.primary", 200_000, 262_500)],
    "two-disjoint-windows": [o2_high(60, 150), pressure_high(300, 420)],
    # One: 1.04 x 1013 hPa x 1.03 stays under 1090 hPa.  Both: 1095.7 hPa
    # before the noise, which can cross.
    "overlapping-pressure-x1.04": [pressure_high(100, 300, 1.04), pressure_high(200, 400, 1.04)],
    # Windows with no grid point between them: the emergency state carries.
    "adjacent-on-the-grid": [o2_high(100, 102), o2_high(103, 112), pressure_high(102.5, 103)],
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "case", [*POLL_CASES, "first-poll-on-a-data-slot", "retx-slot-set-5-s-before-the-first-poll"]
)
def test_windowed_polls_match_a_poll_every_5_s(case, seed):
    mac_cfg = SarbConfig()
    if case == "first-poll-on-a-data-slot":
        first_ms = data_slot_on_the_poll_grid(seed, mac_cfg)
    elif case == "retx-slot-set-5-s-before-the-first-poll":
        # A data slot 5 s before the first poll sets a retransmission slot
        # on it; the probe gateway sends no acks, so that slot sends.
        mac_cfg = SarbConfig(retx_interval_ms=5_000)
        first_ms = data_slot_on_the_poll_grid(seed, mac_cfg) + 5_000
    if case in POLL_CASES:
        faults = POLL_CASES[case]
    else:
        faults = [o2_high(first_ms / 1000 - 2.5, first_ms / 1000 + 60)]
    got = run_polls(faults, seed, False, mac_cfg)
    assert got == run_polls(faults, seed, True, mac_cfg)
    emergencies = got[0]
    assert emergencies and all(tags for _, _, tags in emergencies)
    if case == "overlapping-pressure-x1.04":
        assert poll_windows_us(faults) == [(200_000_000, 300_000_000)]
    if case == "two-disjoint-windows":
        assert {t < 200_000_000 for _, t, _ in emergencies} == {True, False}
    if case not in POLL_CASES:
        # The first poll shares its microsecond with a slot, and the frames
        # above show which went first: the slot, as under a 5 s chain.
        assert emergencies[0][1] == ms_to_us(first_ms)


class EmergencyRecorder:
    """Stands in for the primary's MAC: keeps each emergency frame."""

    def __init__(self):
        self.frames = []

    def on_emergency(self, packet):
        self.frames.append(packet)


def reference_poll(board):
    """PrimaryBoard._sensing_poll, less its rescheduling and its windows:
    every powered poll builds a reading and checks its bounds."""
    if not board.is_powered():
        board._in_emergency = False
        return
    crossed = check_thresholds(board.sense())
    if crossed and not board._in_emergency:
        board.mac.on_emergency(board.data_packet(emergency=True))
    board._in_emergency = crossed


def frame_key(packet):
    """A frame less its reading's values: the poll that builds every reading
    draws noise rows the windowed poll does not."""
    if packet is None:
        return None
    return packet.seq, packet.emergency, packet.reading.fault_tags


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**16),
    # After each 5 s poll: data packets and secondary readings.
    between=st.lists(st.lists(st.sampled_from(["data", "secondary"]), max_size=3), min_size=125, max_size=125),
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
                else:
                    # The secondary draws from its own stream, untouched by
                    # how many readings the primary's polls build.
                    trail.append(bits(secondary.sense().values))
        runs.append((trail, [frame_key(p) for p in primary.mac.frames], built))
    (trail, emergencies, built), (want_trail, want_emergencies, want_built) = runs
    assert trail == want_trail and emergencies == want_emergencies
    assert len(emergencies) == 1 and emergencies[0][2] >= {"anomaly:o2_percent"}
    assert trail.count(True) == 56  # every poll over 120-395 s
    # The windowed poll builds a reading only inside the O2 window; the
    # reference builds one at each of the other 65 powered polls as well.
    assert set(built) <= set(want_built)
    assert len(want_built) - len(built) == 65


# -- the secondary's comparison and its short path -----------------------------------

CORNERS = [SensorReading(tuple((NOMINAL * (1.0 + c)).tolist())) for c in np.array([-CLIP, CLIP])]


def corners_flag(threshold):
    """Brute force: whether the comparison flags the two clip-extreme
    readings, one against the other, either way round."""
    low, high = CORNERS
    return boards.detect_anomaly(high, low, threshold) or boards.detect_anomaly(low, high, threshold)


def ulps_around(x, n=3):
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(n):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


SPREADS = (1.03 / 0.97 - 1, 1 - 0.97 / 1.03)


def test_noise_flag_decision_matches_the_clip_corners():
    thresholds = [0.003, 0.01, 0.02, 0.05, 0.25, 1.0]
    for spread in SPREADS:
        thresholds += ulps_around(spread) + [spread * (1 + boards._FLAG_MARGIN / 2), spread * (1 + 1e-6)]
    decided = set()
    for t in thresholds:
        can_flag = boards.noise_can_flag(t)
        # Inside the margin above the corners' discrepancy, the board compares.
        assert can_flag == (corners_flag(t) or corners_flag(t * (1 - boards._FLAG_MARGIN))), t
        decided.add(can_flag)
    assert decided == {True, False}
    # The margin is thin: just above the larger spread no noise can flag.
    assert not boards.noise_can_flag(max(SPREADS) * (1 + 1e-6))
    assert boards.noise_can_flag(max(SPREADS) * (1 + boards._FLAG_MARGIN / 2))


factor_rows = st.lists(
    st.one_of(st.sampled_from([1.0 - CLIP, 1.0 + CLIP]), st.floats(1.0 - CLIP, 1.0 + CLIP)),
    min_size=len(SENSOR_FIELDS),
    max_size=len(SENSOR_FIELDS),
)


@settings(deadline=None, max_examples=100)
@given(primary=factor_rows, secondary=factor_rows)
def test_readings_inside_the_clip_never_flag_where_the_corners_cannot(primary, secondary):
    # The smallest threshold at which the board skips its comparison.
    threshold = max(SPREADS) * (1 + 2 * boards._FLAG_MARGIN)
    assert not boards.noise_can_flag(threshold)
    p, s = (SensorReading(tuple((NOMINAL * np.array(f)).tolist())) for f in (primary, secondary))
    assert not boards.detect_anomaly(p, s, threshold)


class CheckingSecondary(SecondaryBoard):
    """SecondaryBoard with its short path checked.  Where the board builds
    no reading, this one builds one from a stream of its own, so the board's
    rows still go to the readings it builds, and asserts that comparing it
    does not flag."""

    def __init__(self, sim, channel, node, faults, cfg):
        super().__init__(sim, channel, node, faults, cfg)
        self._check_rows = boards._noise_rows(sim.rng(f"{self.entity_id}-check"))
        self.skips = 0

    def _is_faulty(self, packet):
        now = self.sim.now_us
        if self._noise_can_flag or packet.reading.fault_tags or in_windows(self._sensor_windows_us, now):
            return super()._is_faulty(packet)
        self.skips += 1
        own = self._reading(next(self._check_rows).tolist(), now)
        flagged = detect_anomaly(packet.reading, own, self.cfg.anomaly_rel_threshold)
        assert not flagged
        return flagged


def with_threshold(preset, threshold):
    cfg = build_preset(preset)
    return replace(cfg, secondary=replace(cfg.secondary, anomaly_rel_threshold=threshold))


def with_faults(preset, *faults):
    cfg = build_preset(preset)
    return replace(cfg, faults=cfg.faults + faults)


def secondary_co2(multiplier, start_s=300, end_s=1500, kind=ANOM):
    return sensor_fault(kind, "co2_ppm", start_s, end_s, multiplier, target="n1.secondary")


SHORT_PATH_CASES = {
    **{f"SF2-threshold-{t}": with_threshold("SF2", t) for t in (0.003, 0.01, 0.02, 0.05, 0.25)},
    **{f"secondary-co2-x{m}": with_faults("control-noise", secondary_co2(m)) for m in (0, -1, 0.78, 0.8, 0.81, 1.33)},
    "secondary-read-failure": with_faults("control-noise", secondary_co2(1.0, kind=READ)),
    "SF2-and-secondary-co2-x0.8": with_faults("SF2", secondary_co2(0.8, 600, 900)),
}


def run_recording_frames(cfg, seed, monkeypatch, secondary_cls):
    """One run's data frames (seq, role, corrective, fault tags, start time),
    its report, the number of comparisons its secondaries made, and the
    number of checked skips (for a CheckingSecondary)."""
    monkeypatch.setattr(simulation, "SecondaryBoard", secondary_cls)
    comparisons = 0

    def counted(primary, secondary, rel_threshold):
        nonlocal comparisons
        comparisons += 1
        return detect_anomaly(primary, secondary, rel_threshold)

    monkeypatch.setattr(boards, "detect_anomaly", counted)
    run = Simulation(cfg, seed)
    frames = []
    begin = run.channel.begin_transmission

    def recorded(source_id, position, packet, tx_power_dbm):
        if packet.kind is PacketKind.DATA:
            frames.append((packet.seq, packet.board_role, packet.corrective, packet.reading.fault_tags, run.sim.now_us))
        return begin(source_id, position, packet, tx_power_dbm)

    run.channel.begin_transmission = recorded
    report = report_to_json(MetricsReport(cfg.name, [seed], [run.run()]))
    monkeypatch.undo()
    skips = sum(getattr(secondary, "skips", 0) for secondary in run.secondaries.values())
    return frames, report, comparisons, skips


@pytest.mark.parametrize("case", SHORT_PATH_CASES)
@pytest.mark.parametrize("seed", [1, 2])
def test_secondary_short_path_matches_a_secondary_that_checks_each_skip(case, seed, monkeypatch):
    cfg = SHORT_PATH_CASES[case]
    frames, report, compared, _ = run_recording_frames(cfg, seed, monkeypatch, SecondaryBoard)
    want_frames, want_report, want_compared, skips = run_recording_frames(cfg, seed, monkeypatch, CheckingSecondary)
    assert frames == want_frames
    assert report == want_report
    assert compared == want_compared
    assert any(corrective for _, _, corrective, _, _ in want_frames) or case == "secondary-read-failure"
    # Comparisons are skipped exactly where noise alone cannot flag.
    assert (skips > 0) is not boards.noise_can_flag(cfg.secondary.anomaly_rel_threshold)
