import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redwsn.boards import FaultKind, FaultSpec
from redwsn.channel import Channel, ChannelParams, Position
from redwsn.engine import Simulator, ms_to_us
from redwsn.gateway import Gateway, GatewayConfig, Server, ServerEntry, entry_from_fields
from redwsn.metrics import (
    MetricsReport,
    compare_reports,
    compute_detection_rate,
    compute_prr,
    delay_violations,
    epoch_ledger,
    rssi_summary,
)
from redwsn.packets import SENSOR_FIELDS, BoardRole, Packet, PacketKind, SensorReading


def full_reading():
    return SensorReading(values=(10.0,) * len(SENSOR_FIELDS))


# A complete reading the server refuses: it carries an injected-fault tag.
TAGGED_READING = SensorReading(full_reading().values, frozenset({"anomaly:co2_ppm"}))


def data_packet(seq=1, role=BoardRole.PRIMARY, reading=None, fault_tags=frozenset(), **kw):
    if reading is None:
        reading = SensorReading(full_reading().values, fault_tags)
    return Packet(
        kind=PacketKind.DATA,
        node_id="n1",
        board_role=role,
        seq=seq,
        size_bytes=76,
        reading=reading,
        **kw,
    )


def make_gateway(acks_enabled=True, faults=(), gateway_id="gw"):
    sim = Simulator()
    channel = Channel(sim, params=ChannelParams(shadowing_sigma_db=0.0))
    server = Server()
    cfg = GatewayConfig(id=gateway_id, acks_enabled=acks_enabled)
    gw = Gateway(sim, channel, server, cfg, tuple(faults))
    return sim, channel, server, gw


# -- gateway ------------------------------------------------------------------


def test_primary_data_is_acked():
    sim, channel, server, gw = make_gateway()
    gw.on_receive(data_packet(seq=7), -98.0, sim.now_us)
    assert channel.busy_until("gw") > sim.now_us  # ack frame on the air
    assert len(server.raw) == 1


def test_the_ack_is_the_keyword_built_frame():
    sim, channel, server, gw = make_gateway()

    class Board:
        entity_id, position, rx_extra_loss_db = "n1.primary", Position(1.0, 0.0), 0.0
        hears = ((PacketKind.ACK, "n1"),)

        def __init__(self):
            self.heard = []

        def on_receive(self, packet, rssi_dbm, now_us):
            self.heard.append(packet)

    board = Board()
    channel.add_receiver(board)
    gw.on_receive(data_packet(seq=7), -98.0, sim.now_us)
    sim.run_until(1_000_000)
    [ack] = board.heard
    expected = Packet(kind=PacketKind.ACK, node_id="n1", seq=7, size_bytes=Gateway.ACK_BYTES)
    assert type(ack) is Packet and ack._asdict() == expected._asdict()


def test_heartbeat_logged_but_not_acked():
    sim, channel, server, gw = make_gateway()
    beat = Packet(kind=PacketKind.HEARTBEAT, node_id="n1", board_role=BoardRole.SECONDARY, seq=1, size_bytes=12)
    gw.on_receive(beat, -98.0, sim.now_us)
    assert channel.busy_until("gw") == sim.now_us
    assert server.raw[0].kind == "heartbeat"


def test_secondary_data_not_acked():
    sim, channel, server, gw = make_gateway()
    gw.on_receive(data_packet(role=BoardRole.SECONDARY), -98.0, sim.now_us)
    assert channel.busy_until("gw") == sim.now_us
    assert len(server.raw) == 1


def test_noise_is_not_logged():
    sim, channel, server, gw = make_gateway()
    noise = Packet(kind=PacketKind.NOISE, node_id="noise", size_bytes=10)
    channel.begin_transmission("noise", Position(1.0, 0.0), noise, 14.0)
    sim.run_until(1_000_000)
    assert server.raw == []
    # The same link carries a data frame to the server.
    channel.begin_transmission("n1.primary", Position(1.0, 0.0), data_packet(), 14.0)
    sim.run_until(2_000_000)
    assert [e.kind for e in server.raw] == ["data"]


def test_failed_gateway_drops_everything():
    faults = (
        FaultSpec(kind=FaultKind.GATEWAY_FAILURE, target="gw", start_ms=0, end_ms=1_000),
        FaultSpec(kind=FaultKind.GATEWAY_FAILURE, target="other", start_ms=1_000, end_ms=2_000),
    )
    sim, channel, server, gw = make_gateway(faults=faults)
    gw.on_receive(data_packet(), -98.0, sim.now_us)
    assert server.raw == []
    assert gw.failed(999_999) and not gw.failed(1_000_000)
    assert not gw.failed(1_500_000)  # the other gateway's fault is not ours


def test_gateway_fault_windows_in_microseconds_agree_with_fault_active():
    faults = (
        FaultSpec(kind=FaultKind.GATEWAY_FAILURE, target="gw", start_ms=1_000, end_ms=2_000),
        FaultSpec(kind=FaultKind.GATEWAY_FAILURE, target="gw", start_ms=2_000, end_ms=2_500),
    )
    _, _, _, gw = make_gateway(faults=faults)
    edges_ms = {edge for f in faults for edge in (f.start_ms, f.end_ms)}
    for now_us in sorted(t for edge in edges_ms for t in (ms_to_us(edge) - 1, ms_to_us(edge))):
        # The reference: a fault is active over [start_ms, end_ms).
        t_ms = now_us / 1000
        assert gw.failed(now_us) is any(f.start_ms <= t_ms < f.end_ms for f in faults)


# -- server dedup ----------------------------------------------------------------


def test_dedup_keeps_earliest_copy():
    server = Server()
    server.on_gateway_reception("gw-a", data_packet(seq=5), -98.0, 1_000_000)
    server.on_gateway_reception("gw-b", data_packet(seq=5), -110.0, 1_500_000)
    assert server.duplicate_count == 1
    unique = server.deduplicated()
    assert len(unique) == 1
    assert unique[0].gateway_id == "gw-a"


def test_dedup_distinct_seqs_and_roles_retained():
    server = Server()
    server.on_gateway_reception("gw", data_packet(seq=1), -98.0, 0)
    server.on_gateway_reception("gw", data_packet(seq=2), -98.0, 10)
    server.on_gateway_reception("gw", data_packet(seq=1, role=BoardRole.SECONDARY), -98.0, 20)
    assert server.duplicate_count == 0
    assert len(server.deduplicated()) == 3


def test_validity_rules():
    server = Server()
    values = [1.0] * len(SENSOR_FIELDS)
    values[SENSOR_FIELDS.index("co2_ppm")] = math.nan
    incomplete = SensorReading(values=tuple(values))
    server.on_gateway_reception("gw", data_packet(seq=1), -98.0, 0)
    server.on_gateway_reception("gw", data_packet(seq=2, reading=incomplete), -98.0, 1)
    server.on_gateway_reception("gw", data_packet(seq=3, fault_tags=frozenset({"anomaly:co2_ppm"})), -98.0, 2)
    valid = {e.seq: e.valid for e in server.deduplicated()}
    assert valid == {1: True, 2: False, 3: False}


def reference_server_entry(gateway_id, packet, rssi_dbm, now_us):
    """The server record built by keyword: the oracle for the positional
    record."""
    valid = (
        packet.kind is PacketKind.DATA
        and packet.reading is not None
        and packet.reading.is_complete()
        and not packet.reading.fault_tags
    )
    return ServerEntry(
        node_id=packet.node_id,
        board_role=packet.board_role,
        seq=packet.seq,
        kind=packet.kind,
        time_us=now_us,
        gateway_id=gateway_id,
        rssi_dbm=rssi_dbm,
        valid=valid,
    )


@given(
    kind=st.sampled_from((PacketKind.DATA, PacketKind.HEARTBEAT, PacketKind.ACK)),
    role=st.sampled_from((BoardRole.PRIMARY, BoardRole.SECONDARY, "")),
    # None: a frame without a reading; otherwise the reading's NaN fields.
    nan_fields=st.none() | st.sets(st.sampled_from(SENSOR_FIELDS), max_size=3),
    tags=st.frozensets(st.sampled_from(("anomaly:co2_ppm", "read_failure:co2_ppm")), max_size=2),
    seq=st.integers(0, 2**31),
)
def test_server_record_matches_the_keyword_built_record(kind, role, nan_fields, tags, seq):
    reading = None
    if nan_fields is not None:
        values = list(full_reading().values)
        for name in nan_fields:
            values[SENSOR_FIELDS.index(name)] = math.nan
        reading = SensorReading(tuple(values), tags)
    packet = Packet(kind=kind, node_id="n1", board_role=role, seq=seq, size_bytes=76, reading=reading)
    server = Server()
    server.on_gateway_reception("gw", packet, -101.5, 7_000)
    [entry] = server.raw
    assert type(entry) is ServerEntry
    assert entry._asdict() == reference_server_entry("gw", packet, -101.5, 7_000)._asdict()
    assert server.deduplicated() == server.raw


def test_entry_helper_builds_the_record_the_constructor_does():
    fields = ("n1", "primary", 5, "data", 7_000, "gw", -101.5, True)
    built = entry_from_fields(fields)
    expected = ServerEntry(**dict(zip(ServerEntry._fields, fields)))
    assert type(built) is ServerEntry and built._asdict() == expected._asdict()


# -- metrics -----------------------------------------------------------------------


def entry(time_us, role="primary", valid=True, seq=None, node="n1"):
    return ServerEntry(
        node_id=node,
        board_role=role,
        seq=seq if seq is not None else time_us,
        kind="data",
        time_us=time_us,
        gateway_id="gw",
        rssi_dbm=-98.0,
        valid=valid,
    )


def served(entries):
    """The arrival table of a server that received the entries, each its
    own frame, in clock order; an invalid entry's frame carries a tag."""
    server = Server()
    for seq, e in enumerate(sorted(entries, key=lambda e: e.time_us)):
        reading = full_reading() if e.valid else TAGGED_READING
        packet = Packet(PacketKind.DATA, e.node_id, e.board_role, seq, 76, reading)
        server.on_gateway_reception(e.gateway_id, packet, e.rssi_dbm, e.time_us)
    return server.arrivals


# Far past every slot the metric tests use, so each of them is scored.
HORIZON_US = 10**12


def ledger(entries, slots, fault_windows=None):
    return epoch_ledger(served(entries), slots, fault_windows or {}, HORIZON_US, bound_us=40_000_000)


def test_prr_counts_covered_epochs():
    slots = {"n1": [0, 25_000_000, 50_000_000]}
    entries = [entry(1_000_000), entry(26_000_000, role="secondary")]
    assert compute_prr(ledger(entries, slots)) == pytest.approx(2 / 3)
    assert compute_prr(ledger(entries, slots), roles=("primary",)) == pytest.approx(1 / 3)


def test_prr_ignores_invalid_and_out_of_window():
    slots = {"n1": [0]}
    assert compute_prr(ledger([entry(1_000_000, valid=False)], slots)) == 0.0
    assert compute_prr(ledger([entry(41_000_000)], slots)) == 0.0  # after the 40 s bound
    assert compute_prr(ledger([entry(39_999_000)], slots)) == 1.0


# The last slot is off the millisecond grid the MAC uses; in float
# milliseconds its slot + bound would sort after an arrival exactly on the
# bound.
@pytest.mark.parametrize("slot_us", [0, 81_000_000, 121_138_496, 117_578_819])
def test_prr_window_is_half_open_to_the_microsecond(slot_us):
    # Arrivals are frame ends in whole microseconds; the window is
    # [slot, slot + bound).
    slots = {"n1": [slot_us]}
    bound_us = 40_000_000
    assert compute_prr(ledger([entry(slot_us + bound_us)], slots)) == 0.0
    assert compute_prr(ledger([entry(slot_us + bound_us - 1)], slots)) == 1.0
    assert compute_prr(ledger([entry(slot_us + 138_496)], slots)) == 1.0
    assert compute_prr(ledger([entry(slot_us - 1)], slots)) == 0.0


def test_prr_empty_schedule_errors():
    with pytest.raises(ValueError):
        compute_prr(ledger([], {"n1": []}))


def test_prr_redundant_at_least_primary_only():
    slots = {"n1": [0, 25_000_000, 50_000_000, 75_000_000]}
    entries = [entry(1_000_000), entry(27_000_000, role="secondary"), entry(51_000_000, valid=False)]
    epochs = ledger(entries, slots)
    assert compute_prr(epochs) >= compute_prr(epochs, roles=("primary",))


def test_detection_rate_over_missed_fault_epochs():
    # Epochs at 0, 25 s and 50 s; the fault covers the last two.  The
    # secondary answers at 25 s; 50 s is missed.
    slots = {"n1": [0, 25_000_000, 50_000_000]}
    fault_windows = {"n1": [(25_000_000, 75_000_000)]}
    entries = [entry(1_000_000), entry(30_000_000, role="secondary")]
    assert compute_detection_rate(ledger(entries, slots, fault_windows)) == pytest.approx(1 / 2)


def test_detection_rate_excludes_primary_served_epochs():
    entries = [entry(5_000_000)]  # valid primary packet serves the epoch
    assert compute_detection_rate(ledger(entries, {"n1": [0]}, {"n1": [(0, 40_000_000)]})) is None


def test_detection_rate_is_none_without_fault_epochs():
    assert compute_detection_rate(ledger([], {"n1": []})) is None


# -- the ledger against the per-metric scans it replaced --------------------------
#
# Test-local copies of the metrics as they were before the ledger: each
# derived its own arrivals and scanned its own coverage, and the simulation
# decided which epochs were scored and which were fault epochs.


def reference_arrivals(entries, roles):
    times = {}
    for e in entries:
        if e.valid and e.board_role in roles:
            times.setdefault(e.node_id, []).append(e.time_us)
    for node_times in times.values():
        node_times.sort()
    return times


def reference_covered(times_us, slot_us, bound_us):
    i = bisect_left(times_us, slot_us)
    return i < len(times_us) and times_us[i] < slot_us + bound_us


def reference_prr(entries, slots_by_node, bound_us, roles=("primary", "secondary")):
    total = sum(len(slots) for slots in slots_by_node.values())
    if total == 0:
        raise ValueError("expected schedule is empty")
    arrivals = reference_arrivals(entries, roles)
    covered = sum(
        reference_covered(arrivals.get(node, []), slot, bound_us)
        for node, slots in slots_by_node.items()
        for slot in slots
    )
    return covered / total


def reference_detection_rate(entries, fault_slots, bound_us):
    primary = reference_arrivals(entries, ("primary",))
    secondary = reference_arrivals(entries, ("secondary",))
    missed = 0
    detected = 0
    for node, slots in fault_slots.items():
        for slot in slots:
            if reference_covered(primary.get(node, []), slot, bound_us):
                continue
            missed += 1
            if reference_covered(secondary.get(node, []), slot, bound_us):
                detected += 1
    if missed == 0:
        return None
    return detected / missed


def prr_or_error(compute, *args, **kw):
    try:
        return compute(*args, **kw)
    except ValueError:
        return "empty"


@st.composite
def epoch_cases(draw):
    """Small integer clocks, so arrivals land on the window edges: one
    before the slot, on it, one before slot + bound and on slot + bound."""
    bound_us = draw(st.integers(1, 30))
    nodes = draw(st.lists(st.sampled_from(["n1", "n2", "n3"]), min_size=1, max_size=3, unique=True))
    slots = {node: sorted(draw(st.sets(st.integers(0, 200), max_size=6))) for node in nodes}
    all_slots = sorted({s for node_slots in slots.values() for s in node_slots}) or [0]
    edge = st.sampled_from(all_slots).flatmap(
        lambda s: st.sampled_from([s - 1, s, s + bound_us - 1, s + bound_us])
    )
    # A node may send nothing at all, or only invalid or other-board data.
    arrival = st.builds(
        entry,
        st.one_of(edge, st.integers(0, 250)),
        role=st.sampled_from(["primary", "secondary"]),
        valid=st.booleans(),
        node=st.sampled_from(nodes),
    )
    entries = draw(st.lists(arrival, max_size=16))
    # Window edges on slots (or one past), so a slot on an end is tested.
    window_edge = st.sampled_from(all_slots + [s + 1 for s in all_slots])
    window = st.tuples(window_edge, window_edge).map(sorted).map(tuple)
    fault_windows = {node: draw(st.lists(window, max_size=2)) for node in draw(st.sets(st.sampled_from(nodes)))}
    duration_us = draw(st.integers(0, 260))
    return entries, slots, fault_windows, duration_us, bound_us


@given(epoch_cases())
def test_ledger_reductions_equal_the_per_metric_scans(case):
    entries, slots, fault_windows, duration_us, bound_us = case
    # The rules the simulation applied before the ledger decided them.
    scored = {node: [t for t in node_slots if t + bound_us <= duration_us] for node, node_slots in slots.items()}
    fault_slots = {
        node: [t for t in scored[node] if any(s <= t < e for s, e in fault_windows.get(node, []))] for node in scored
    }
    epochs = epoch_ledger(served(entries), slots, fault_windows, duration_us, bound_us)

    assert len(epochs) == sum(len(s) for s in scored.values())
    assert sum(row.fault_active for row in epochs) == sum(len(s) for s in fault_slots.values())
    for roles in (("primary", "secondary"), ("primary",)):
        assert prr_or_error(compute_prr, epochs, roles=roles) == prr_or_error(
            reference_prr, entries, scored, bound_us, roles=roles
        )
    assert compute_detection_rate(epochs) == reference_detection_rate(entries, fault_slots, bound_us)


def test_delay_violations_count_gaps_and_boundaries():
    arrivals = served([entry(10_000_000), entry(90_000_000)])
    # Gaps: 0->10 s ok, 10->90 s violation, 90->100 s ok.
    assert delay_violations(arrivals, ["n1"], duration_us=100_000_000, bound_us=40_000_000) == 1
    assert delay_violations({}, ["n1"], duration_us=100_000_000, bound_us=40_000_000) == 1  # single 0 -> end gap
    assert delay_violations(arrivals, ["n1"], duration_us=100_000_000, bound_us=float("inf")) == 0


def test_delay_gap_of_exactly_the_bound_is_no_violation():
    # Two frame ends 40 s apart to the microsecond (control-noise, seed 56).
    # In float milliseconds 161138.496 - 121138.496 exceeds 40000.
    server = Server()
    for seq, now_us in enumerate((121_138_496, 161_138_496), start=1):
        server.on_gateway_reception("gw", data_packet(seq=seq), -98.0, now_us)
    arrivals = server.arrivals
    assert delay_violations(arrivals, ["n1"], duration_us=161_139_000, bound_us=40_000_000) == 1  # 0 -> 121 s
    assert delay_violations(arrivals, ["n1"], duration_us=161_139_000, bound_us=39_999_999) == 2


def test_rssi_summary_stats():
    stats = rssi_summary([-100.0, -98.0, -96.0, -94.0])
    assert stats["count"] == 4
    assert stats["min"] == -100.0 and stats["max"] == -94.0
    assert stats["median"] == pytest.approx(-97.0)
    assert rssi_summary([]) == {"count": 0}


@given(st.lists(st.floats(-140.0, -60.0), min_size=1, max_size=50))
def test_rssi_quartiles_equal_one_percentile_call_each(samples):
    stats = rssi_summary(samples)
    assert stats["q1"] == float(np.percentile(samples, 25))
    assert stats["q3"] == float(np.percentile(samples, 75))


@st.composite
def rssi_logs(draw):
    """1-400 samples: picks from a small pool, as a log of a link's quantised
    RSSI repeats values, and uniform dBm values, whose sums round
    differently pairwise than in order; and up to two infinities or NaNs.
    The pool holds any float but a signed zero: the order of 0.0 and -0.0
    in a sort is unspecified (numpy's min of [0.0, -0.0] is -0.0, and of
    [-0.0, 0.0] is 0.0), and RSSI in dBm is never zero."""
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False).filter(bool), min_size=1, max_size=8))
    n = draw(st.integers(1, 398))
    # Drawn from one seeded generator rather than one by one, which is slow
    # for hundreds of values.
    rng = draw(st.randoms(use_true_random=True))
    samples = [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-150.0, -50.0) for _ in range(n)]
    for special in draw(st.lists(st.sampled_from((math.inf, -math.inf, math.nan)), max_size=2)):
        samples.insert(draw(st.integers(0, len(samples))), special)
    return samples


def float_bits(value):
    """A float's exact bits; every NaN is the same."""
    return "nan" if math.isnan(value) else float.hex(value)


@settings(deadline=None, max_examples=300)
@given(rssi_logs())
def test_rssi_summary_equals_numpy_bit_for_bit(samples):
    # numpy warns on inf - inf and on overflow; values are compared, not warnings.
    with np.errstate(all="ignore"):
        arr = np.asarray(samples)
        q1, q3 = np.percentile(arr, (25, 75)).tolist()
        reference = {
            "min": float(arr.min()),
            "q1": q1,
            "median": float(np.median(arr)),
            "q3": q3,
            "max": float(arr.max()),
            "mean": float(arr.mean()),
        }
        stats = rssi_summary(samples)
    assert stats.pop("count") == len(samples)
    assert {k: float_bits(v) for k, v in stats.items()} == {k: float_bits(v) for k, v in reference.items()}


@given(
    st.lists(
        st.tuples(
            st.sampled_from(("n1", "n2", "n10")),
            st.integers(0, 3),
            st.sampled_from((BoardRole.PRIMARY, BoardRole.SECONDARY)),
            st.integers(0, 2),
        ),
        max_size=30,
    )
)
def test_dedup_order_equals_the_time_node_seq_key(forwards):
    # Few distinct times, so many entries tie on time_us across nodes and seqs.
    server = Server()
    for node, seq, role, t in forwards:
        packet = Packet(PacketKind.DATA, node, role, seq, 76, full_reading())
        server.on_gateway_reception("gw", packet, -98.0, t)
    first = {}
    for e in server.raw:
        first.setdefault((e.node_id, e.board_role, e.seq), e)
    assert server.deduplicated() == sorted(first.values(), key=lambda e: (e.time_us, e.node_id, e.seq))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(("gw-a", "gw-b")),
            st.sampled_from(("n1", "n2")),
            st.sampled_from((BoardRole.PRIMARY, BoardRole.SECONDARY)),
            # Few seqs, so copies and retransmissions of one frame recur.
            st.integers(0, 3),
            st.sampled_from(("data", "invalid", "heartbeat")),
            # Steps of the clock; 0 puts receptions on the same microsecond.
            st.integers(0, 2),
        ),
        max_size=40,
    )
)
def test_arrival_table_is_the_valid_deduplicated_times_by_node_and_role(receptions):
    server = Server()
    now_us = 0
    for gateway_id, node, role, seq, sort, step in receptions:
        now_us += step
        if sort == "heartbeat":
            packet = Packet(PacketKind.HEARTBEAT, node, role, seq, 12)
        else:
            packet = Packet(PacketKind.DATA, node, role, seq, 76, full_reading() if sort == "data" else TAGGED_READING)
        server.on_gateway_reception(gateway_id, packet, -98.0, now_us)
    expected = {}
    for e in server.deduplicated():
        if e.valid:
            expected.setdefault((e.node_id, e.board_role), []).append(e.time_us)
    assert server.arrivals == expected


def test_server_entry_is_immutable():
    server = Server()
    server.on_gateway_reception("gw", data_packet(), -100.0, 5)
    (entry,) = server.raw
    with pytest.raises(AttributeError):
        entry.valid = False
    assert entry.valid and entry.time_us == 5


def test_compare_reports_in_percentage_points():
    def report(prr):
        from redwsn.metrics import IterationMetrics

        return MetricsReport(
            scenario="x",
            seeds=[1],
            iterations=[
                IterationMetrics(
                    seed=1,
                    prr_redundant=prr,
                    prr_primary_only=prr,
                    detection_rate=None,
                    delay_violations=0,
                    duplicate_count=0,
                    epochs_total=10,
                    epochs_fault_active=0,
                )
            ],
        )

    assert compare_reports(report(0.9), report(0.7), "prr_redundant") == pytest.approx(20.0)
    assert compare_reports(report(0.5), report(0.5), "prr_redundant") == 0.0
    with pytest.raises(ValueError):
        compare_reports(report(0.5), report(0.5), "detection_rate")
