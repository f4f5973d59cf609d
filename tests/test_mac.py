import itertools
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from redwsn.engine import Simulator, ms_to_us, stream_rng
from redwsn.mac import RetxQueue, SarbConfig, SarbMac
from redwsn.packets import Packet, PacketKind


def make_packet(seq):
    return Packet(kind=PacketKind.DATA, node_id="n1", seq=seq, size_bytes=76)


# -- configuration -------------------------------------------------------------


def test_default_config_valid():
    cfg = SarbConfig()
    assert cfg.slot_min_ms == 20_000 and cfg.slot_max_ms == 30_000
    assert cfg.retx_slots_per_cycle * cfg.retx_interval_ms < cfg.slot_min_ms


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SarbConfig(slot_min_ms=30_000, slot_max_ms=20_000)
    with pytest.raises(ValueError):
        SarbConfig(slot_step_ms=300)  # 10 s range not divisible
    with pytest.raises(ValueError):
        SarbConfig(slot_step_ms=0)
    with pytest.raises(ValueError):
        SarbConfig(retx_interval_ms=12_000)  # 2 x 12 s >= 20 s
    with pytest.raises(ValueError, match="ack_timeout_ms must be positive"):
        SarbConfig(ack_timeout_ms=0)
    with pytest.raises(ValueError, match="queue_capacity must not be negative"):
        SarbConfig(queue_capacity=-1)
    # An empty queue only turns retransmission off.
    assert SarbConfig(queue_capacity=0).queue_capacity == 0


# -- LIFO retransmission queue ---------------------------------------------------


def test_queue_is_lifo():
    q = RetxQueue(capacity=10)
    for seq in range(3):
        q.push(make_packet(seq))
    assert q.pop().seq == 2
    assert q.pop().seq == 1
    assert q.pop().seq == 0


def test_queue_eviction_removes_oldest():
    q = RetxQueue(capacity=3)
    evicted = [q.push(make_packet(seq)) for seq in range(5)]
    assert [e.seq for e in evicted if e is not None] == [0, 1]
    assert len(q) == 3
    assert [q.pop().seq for _ in range(3)] == [4, 3, 2]


def test_queue_pop_empty_raises():
    q = RetxQueue()
    with pytest.raises(IndexError):
        q.pop()


def test_queue_clear():
    q = RetxQueue()
    q.push(make_packet(1))
    q.clear()
    assert len(q) == 0


@settings(max_examples=300)
@given(
    st.lists(
        st.one_of(st.just("pop"), st.integers(0, 10_000).map(lambda s: ("push", s))),
        max_size=60,
    )
)
def test_queue_matches_reference_model(ops):
    """Bounded LIFO with oldest-eviction versus a plain deque model."""
    q = RetxQueue(capacity=10)
    model = deque()
    for op in ops:
        if op == "pop":
            if model:
                assert q.pop().seq == model.pop().seq
            else:
                with pytest.raises(IndexError):
                    q.pop()
        else:
            _, seq = op
            packet = make_packet(seq)
            evicted = q.push(packet)
            expected_evicted = model.popleft() if len(model) >= 10 else None
            model.append(packet)
            assert (evicted is None) == (expected_evicted is None)
            if evicted is not None:
                assert evicted.seq == expected_evicted.seq
        assert len(q) == len(model) <= 10
    assert [q.pop().seq for _ in range(len(q))] == [p.seq for p in reversed(model)]


# -- MAC state machine -----------------------------------------------------------


class Harness:
    """Wires a SarbMac to scripted transmit/power behaviour, keeping the
    host contract: no frame is built while off, power loss calls power_cycle."""

    def __init__(self, cfg=SarbConfig(), seed=0, airtime_us=138_496):
        self.sim = Simulator(master_seed=seed)
        self.cfg = cfg
        self.airtime_us = airtime_us
        self.sent = []  # (time_us, packet)
        self.slots = []
        self.powered = True
        self.deliver = True
        self._seq = 0
        self.mac = SarbMac(
            self.sim,
            cfg,
            self.sim.rng("mac"),
            build_packet=self._build,
            transmit=self._transmit,
            on_slot=self.slots.append,
        )

    def _build(self, emergency):
        if not self.powered:
            return None
        self._seq += 1
        return Packet(
            kind=PacketKind.DATA, node_id="n1", seq=self._seq, size_bytes=76, emergency=emergency
        )

    def _transmit(self, packet):
        if not self.powered:
            return None
        self.sent.append((self.sim.now_us, packet))
        return self.sim.now_us + self.airtime_us


def test_slots_fall_on_grid_in_window():
    h = Harness()
    h.mac.start()
    h.sim.run_until(600_000_000)
    gaps = [b - a for a, b in zip(h.slots, h.slots[1:])]
    assert gaps, "no slots scheduled"
    for gap in gaps:
        assert 20_000_000 <= gap <= 30_000_000
        assert gap % 500_000 == 0
    assert 20_000_000 <= h.slots[0] <= 30_000_000


def grid_draw_ms(rng, lo_ms, hi_ms, step_ms):
    """The slot offset as it was drawn in milliseconds: one point of the grid
    {lo, lo + step, ..., hi}, each equally likely."""
    k = int(rng.integers(0, (hi_ms - lo_ms) // step_ms + 1))
    return lo_ms + k * step_ms


@st.composite
def short_slot_grids(draw):
    """A valid SarbConfig whose grid has at most seven points, so one run of
    120 slots draws both of its ends."""
    step = draw(st.integers(1, 5_000))
    slot_min = draw(st.integers(1, 40_000))
    retx_slots = draw(st.integers(0, 2))
    retx_interval = draw(st.integers(1, 10_000))
    assume(retx_slots * retx_interval < slot_min)
    return SarbConfig(
        slot_min_ms=slot_min,
        slot_max_ms=slot_min + draw(st.integers(0, 6)) * step,
        slot_step_ms=step,
        retx_interval_ms=retx_interval,
        retx_slots_per_cycle=retx_slots,
    )


@settings(max_examples=100, deadline=None)
@given(short_slot_grids(), st.integers(0, 2**32 - 1))
def test_slot_times_match_the_millisecond_grid_draw(cfg, seed):
    rng = stream_rng(seed, "mac")  # the stream Harness gives its MAC
    offsets_ms = [grid_draw_ms(rng, cfg.slot_min_ms, cfg.slot_max_ms, cfg.slot_step_ms) for _ in range(120)]
    expected_us = list(itertools.accumulate(ms_to_us(offset) for offset in offsets_ms))
    h = Harness(cfg=cfg, seed=seed)
    h.mac.start()
    h.sim.run_until(expected_us[-1])
    assert h.slots == expected_us
    # Both ends of the grid came up, so a draw that misses either one fails.
    assert {cfg.slot_min_ms, cfg.slot_max_ms} <= set(offsets_ms)


def test_acked_packet_not_retransmitted():
    h = Harness()
    h.mac.start()
    # Ack every frame right after it ends.
    for _ in range(40):
        h.sim.run_until(h.sim.now_us + 1_000_000)
        if h.sent:
            h.mac.on_ack(h.sent[-1][1].seq)
    seqs = [p.seq for _, p in h.sent]
    assert len(seqs) == len(set(seqs))


def test_unacked_packet_uses_retransmission_slots():
    h = Harness()
    h.mac.start()
    h.sim.run_until(40_000_000)
    slot_time = h.slots[0]
    times = [t for t, _ in h.sent if t < slot_time + 15_000_000]
    assert times[0] == slot_time
    # No ack arrives, so the frame goes out again at +6 s and +12 s.
    assert times[1] == slot_time + 6_000_000
    assert times[2] == slot_time + 12_000_000
    seqs = {p.seq for _, p in h.sent[:3]}
    assert seqs == {h.sent[0][1].seq}


def test_disabled_mac_is_fixed_interval_fire_and_forget():
    h = Harness(cfg=SarbConfig(enabled=False))
    h.mac.start()
    h.sim.run_until(180_000_000)
    assert h.slots == [30_000_000, 60_000_000, 90_000_000, 120_000_000, 150_000_000, 180_000_000]
    # One transmission per slot, no retransmissions.
    assert [t for t, _ in h.sent] == h.slots
    assert len({p.seq for _, p in h.sent}) == len(h.sent)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("retx_slots", [0, 1, 2, 3])
def test_a_data_slot_schedules_its_retransmission_slots_then_the_next_slot(retx_slots, enabled):
    # Events at one microsecond run in scheduling order, so the order is
    # pinned as well as the times.
    cfg = SarbConfig(retx_slots_per_cycle=retx_slots, enabled=enabled)
    h = Harness(cfg=cfg)
    scheduled = []
    schedule_at = h.sim.schedule_at

    def record(t_us, fn, *args):
        scheduled.append((t_us, fn, args))
        schedule_at(t_us, fn, *args)

    h.sim.schedule_at = record
    h.mac.start()
    [(slot_us, first, ())] = scheduled
    assert first == h.mac._data_slot
    scheduled.clear()
    h.sim.run_until(slot_us)

    n = retx_slots if enabled else 0
    retx_us = ms_to_us(cfg.retx_interval_ms)
    assert scheduled[:n] == [(slot_us + k * retx_us, h.mac._retx_slot, ()) for k in range(1, n + 1)]
    next_us, following, no_args = scheduled[n]
    assert following == h.mac._data_slot and no_args == ()
    if enabled:
        assert (next_us - slot_us) % ms_to_us(cfg.slot_step_ms) == 0
        assert ms_to_us(cfg.slot_min_ms) <= next_us - slot_us <= ms_to_us(cfg.slot_max_ms)
        # Then the ack timer of the frame the slot sent, which it is called
        # with; nothing else.
        [(timer_us, timer, timer_args)] = scheduled[n + 1 :]
        assert timer_us == slot_us + h.airtime_us + ms_to_us(cfg.ack_timeout_ms)
        assert timer == h.mac._ack_timeout
        [packet] = timer_args
        assert packet is h.sent[0][1]
    else:
        assert next_us == slot_us + ms_to_us(cfg.fixed_interval_ms)
        assert len(scheduled) == n + 1
    assert [t for t, _ in h.sent] == [slot_us]


@pytest.mark.parametrize("steps", [0, 1, 20])
def test_block_drawn_offsets_match_one_draw_per_slot(steps):
    # Four refills of the 32-offset block and the first offset of a fifth.
    cfg = SarbConfig(slot_min_ms=20_000, slot_max_ms=20_000 + 500 * steps, slot_step_ms=500)
    scalar = stream_rng(11, "mac")
    expected = [20_000_000 + 500_000 * int(scalar.integers(0, steps + 1)) for _ in range(4 * 32 + 1)]
    mac = Harness(cfg=cfg, seed=11).mac
    assert [mac._draw_offset_us() for _ in range(4 * 32 + 1)] == expected


def test_offsets_past_the_int64_range_stay_exact():
    # A grid step of 5e18 us: the largest offsets lie past 2**63 us, where
    # int64 arithmetic would wrap to a time in the past.
    step_ms = 5 * 10**15
    cfg = SarbConfig(slot_min_ms=20_000, slot_max_ms=20_000 + 2 * step_ms, slot_step_ms=step_ms)
    scalar = stream_rng(11, "mac")
    expected = [20_000_000 + step_ms * 1000 * int(scalar.integers(0, 3)) for _ in range(40)]
    mac = Harness(cfg=cfg, seed=11).mac
    assert [mac._draw_offset_us() for _ in range(40)] == expected
    assert max(expected) > 2**63


@pytest.mark.parametrize("enabled", [False, True])
def test_only_an_enabled_mac_draws_from_its_stream(enabled):
    sim = Simulator(master_seed=0)
    rng, slots = stream_rng(0, "mac"), []
    mac = SarbMac(sim, SarbConfig(enabled=enabled), rng, lambda _: None, lambda _: None, slots.append)
    mac.start()
    sim.run_until(600_000_000)
    assert len(slots) >= 20
    undrawn = rng.bit_generator.state == stream_rng(0, "mac").bit_generator.state
    assert undrawn is not enabled


def test_emergency_transmits_immediately():
    h = Harness()
    h.mac.start()
    h.sim.run_until(1_000_000)
    packet = Packet(kind=PacketKind.DATA, node_id="n1", seq=999, size_bytes=76, emergency=True)
    h.mac.on_emergency(packet)
    assert h.sent and h.sent[-1][1].seq == 999 and h.sent[-1][0] == h.sim.now_us


def test_slot_clock_ticks_while_unpowered():
    h = Harness()
    h.mac.start()
    h.sim.run_until(35_000_000)
    h.powered = False
    h.mac.power_cycle()
    h.sim.run_until(335_000_000)
    h.powered = True
    h.sim.run_until(400_000_000)
    gaps = [b - a for a, b in zip(h.slots, h.slots[1:])]
    assert all(20_000_000 <= g <= 30_000_000 for g in gaps)
    # No frames on the air during the outage.
    assert not [t for t, _ in h.sent if 35_000_000 < t <= 335_000_000]
    assert [t for t, _ in h.sent if t > 335_000_000]


def test_power_cycle_clears_queue_and_pending():
    h = Harness()
    h.mac.start()
    h.sim.run_until(100_000_000)  # several unacked cycles -> non-empty queue
    assert len(h.mac.queue) > 0
    h.mac.power_cycle()
    assert len(h.mac.queue) == 0
    assert h.mac._pending is None


@pytest.mark.parametrize("drop", ["ack", "power_cycle"])
def test_a_stale_ack_timer_leaves_the_next_frame_pending(drop):
    # One data slot at exactly 20 s; frames last 138.496 ms, acks wait 2 s.
    h = Harness(cfg=SarbConfig(slot_min_ms=20_000, slot_max_ms=20_000))
    h.mac.start()
    h.sim.run_until(20_000_000)
    (_, first), = h.sent
    if drop == "ack":
        h.mac.on_ack(first.seq)
    else:
        h.mac.power_cycle()
    h.sim.run_until(21_000_000)
    second = Packet(kind=PacketKind.DATA, node_id="n1", seq=999, size_bytes=76, emergency=True)
    h.mac.on_emergency(second)
    # The first frame's timer fires at 22.138496 s and must not touch the
    # second frame, which waits for its ack until 23.138496 s.
    h.sim.run_until(23_000_000)
    assert h.mac._pending is second
    assert len(h.mac.queue) == 0
    h.sim.run_until(23_138_496)
    assert h.mac._pending is None
    assert h.mac.queue.pop() is second


def test_queue_never_exceeds_capacity_without_acks():
    h = Harness()
    h.mac.start()
    h.sim.run_until(1_800_000_000)  # 30 min, no acks at all
    assert len(h.mac.queue) <= h.cfg.queue_capacity


def test_ack_for_wrong_seq_is_ignored():
    h = Harness()
    h.mac.start()
    h.sim.run_until(31_000_000)
    in_flight = h.sent[-1][1].seq
    h.mac.on_ack(in_flight + 123)
    h.sim.run_until(40_000_000)
    retx = [p.seq for t, p in h.sent if p.seq == in_flight]
    assert len(retx) >= 2  # still retransmitted
