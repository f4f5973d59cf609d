import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from redwsn import boards
from redwsn.channel import Channel, ChannelParams, Position
from redwsn.engine import (
    SchedulingError,
    Simulator,
    drawn_ahead,
    in_windows,
    ms_to_us,
    stream_rng,
)
from redwsn.mac import SarbConfig, SarbMac
from redwsn.packets import Packet, PacketKind


def test_unit_conversions_round_trip():
    assert ms_to_us(138.496) == 138_496
    assert ms_to_us(0) == 0


def test_events_run_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(300, lambda: fired.append("c"))
    sim.schedule_at(100, lambda: fired.append("a"))
    sim.schedule_at(200, lambda: fired.append("b"))
    sim.run_until(1_000)
    assert fired == ["a", "b", "c"]
    assert sim.now_us == 1_000


def test_equal_timestamps_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for name in "abc":
        sim.schedule_at(50, lambda n=name: fired.append(n))
    sim.run_until(50)
    assert fired == ["a", "b", "c"]


def test_an_event_is_called_with_its_arguments_in_order():
    sim = Simulator()
    calls = []

    def record(*args):
        calls.append((sim.now_us, args))

    sim.schedule_at(10, record, "a", 1, None)
    sim.schedule_at(10, record)
    sim.schedule_at(sim.now_us + 5, record, ("one tuple",))
    sim.schedule_at(20, record, 2, "b")
    assert sim.run_until(20) == 4
    assert calls == [(5, (("one tuple",),)), (10, ("a", 1, None)), (10, ()), (20, (2, "b"))]


def test_events_may_schedule_followups():
    sim = Simulator()
    fired = []

    def first():
        fired.append(sim.now_us)
        sim.schedule_at(sim.now_us + 10, lambda: fired.append(sim.now_us))

    sim.schedule_at(5, first)
    sim.run_until(100)
    assert fired == [5, 15]


def test_close_cancels_every_pending_event():
    sim = Simulator()
    fired = []
    for t in (10, 20, 30):
        sim.schedule_at(t, lambda t=t: fired.append(t))

    def pending():
        fired.append(40)

    sim.schedule_at(40, pending)
    released = weakref.ref(pending)
    del pending
    sim.run_until(15)
    sim.close()
    assert released() is None
    assert sim.run_until(100) == 0
    assert fired == [10]


def test_close_releases_the_arguments_of_pending_events():
    class Payload:
        pass

    sim = Simulator()
    alone, tied = Payload(), Payload()
    sim.schedule_at(40, id, alone)
    sim.schedule_at(50, id, 1)
    sim.schedule_at(50, id, tied)
    held = [weakref.ref(alone), weakref.ref(tied)]
    del alone, tied
    assert all(ref() is not None for ref in held)
    sim.close()
    assert [ref() for ref in held] == [None, None]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(SchedulingError):
        sim.schedule_at(50, lambda: None)
    with pytest.raises(SchedulingError):
        sim.run_until(50)


def test_nan_times_are_refused_and_change_nothing():
    sim = Simulator()
    fired = []
    sim.schedule_at(100, lambda: fired.append(100))
    sim.run_until(10)
    with pytest.raises(SchedulingError):
        sim.schedule_at(math.nan, lambda: fired.append("nan"))
    with pytest.raises(SchedulingError):
        sim.run_until(math.nan)
    assert sim.now_us == 10
    with pytest.raises(SchedulingError):
        sim.schedule_at(-5, lambda: fired.append(-5))
    assert sim.run_until(1_000) == 1
    assert fired == [100]


def test_an_exception_ends_the_run_with_the_clock_at_its_instant():
    sim = Simulator()
    fired = []

    def boom():
        raise RuntimeError("boom")

    sim.schedule_at(5, fired.append, "alone")
    sim.schedule_at(10, fired.append, "a")
    sim.schedule_at(10, fired.append, "b")
    sim.schedule_at(10, boom)
    sim.schedule_at(10, fired.append, "c")
    sim.schedule_at(20, fired.append, "d")
    with pytest.raises(RuntimeError, match="boom"):
        sim.run_until(100)
    assert fired == ["alone", "a", "b"]
    assert sim.now_us == 10


def test_an_exception_from_a_lone_event_ends_the_run_at_its_instant():
    sim = Simulator()
    fired = []
    sim.schedule_at(5, fired.append, "a")
    sim.schedule_at(7, math.sqrt, -1.0)
    sim.schedule_at(9, fired.append, "b")
    with pytest.raises(ValueError):
        sim.run_until(100)
    assert fired == ["a"]
    assert sim.now_us == 7


FOLLOW_UP_DELAYS = (0, 1, 2, 5)


def follow_ups(depth):
    """The follow-ups an event schedules when it fires, as (delay, their
    own follow-ups) pairs."""
    if depth == 0:
        return st.just(())
    return st.lists(st.tuples(st.sampled_from(FOLLOW_UP_DELAYS), follow_ups(depth - 1)), max_size=2)


@given(
    events=st.lists(st.tuples(st.integers(0, 6), follow_ups(3)), max_size=25),
    t_end=st.integers(0, 12),
)
def test_events_fire_by_time_then_scheduling_order(events, t_end):
    sim = Simulator()
    fired = []

    def fire(label, children):
        fired.append((sim.now_us, label))
        for k, (delay, grandchildren) in enumerate(children):
            schedule(sim.now_us + delay, label + (k,), grandchildren)

    def schedule(when, label, children):
        # Every other event carries its label and follow-ups as arguments;
        # the rest close over them, so both kinds share instants.
        if label[-1] % 2:
            sim.schedule_at(when, lambda: fire(label, children))
        else:
            sim.schedule_at(when, fire, label, children)

    for i, (t, children) in enumerate(events):
        schedule(t, (i,), children)
    count = sim.run_until(t_end)

    # The reference: always fire the pending event with the least (time,
    # scheduling order).
    order = itertools.count()
    pending = [(t, next(order), (i,), children) for i, (t, children) in enumerate(events)]
    expected = []
    while pending and min(pending)[0] <= t_end:
        first = min(pending)
        pending.remove(first)
        t, _, label, children = first
        expected.append((t, label))
        pending += [(t + delay, next(order), label + (k,), gc) for k, (delay, gc) in enumerate(children)]
    assert fired == expected
    assert count == len(expected)
    assert sim.now_us == t_end


def test_run_until_boundary_event_is_processed():
    sim = Simulator()
    fired = []
    sim.schedule_at(100, lambda: fired.append(1))
    sim.schedule_at(101, lambda: fired.append(2))
    sim.run_until(100)
    assert fired == [1]
    sim.run_until(101)
    assert fired == [1, 2]


def test_stream_rng_reproducible_and_label_separated():
    a1 = stream_rng(7, "alpha").random(8)
    a2 = stream_rng(7, "alpha").random(8)
    b = stream_rng(7, "beta").random(8)
    other_seed = stream_rng(8, "alpha").random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, other_seed)


def test_stream_rng_consumers_do_not_perturb_each_other():
    # Drawing from one stream must not shift another stream's sequence.
    lone = stream_rng(3, "x").random(4)
    rng_x = stream_rng(3, "x")
    rng_y = stream_rng(3, "y")
    rng_y.random(100)
    assert np.array_equal(rng_x.random(4), lone)


def grid_offsets_us(cfg, seed, n):
    """The first n slot offsets a fresh SarbMac draws from its grid."""
    sim = Simulator(master_seed=seed)
    mac = SarbMac(sim, cfg, sim.rng("mac"), lambda _: None, lambda _: None, lambda _: None)
    return [next(mac._offsets_us) for _ in range(n)]


@given(st.integers(0, 2**31 - 1))
def test_draw_uniform_grid_stays_on_grid(seed):
    (value,) = grid_offsets_us(SarbConfig(slot_min_ms=20_000, slot_max_ms=30_000, slot_step_ms=500), seed, 1)
    assert 20_000_000 <= value <= 30_000_000
    assert (value - 20_000_000) % 500_000 == 0


def test_draw_uniform_grid_covers_endpoints():
    cfg = SarbConfig(slot_min_ms=1_000, slot_max_ms=2_000, slot_step_ms=500, retx_slots_per_cycle=0)
    assert set(grid_offsets_us(cfg, 0, 200)) == {1_000_000, 1_500_000, 2_000_000}


# -- the half-open window rule ---------------------------------------------------


@st.composite
def window_lists(draw):
    """Windows [start, end) in a chosen shape: none, two touching, two
    overlapping, one nested in another, or any, plus random extras, in any
    order."""
    shape = draw(st.sampled_from(["empty", "touching", "overlapping", "nested", "any"]))
    if shape == "empty":
        return []
    start, length = draw(st.integers(-20, 40)), draw(st.integers(2, 15))
    first = (start, start + length)
    if shape == "touching":
        second = (first[1], first[1] + draw(st.integers(1, 15)))
    elif shape == "overlapping":
        second = (start + draw(st.integers(1, length - 1)), first[1] + draw(st.integers(1, 15)))
    elif shape == "nested":
        inner = draw(st.integers(1, length - 1))
        lo = start + draw(st.integers(0, length - inner))
        second = (lo, lo + inner)
    else:
        lo = draw(st.integers(-20, 40))
        second = (lo, lo + draw(st.integers(1, 15)))
    extras = draw(st.lists(st.tuples(st.integers(-20, 40), st.integers(1, 15)), max_size=3))
    windows = [first, second] + [(s, s + n) for s, n in extras]
    return draw(st.permutations(windows))


@given(windows=window_lists())
def test_in_windows_equals_brute_force_at_every_edge(windows):
    covered = {t for start, end in windows for t in range(start, end)}
    probes = {t for start, end in windows for t in (start - 1, start, end - 1, end)} | {0}
    for t in sorted(probes):
        assert in_windows(windows, t) is (t in covered)


# -- streams drawn ahead ---------------------------------------------------------

BLOCK = 16
DRAWS = {
    # (a block of BLOCK items, one item): the values must be equal bit for bit.
    "scalar normals": (
        lambda rng: rng.normal(0.0, 3.0, BLOCK).tolist(),
        lambda rng: float(rng.normal(0.0, 3.0)),
    ),
    "bounded integers": (
        lambda rng: (20_000_000 + 500_000 * rng.integers(0, 21, BLOCK)).tolist(),
        lambda rng: 20_000_000 + 500_000 * int(rng.integers(0, 21)),
    ),
    "2-D rows": (
        lambda rng: rng.standard_normal((BLOCK, 12)),
        lambda rng: rng.standard_normal(12),
    ),
}


@pytest.mark.parametrize("kind", DRAWS)
def test_drawn_ahead_equals_one_draw_per_item(kind):
    draw_block, draw_one = DRAWS[kind]
    ahead, one = np.random.default_rng(5), np.random.default_rng(5)
    blocks = []

    def draw():
        blocks.append(None)
        return draw_block(ahead)

    n = 3 * BLOCK + 1  # three refills after the first block
    got = list(itertools.islice(drawn_ahead(draw), n))
    want = [draw_one(one) for _ in range(n)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    # A block is drawn only when an item of it is taken.
    assert len(blocks) == 4


class Holder:
    """An owner whose only reference to its stream is the iterator, which
    it has drawn a block of."""

    def __init__(self, items):
        self.items = items
        next(items)


def normals(rng):
    return drawn_ahead(lambda: rng.normal(0.0, 1.0, 8).tolist())


def sensing_channel(sim):
    """A channel that has drawn shadowing for one frame at one receiver."""

    class Probe:
        entity_id, position, rx_extra_loss_db = "gw", Position(0, 0), 0.0
        hears = ((PacketKind.DATA, None),)

        def on_receive(self, packet, rssi_dbm, now_us):
            pass

    channel = Channel(sim, params=ChannelParams(shadowing_sigma_db=2.0))
    channel.add_receiver(Probe())
    channel.begin_transmission("n1", Position(2, 0), Packet(kind=PacketKind.DATA, node_id="n1"), 14.0)
    sim.run_until(1_000_000)
    return channel


def drawing_mac(sim):
    mac = SarbMac(sim, SarbConfig(), sim.rng("mac"), lambda _: None, lambda _: None, lambda _: None)
    next(mac._offsets_us)
    return mac


@pytest.mark.parametrize(
    "make_owner",
    [
        lambda sim: Holder(normals(sim.rng("x"))),
        lambda sim: Holder(boards._noise_rows(sim.rng("n1.primary-sensor"))),
        sensing_channel,
        drawing_mac,
    ],
    ids=["holder", "sensor", "channel", "mac"],
)
def test_an_owner_of_a_drawn_ahead_stream_dies_on_del(make_owner):
    sim = Simulator(master_seed=1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        owner = make_owner(sim)
        released = weakref.ref(owner)
        del owner
        assert released() is None
    finally:
        if enabled:
            gc.enable()
