import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from redwsn.engine import (
    SchedulingError,
    Simulator,
    ms_to_us,
    stream_rng,
)
from redwsn.mac import SarbConfig, SarbMac


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


def test_events_may_schedule_followups():
    sim = Simulator()
    fired = []

    def first():
        fired.append(sim.now_us)
        sim.schedule_in(10, lambda: fired.append(sim.now_us))

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


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(SchedulingError):
        sim.schedule_at(50, lambda: None)
    with pytest.raises(SchedulingError):
        sim.run_until(50)


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
    return [mac._draw_offset_us() for _ in range(n)]


@given(st.integers(0, 2**31 - 1))
def test_draw_uniform_grid_stays_on_grid(seed):
    (value,) = grid_offsets_us(SarbConfig(slot_min_ms=20_000, slot_max_ms=30_000, slot_step_ms=500), seed, 1)
    assert 20_000_000 <= value <= 30_000_000
    assert (value - 20_000_000) % 500_000 == 0


def test_draw_uniform_grid_covers_endpoints():
    cfg = SarbConfig(slot_min_ms=1_000, slot_max_ms=2_000, slot_step_ms=500, retx_slots_per_cycle=0)
    assert set(grid_offsets_us(cfg, 0, 200)) == {1_000_000, 1_500_000, 2_000_000}
