import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from redwsn.engine import (
    EventHandle,
    SchedulingError,
    Simulator,
    draw_uniform_grid,
    ms_to_us,
    stream_rng,
)


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


def test_mark_sits_between_earlier_and_later_events():
    sim = Simulator()
    seen = []
    sim.schedule_at(50, lambda: seen.append(sim.now_seq))
    mark = sim.mark()
    sim.schedule_at(50, lambda: seen.append(sim.now_seq))
    assert sim.now_seq > mark  # outside any event
    sim.run_until(50)
    assert seen[0] < mark < seen[1]
    assert sim.now_seq > seen[1]


def test_events_may_schedule_followups():
    sim = Simulator()
    fired = []

    def first():
        fired.append(sim.now_us)
        sim.schedule_in(10, lambda: fired.append(sim.now_us))

    sim.schedule_at(5, first)
    sim.run_until(100)
    assert fired == [5, 15]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule_at(10, lambda: fired.append(1))
    sim.schedule_at(20, lambda: fired.append(2))
    handle.cancel()
    sim.run_until(100)
    assert fired == [2]


def test_cancel_drops_the_callback():
    handle = Simulator().schedule_at(10, lambda: None)
    handle.cancel()
    assert handle.fn is None


def test_close_cancels_every_pending_event():
    sim = Simulator()
    fired = []
    handles = [sim.schedule_at(t, lambda t=t: fired.append(t)) for t in (10, 20, 30)]
    sim.run_until(15)
    sim.close()
    assert all(h.cancelled and h.fn is None for h in handles[1:])
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


@given(st.integers(0, 2**31 - 1))
def test_draw_uniform_grid_stays_on_grid(seed):
    rng = np.random.default_rng(seed)
    value = draw_uniform_grid(rng, 20_000, 30_000, 500)
    assert 20_000 <= value <= 30_000
    assert (value - 20_000) % 500 == 0


def test_draw_uniform_grid_covers_endpoints():
    rng = np.random.default_rng(0)
    seen = {draw_uniform_grid(rng, 0, 1_000, 500) for _ in range(200)}
    assert seen == {0, 500, 1_000}


def test_draw_uniform_grid_rejects_bad_ranges():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw_uniform_grid(rng, 0, 999, 500)
    with pytest.raises(ValueError):
        draw_uniform_grid(rng, 10, 5, 1)
    with pytest.raises(ValueError):
        draw_uniform_grid(rng, 0, 100, 0)


def test_event_handle_is_lightweight():
    handle = EventHandle(lambda: None)
    assert not handle.cancelled
    handle.cancel()
    assert handle.cancelled
