import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from redwsn import channel as channel_module
from redwsn.channel import (
    NOISE_SOURCE_ID,
    Channel,
    ChannelParams,
    NoiseConfig,
    Position,
    Transmission,
    link_budget_dbm,
    rssi_at,
)
from redwsn.engine import Simulator, ms_to_us
from redwsn.lora import LoraParams, time_on_air_us
from redwsn.packets import Packet, PacketKind
from redwsn.scenario import NodeConfig, build_preset
from redwsn.simulation import Simulation


# Every kind from every node, noise included.
EVERY_FRAME = tuple((kind, None) for kind in (PacketKind.DATA, PacketKind.HEARTBEAT, PacketKind.ACK, PacketKind.NOISE))


class Probe:
    """Minimal receiver recording every frame it hears."""

    def __init__(self, entity_id, position, hears=EVERY_FRAME):
        self.entity_id = entity_id
        self.position = position
        self.rx_extra_loss_db = 0.0
        self.hears = hears
        self.heard = []

    def on_receive(self, packet, rssi_dbm, now_us):
        self.heard.append((packet, rssi_dbm, now_us))


def quiet_params(**overrides):
    return ChannelParams(shadowing_sigma_db=0.0, **overrides)


def data_packet(node="n1", size=76):
    return Packet(kind=PacketKind.DATA, node_id=node, size_bytes=size)


def test_position_distance():
    with pytest.raises(ValueError):
        Position(math.nan, 0)


def path_loss_db(distance_m, params):
    """The path loss at ``distance_m``, through the link budget: at 0 dBm
    the budget is minus the loss, exactly."""
    return -link_budget_dbm(Position(0, 0), Position(distance_m, 0), 0.0, params)


def test_path_loss_log_distance():
    params = quiet_params()
    at_ref = path_loss_db(1.0, params)
    assert at_ref == pytest.approx(params.reference_loss_db)
    # n = 2: +6.02 dB per distance doubling.
    assert path_loss_db(2.0, params) - at_ref == pytest.approx(20 * math.log10(2))
    # Below the reference distance the loss floors at the reference loss.
    assert path_loss_db(0.1, params) == pytest.approx(at_ref)


def two_call_budget(tx, rx, tx_power_dbm, params):
    """The link budget as three calls made it: the distance, the path loss
    with its floor, and the difference."""
    d = max(math.hypot(tx.x - rx.x, tx.y - rx.y), params.reference_distance_m)
    loss = params.reference_loss_db + 10.0 * params.path_loss_exponent * math.log10(d / params.reference_distance_m)
    return tx_power_dbm - loss


coordinates = st.floats(-50.0, 50.0, allow_nan=False)


@settings(deadline=None)
@given(
    tx=st.builds(Position, coordinates, coordinates),
    # A receiver below, at or above the reference distance, or on the
    # transmitter itself.
    offset=st.one_of(
        st.just(0.0),
        st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 2.5]),
        st.floats(0.0, 80.0, allow_nan=False),
    ),
    angle=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
    tx_power_dbm=st.sampled_from([-4.0, 0.0, 14.0, 20.0]),
    exponent=st.sampled_from([0.0, 2.0, 2.7, 3.5]),
    reference_m=st.sampled_from([0.5, 1.0, 2.5]),
)
@example(tx=Position(0, 0), offset=1.0, angle=0.0, tx_power_dbm=14.0, exponent=2.0, reference_m=1.0)
@example(tx=Position(0, 0), offset=math.nextafter(1.0, 0.0), angle=0.0, tx_power_dbm=14.0, exponent=2.0, reference_m=1.0)
@example(tx=Position(0, 0), offset=math.nextafter(1.0, 2.0), angle=0.0, tx_power_dbm=14.0, exponent=2.0, reference_m=1.0)
@example(tx=Position(3, -2), offset=0.0, angle=0.0, tx_power_dbm=14.0, exponent=2.7, reference_m=2.5)
def test_link_budget_is_the_three_call_budget_bit_for_bit(tx, offset, angle, tx_power_dbm, exponent, reference_m):
    params = quiet_params(path_loss_exponent=exponent, reference_distance_m=reference_m)
    rx = Position(tx.x + offset * math.cos(angle), tx.y + offset * math.sin(angle))
    got = link_budget_dbm(tx, rx, tx_power_dbm, params)
    assert got.hex() == two_call_budget(tx, rx, tx_power_dbm, params).hex()


def test_rssi_calibration_anchor():
    # In-module link: 2 m at 14 dBm reads about -98 dBm.
    rssi = rssi_at(Position(0, 0), Position(2, 0), 14.0, None, quiet_params())
    assert rssi == pytest.approx(-98.02, abs=0.01)


def test_rssi_agc_ceiling():
    params = quiet_params()
    rssi = rssi_at(Position(0, 0), Position(0.01, 0), 30.0, None, params)
    assert rssi == params.agc_ceiling_dbm


def test_rssi_shadowing_varies_per_draw():
    rng = np.random.default_rng(1)
    params = ChannelParams(shadowing_sigma_db=2.0)
    draws = {rssi_at(Position(0, 0), Position(2, 0), 14.0, rng, params) for _ in range(8)}
    assert len(draws) > 1


def test_lone_frame_is_delivered():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)
    channel.begin_transmission("n1.primary", Position(2, 0), data_packet(), 14.0)
    sim.run_until(1_000_000)
    assert len(probe.heard) == 1
    assert probe.heard[0][1] == pytest.approx(-98.02, abs=0.01)
    assert probe.heard[0][2] == time_on_air_us(76)


def test_below_sensitivity_is_lost():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)
    channel.begin_transmission("n1.primary", Position(500, 0), data_packet(), 14.0)
    sim.run_until(1_000_000)
    assert probe.heard == []


# Within the reference distance and with no shadowing the link budget is
# exact: 14 dBm arrives at 14 - 106 = -92.0 dBm, 20 dBm at -86.0 dBm.
NEAR = Position(0.5, 0)


@pytest.mark.parametrize("sensitivity, heard", [(-92.0, True), (math.nextafter(-92.0, 0), False)])
def test_a_frame_exactly_at_the_sensitivity_is_delivered(sensitivity, heard):
    sim = Simulator()
    channel = Channel(sim, params=quiet_params(sensitivity_dbm=sensitivity))
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)
    channel.begin_transmission("n1.primary", NEAR, data_packet(), 14.0)
    sim.run_until(1_000_000)
    assert [rssi for _, rssi, _ in probe.heard] == ([-92.0] if heard else [])


@pytest.mark.parametrize("capture_db, heard", [(6.0, ["strong"]), (6.001, [])])
def test_a_frame_exactly_the_capture_threshold_above_its_interferer_is_delivered(capture_db, heard):
    sim = Simulator()
    channel = Channel(sim, params=quiet_params(capture_threshold_db=capture_db, agc_ceiling_dbm=-80.0))
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)
    channel.begin_transmission("strong", NEAR, data_packet("strong"), 20.0)
    channel.begin_transmission("weak", Position(0, 0.5), data_packet("weak"), 14.0)
    sim.run_until(1_000_000)
    assert [p.node_id for p, _, _ in probe.heard] == heard


def test_collision_kills_both_when_no_capture():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)
    # Equidistant transmitters: neither beats the other by 6 dB.
    channel.begin_transmission("a", Position(2, 0), data_packet("a"), 14.0)
    channel.begin_transmission("b", Position(0, 2), data_packet("b"), 14.0)
    sim.run_until(1_000_000)
    assert probe.heard == []


def test_long_frame_collides_with_frame_that_ended_long_ago():
    # At SF12 a 76-byte frame lasts 3.28 s, so a collision partner that
    # ended two seconds before a later frame starts must still count.
    sim = Simulator()
    lora = LoraParams(spreading_factor=12)
    channel = Channel(sim, params=quiet_params(), lora=lora)
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)

    def send(source, position, size):
        channel.begin_transmission(source, position, data_packet(source, size), 14.0)

    send("a", Position(2, 0), 10)  # on the air for 0.99 s
    sim.schedule_at(500_000, lambda: send("b", Position(0, 2), 76))  # same RSSI as a
    # 18 dB weaker than b, so b would capture it.
    sim.schedule_at(2_500_000, lambda: send("c", Position(16, 0), 10))
    sim.run_until(5_000_000)
    assert probe.heard == []


def test_capture_effect_keeps_strong_frame():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)
    channel.begin_transmission("near", Position(1, 0), data_packet("near"), 14.0)
    channel.begin_transmission("far", Position(8, 0), data_packet("far"), 14.0)
    sim.run_until(1_000_000)
    # 1 m vs 8 m is an 18 dB margin: the near frame survives, the far one dies.
    assert [p.node_id for p, _, _ in probe.heard] == ["near"]


def test_non_overlapping_frames_both_delivered():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)
    channel.begin_transmission("a", Position(2, 0), data_packet("a"), 14.0)
    sim.schedule_at(
        time_on_air_us(76) + 1,
        lambda: channel.begin_transmission("b", Position(2, 0), data_packet("b"), 14.0),
    )
    sim.run_until(1_000_000)
    assert [p.node_id for p, _, _ in probe.heard] == ["a", "b"]


def test_half_duplex_transmitter_is_deaf():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    board = Probe("n2.primary", Position(4, 0))
    channel.add_receiver(board)
    # n2 transmits over the same span that n1's frame occupies.
    channel.begin_transmission("n2.primary", Position(4, 0), data_packet("n2", 10), 14.0)
    channel.begin_transmission("n1.primary", Position(2, 0), data_packet("n1", 76), 14.0)
    sim.run_until(1_000_000)
    assert board.heard == []


def test_transmitter_does_not_hear_itself():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    board = Probe("n1.primary", Position(2, 0))
    channel.add_receiver(board)
    channel.begin_transmission("n1.primary", Position(2, 0), data_packet(), 14.0)
    sim.run_until(1_000_000)
    assert board.heard == []


def test_busy_source_cannot_double_transmit():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    end_us = channel.begin_transmission("n1.primary", Position(2, 0), data_packet(), 14.0)
    assert end_us == channel.busy_until("n1.primary") > sim.now_us
    with pytest.raises(RuntimeError):
        channel.begin_transmission("n1.primary", Position(2, 0), data_packet(), 14.0)


def test_rssi_cached_per_frame_and_receiver():
    sim = Simulator()
    channel = Channel(sim, params=ChannelParams(shadowing_sigma_db=3.0))
    a = Probe("gw-a", Position(0, 0))
    b = Probe("gw-b", Position(0, 0))
    channel.add_receiver(a)
    channel.add_receiver(b)
    channel.begin_transmission("n1.primary", Position(2, 0), data_packet(), 14.0)
    sim.run_until(1_000_000)
    # Co-located gateways may still see different shadowing draws, but each
    # hears the frame exactly once at a single coherent value.
    assert len(a.heard) == 1 and len(b.heard) == 1


def test_a_late_receiver_gets_its_own_link_from_a_cached_position():
    # Link budgets are cached per transmitter position and power, keyed by
    # receiver index; a receiver registered after frames from that position
    # have ended must get its own link, and the earlier ones keep theirs.
    sim = Simulator()
    params = quiet_params()
    channel = Channel(sim, params=params)
    early = [Probe("gw-a", Position(0, 0)), Probe("gw-b", Position(-7, 3))]
    for probe in early:
        channel.add_receiver(probe)
    source = Position(2, 1)

    def send():
        channel.begin_transmission("n1.primary", source, data_packet(), 14.0)
        sim.run_until(sim.now_us + 1_000_000)

    send()
    send()
    late = Probe("gw-late", Position(15, -4))
    late.rx_extra_loss_db = 4.5
    channel.add_receiver(late)
    send()
    assert [rssi for _, rssi, _ in late.heard] == [rssi_at(source, late.position, 14.0, None, params) - 4.5]
    for probe in early:
        rssis = [rssi for _, rssi, _ in probe.heard]
        assert rssis == [rssi_at(source, probe.position, 14.0, None, params)] * 3
    # close() forgets the receivers, and with them the rows keyed by their
    # indices: a receiver registered afterwards takes index 0 anew.
    channel.close()
    again = Probe("gw-again", Position(-3, -3))
    channel.add_receiver(again)
    send()
    assert [rssi for _, rssi, _ in again.heard] == [rssi_at(source, again.position, 14.0, None, params)]


def test_noise_train_counts_and_respects_duration():
    sim = Simulator(master_seed=1)
    channel = Channel(sim, params=quiet_params())
    probe = Probe("gw", Position(0, 0), hears=((PacketKind.DATA, None),))
    channel.add_receiver(probe)
    source = NoiseConfig(period_ms=500, payload_bytes=10, jitter_ms=0, position=Position(1, 0))
    count = channel.add_noise(source, 10_000_000, sim.rng("noise-schedule"))
    assert count == 20  # one burst per 500 ms over 10 s
    assert list(channel._train.starts_us) == [k * 500_000 for k in range(1, 21)]

    # The burst from 1 m drowns a data frame from 2 m that overlaps it; a
    # frame between two bursts arrives.
    def send(seq):
        packet = Packet(kind=PacketKind.DATA, node_id="n1", seq=seq)
        channel.begin_transmission("n1.primary", Position(2, 0), packet, 14.0)

    sim.schedule_at(1_020_000, lambda: send(1))
    sim.schedule_at(1_200_000, lambda: send(2))
    sim.run_until(10_000_000 + 50_000)
    assert [p.seq for p, _, _ in probe.heard] == [2]


def scalar_burst_starts(noise, airtime_us, duration_us, rng):
    """The burst start times as start_noise drew them before the jitter came
    in blocks: one scalar draw per burst."""
    period_us = ms_to_us(noise.period_ms)
    jitter_us = ms_to_us(noise.jitter_ms)
    starts = []
    t = period_us
    while t <= duration_us:
        starts.append(t)
        step = period_us
        if jitter_us > 0:
            step += int(rng.integers(-jitter_us, jitter_us + 1))
        t = max(t + step, t + airtime_us + 1)
    return starts


def test_noise_train_starts_match_one_scalar_draw_per_burst():
    noise = NoiseConfig(period_ms=500, jitter_ms=50)
    duration_us = 1_600_000_000  # about 3,200 bursts: three block refills
    sim = Simulator(master_seed=3)
    channel = Channel(sim)
    count = channel.add_noise(noise, duration_us, sim.rng("noise-schedule"))
    scalar_rng = Simulator(master_seed=3).rng("noise-schedule")
    expected = scalar_burst_starts(noise, time_on_air_us(noise.payload_bytes), duration_us, scalar_rng)
    assert count == len(expected) >= 3000
    assert list(channel._train.starts_us) == expected


# Burst indices on either side of the first two block refills.
BLOCK_EDGES = [0, 1, 1022, 1023, 1024, 1025, 2047, 2048, 2049]


@st.composite
def noise_horizons(draw):
    """A noise source and a run length: below one period, exactly on a start
    (block edges included), or one microsecond either side of a start."""
    period_ms = draw(st.integers(1, 600))
    # Zero jitter, or up to twice the period, where airtime + 1 binds.
    jitter_ms = draw(
        st.one_of(st.just(0), st.sampled_from([period_ms, 2 * period_ms]), st.integers(0, 2 * period_ms))
    )
    # 0 and 10 bytes stay under most periods; 200 bytes are 318 ms on air.
    payload_bytes = draw(st.sampled_from([0, 10, 200]))
    noise = NoiseConfig(period_ms=period_ms, payload_bytes=payload_bytes, jitter_ms=jitter_ms)
    seed = draw(st.integers(0, 2**16))
    mode = draw(st.sampled_from(["below", "on", "before", "after"]))
    k = draw(st.one_of(st.sampled_from(BLOCK_EDGES), st.integers(0, BLOCK_EDGES[-1])))
    return noise, seed, mode, k


@settings(max_examples=80, deadline=None)
@given(noise_horizons())
def test_noise_train_matches_scalar_draws_at_its_edges(case):
    noise, seed, mode, k = case
    airtime_us = time_on_air_us(noise.payload_bytes)
    period_us, jitter_us = ms_to_us(noise.period_ms), ms_to_us(noise.jitter_ms)
    # Long enough for more than BLOCK_EDGES[-1] + 1 starts: no step exceeds
    # period + jitter or airtime + 1.
    horizon_us = (BLOCK_EDGES[-1] + 2) * (period_us + jitter_us + airtime_us + 1)
    reference_rng = Simulator(master_seed=seed).rng("noise-schedule")
    reference = scalar_burst_starts(noise, airtime_us, horizon_us, reference_rng)
    assert len(reference) > BLOCK_EDGES[-1] + 1
    duration_us = {
        "below": period_us - 1,
        "on": reference[k],
        "before": reference[k] - 1,
        "after": reference[k] + 1,
    }[mode]
    # The starts up to a horizon do not depend on how far the horizon lies.
    expected = [t for t in reference if t <= duration_us]

    sim = Simulator(master_seed=seed)
    channel = Channel(sim)
    rng = sim.rng("noise-schedule")
    assert channel.add_noise(noise, duration_us, rng) == len(expected)
    assert list(channel._train.starts_us) == expected
    # Exactly one draw of enough jitters for steps no shorter than
    # ``shortest`` to pass the horizon, and no draw without jitter.
    shortest = max(period_us - jitter_us, airtime_us + 1)
    draw_rng = Simulator(master_seed=seed).rng("noise-schedule")
    if jitter_us > 0:
        draw_rng.integers(-jitter_us, jitter_us + 1, size=duration_us // shortest + 1)
    assert rng.bit_generator.state == draw_rng.bit_generator.state


def test_noise_jitter_keeps_mean_period():
    sim = Simulator(master_seed=2)
    channel = Channel(sim, params=quiet_params())
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)
    source = NoiseConfig(period_ms=500, payload_bytes=10, jitter_ms=50, position=Position(1, 0))
    count = channel.add_noise(source, 600_000_000, sim.rng("noise-schedule"))
    assert count == pytest.approx(1200, rel=0.02)


def test_receivers_cannot_join_while_a_frame_is_on_the_air():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    channel.add_receiver(Probe("gw", Position(0, 0)))
    channel.begin_transmission("n1.primary", Position(2, 0), data_packet(), 14.0)
    with pytest.raises(RuntimeError):
        channel.add_receiver(Probe("late", Position(1, 0)))
    sim.run_until(1_000_000)
    late = Probe("late", Position(1, 0))
    channel.add_receiver(late)  # the air is clear again
    channel.begin_transmission("n1.primary", Position(2, 0), data_packet(), 14.0)
    sim.run_until(2_000_000)
    assert len(late.heard) == 1


def test_receivers_cannot_join_at_the_instant_a_frame_ends():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    channel.add_receiver(Probe("gw", Position(0, 0)))
    channel.begin_transmission("n1.primary", Position(2, 0), data_packet(), 14.0)
    end_us = time_on_air_us(data_packet().size_bytes, LoraParams())
    sim.run_until(end_us)
    with pytest.raises(RuntimeError, match="no frame is on the air"):
        channel.add_receiver(Probe("late", Position(1, 0)))
    sim.run_until(end_us + 1)
    channel.add_receiver(Probe("late", Position(1, 0)))


def test_receivers_cannot_join_after_the_noise_train():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    channel.add_noise(NoiseConfig(), 10_000_000, sim.rng("noise-schedule"))
    with pytest.raises(RuntimeError, match="noise train"):
        channel.add_receiver(Probe("gw", Position(0, 0), hears=((PacketKind.DATA, None),)))


def test_burst_precedes_frames_at_an_equal_start():
    # Frames begun by events scheduled before the train and after it alike
    # follow the burst that starts with them, in the order they began.
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    channel.add_receiver(Probe("gw", Position(0, 0), hears=((PacketKind.DATA, None),)))

    def send(source_id):
        channel.begin_transmission(source_id, Position(1, 0), data_packet(), 14.0)

    sim.schedule_at(500_000, lambda: send("a"))
    channel.add_noise(NoiseConfig(jitter_ms=0), 1_000_000, sim.rng("noise-schedule"))
    sim.schedule_at(500_000, lambda: send("b"))
    sim.run_until(500_000)
    assert [tx.source_id for tx in channel._log] == [NOISE_SOURCE_ID, "a", "b"]


def test_a_second_noise_train_is_refused():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    channel.add_receiver(Probe("gw", Position(0, 0), hears=((PacketKind.DATA, None),)))
    channel.add_noise(NoiseConfig(jitter_ms=0), 2_000_000, sim.rng("noise-schedule"))
    sim.schedule_at(500_000, lambda: channel.begin_transmission("a", Position(1, 0), data_packet(), 14.0))
    sim.run_until(500_000)
    train, log = channel._train, list(channel._log)
    with pytest.raises(RuntimeError, match="noise train"):
        channel.add_noise(NoiseConfig(period_ms=300), 2_000_000, sim.rng("noise-schedule-2"))
    assert channel._train is train and channel._log == log


@pytest.mark.parametrize("late_us, logged", [(0, False), (1, True)])
def test_a_frame_logs_the_next_burst_only_if_it_ends_after_its_start(late_us, logged):
    # Bursts start every 500 ms on the dot.  A frame that ends exactly on
    # the first one's start does not overlap it: it logs nothing and leaves
    # the cursor; one that ends a microsecond later logs it.
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    channel.add_receiver(Probe("gw", Position(0, 0), hears=((PacketKind.DATA, None),)))
    channel.add_noise(NoiseConfig(jitter_ms=0), 2_000_000, sim.rng("noise-schedule"))
    airtime = time_on_air_us(data_packet().size_bytes, LoraParams())
    begin = 500_000 - airtime + late_us
    sim.schedule_at(begin, lambda: channel.begin_transmission("a", Position(1, 0), data_packet(), 14.0))
    sim.run_until(begin)
    bursts = [tx.start_us for tx in channel._log if tx.source_id == NOISE_SOURCE_ID]
    assert (bursts, channel._train.next) == (([500_000], 1) if logged else ([], 0))


def test_shadowing_is_drawn_from_the_channel_stream_only():
    with pytest.raises(TypeError):
        Channel(Simulator(), shadowing_rng=np.random.default_rng(0))
    # More frames than one block of draws: the block refill must continue
    # the stream exactly where scalar draws would.
    sim = Simulator(master_seed=7)
    params = ChannelParams(shadowing_sigma_db=3.0)
    channel = Channel(sim, params=params)
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)
    frames = 1500
    for k in range(frames):
        sim.schedule_at(
            k * 200_000,
            lambda: channel.begin_transmission("n1.primary", Position(3, 0), data_packet(), 14.0),
        )
    sim.run_until(frames * 200_000)
    stream = Simulator(master_seed=7).rng("channel-shadowing")
    expected = [rssi_at(Position(3, 0), Position(0, 0), 14.0, stream, params) for _ in range(frames)]
    assert [rssi for _, rssi, _ in probe.heard] == expected


def test_unheard_noise_still_defeats_capture():
    # Noise is addressed to nobody, yet it is interference at every
    # receiver: the data frame from 2 m arrives 2.5 dB below the burst from
    # 1.5 m, not the 6 dB above it that capture needs.
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    gw = Probe("gw", Position(0, 0), hears=((PacketKind.DATA, None),))
    channel.add_receiver(gw)
    noise = Packet(kind=PacketKind.NOISE, node_id="noise", size_bytes=10)
    channel.begin_transmission("n1.primary", Position(2, 0), data_packet(), 14.0)
    channel.begin_transmission("noise", Position(1.5, 0), noise, 14.0)
    sim.run_until(1_000_000)
    assert gw.heard == []
    # Without the burst the same frame gets through.
    channel.begin_transmission("n1.primary", Position(2, 0), data_packet(), 14.0)
    sim.run_until(2_000_000)
    assert [p.kind for p, _, _ in gw.heard] == [PacketKind.DATA]


def test_frame_nobody_hears_schedules_nothing():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    channel.add_receiver(Probe("gw", Position(0, 0), hears=((PacketKind.DATA, None),)))
    channel.add_receiver(Probe("n1.primary", Position(2, 0), hears=((PacketKind.ACK, "n1"),)))
    for packet in (
        Packet(kind=PacketKind.NOISE, node_id="noise", size_bytes=10),
        Packet(kind=PacketKind.ACK, node_id="n2", size_bytes=8),
    ):
        end_us = channel.begin_transmission(packet.node_id, Position(1, 0), packet, 14.0)
        assert channel.busy_until(packet.node_id) == end_us > sim.now_us  # on the air
    assert sim.run_until(10_000_000) == 0  # but no resolve event was pending
    # A frame with an audience is resolved.
    channel.begin_transmission("n1", Position(1, 0), Packet(kind=PacketKind.ACK, node_id="n1"), 14.0)
    assert sim.run_until(20_000_000) == 1


def hears_frame(receiver, packet):
    return any(kind is packet.kind and node in (None, packet.node_id) for kind, node in receiver.hears)


def scanned_audience(receivers, packet):
    """The audience as one scan over every receiver: the oracle for the
    channel's index."""
    return [(i, r) for i, r in enumerate(receivers) if hears_frame(r, packet)]


AUDIENCE_KINDS = (PacketKind.DATA, PacketKind.ACK, PacketKind.HEARTBEAT)
AUDIENCE_NODES = ("n1", "n2", "n3")
# Wildcards and repeats are common; an empty tuple hears nothing.
hears_entries = st.lists(
    st.tuples(st.sampled_from(AUDIENCE_KINDS), st.sampled_from((None,) + AUDIENCE_NODES)), max_size=5
).map(tuple)
AUDIENCE_KEYS = [(kind, node) for kind in AUDIENCE_KINDS for node in AUDIENCE_NODES]
# Hears n1's data both by name (twice) and as every node's.
BOTH_N1_DATA = ((PacketKind.DATA, "n1"), (PacketKind.DATA, None), (PacketKind.DATA, "n1"))


@settings(max_examples=200, deadline=None)
@given(
    hears=st.lists(hears_entries, max_size=8),
    # A receiver that hears nothing, and one that hears n1's data both by
    # name (twice) and as every node's, go in at drawn places.
    deaf_at=st.integers(0, 8),
    both_at=st.integers(0, 9),
    # Receivers registered after the first audiences are built.
    late=st.integers(0, 10),
    keys=st.permutations(AUDIENCE_KEYS),
)
# A drawn receiver may hear exactly what the inserted one hears.
@example(hears=[BOTH_N1_DATA], deaf_at=0, both_at=0, late=0, keys=AUDIENCE_KEYS)
def test_indexed_audience_equals_a_scan_of_every_receiver(hears, deaf_at, both_at, late, keys):
    hears = list(hears)
    hears.insert(min(deaf_at, len(hears)), ())
    both_index = min(both_at, len(hears))
    hears.insert(both_index, BOTH_N1_DATA)
    receivers = [Probe(f"r{i}", Position(i, 0), hears=h) for i, h in enumerate(hears)]
    channel = Channel(Simulator(), params=quiet_params())
    split = min(late, len(receivers))
    for r in receivers[:split]:
        channel.add_receiver(r)
    packets = [Packet(kind=kind, node_id=node) for kind, node in keys]
    for packet in packets[: len(packets) // 2]:
        assert channel._audience(packet) == scanned_audience(receivers[:split], packet)
    for r in receivers[split:]:
        channel.add_receiver(r)
    for packet in packets:
        audience = channel._audience(packet)
        assert audience == scanned_audience(receivers, packet)
        assert len({id(r) for _, r in audience}) == len(audience)
    n1_data = Packet(kind=PacketKind.DATA, node_id="n1")
    assert sum(r is receivers[both_index] for _, r in channel._audience(n1_data)) == 1
    channel.close()
    assert channel._audience(n1_data) == []


@pytest.mark.parametrize("preset", ["HF", "GWF"])
def test_a_frame_takes_its_audience_once_when_it_begins(monkeypatch, preset):
    sim = Simulation(build_preset(preset), seed=3)
    channel = sim.channel
    receivers = list(channel._receivers)
    audience = Channel._audience
    lookups = []

    def counted_audience(self, packet):
        lookups.append(packet)
        return audience(self, packet)

    frames, bursts = [], []

    def recorded_transmission(*args):
        tx = Transmission(*args)
        if tx.source_id == NOISE_SOURCE_ID:
            bursts.append(tx)
        else:
            frames.append((tx, audience(channel, tx.packet)))
        return tx

    monkeypatch.setattr(Channel, "_audience", counted_audience)
    monkeypatch.setattr(channel_module, "Transmission", recorded_transmission)
    sim.run()
    assert frames and bursts
    for tx, expected in frames:
        assert tx.audience == expected == scanned_audience(receivers, tx.packet)
    assert all(tx.audience == () for tx in bursts)
    # One lookup per frame begun, and none when it is resolved.
    assert lookups == [tx.packet for tx, _ in frames]
    # Logged frames hold their receivers, so a finished run drops the log.
    assert channel._log == []


def fleet_of_50():
    nodes = tuple(
        NodeConfig(id=f"n{i + 1}", position=Position(1.5 * (1 + i // 10), 0.3 * (i % 10))) for i in range(50)
    )
    return replace(build_preset("control-noise"), nodes=nodes, duration_ms=300_000)


@pytest.mark.parametrize(
    "make_config",
    [lambda: build_preset("HF"), lambda: build_preset("GWF"), fleet_of_50],
    ids=["HF", "GWF", "control-noise-x50"],
)
def test_the_log_stays_ordered_and_keeps_every_live_entry(monkeypatch, make_config):
    sim = Simulation(make_config(), seed=3)
    channel = sim.channel
    begin = Channel.begin_transmission
    # The log as the old upkeep kept it: rebuilt without every entry that
    # ended before the horizon, whenever the head had.
    old_log = []
    calls = []

    def checked_begin(self, *args):
        before = {id(t) for t in self._log}
        end = begin(self, *args)
        log, now = self._log, self.sim.now_us
        horizon = now - self._longest_airtime_us
        if old_log and old_log[0].end_us < horizon:
            old_log[:] = [t for t in old_log if t.end_us >= horizon]
        old_log.extend(t for t in log if id(t) not in before)
        # Ordered by start, with a burst before a frame at an equal start.
        for a, b in zip(log, log[1:]):
            assert a.start_us < b.start_us or (
                a.start_us == b.start_us and (a.source_id == NOISE_SOURCE_ID or b.source_id != NOISE_SOURCE_ID)
            )
        held = {id(t) for t in log}
        assert all(id(t) in held for t in old_log if t.end_us >= horizon)
        # Every other entry has ended before the horizon.
        kept = {id(t) for t in old_log}
        assert all(t.end_us < horizon for t in log if id(t) not in kept)
        calls.append(len(log))
        return end

    monkeypatch.setattr(Channel, "begin_transmission", checked_begin)
    sim.run()
    assert calls and max(calls) > 1


@dataclass
class ReferenceFrame:
    tx_id: int
    source_id: str
    position: Position
    packet: Packet
    tx_power_dbm: float
    start_us: int
    end_us: int
    rssi_cache: dict = field(default_factory=dict)

    def overlaps(self, start_us, end_us):
        return self.start_us < end_us and start_us < self.end_us


class ReferenceChannel:
    """The resolver as it was before frames were resolved once: per
    receiver that hears the frame, one log scan for deafness, one for
    interferers, and one rssi_at call per link.  The oracle for the
    differential test."""

    def __init__(self, sim, params, lora):
        self.sim = sim
        self.params = params
        self.lora = lora
        self._shadow_rng = sim.rng("channel-shadowing")
        self._receivers = []
        self._log = []
        self._longest_airtime_us = 0
        self._next_tx_id = 0

    def add_receiver(self, receiver):
        self._receivers.append(receiver)

    def busy_until(self, source_id):
        t = self.sim.now_us
        for tx in self._log:
            if tx.source_id == source_id and tx.end_us > t:
                t = tx.end_us
        return t

    def begin_transmission(self, source_id, position, packet, tx_power_dbm):
        now = self.sim.now_us
        airtime = time_on_air_us(packet.size_bytes, self.lora)
        tx = ReferenceFrame(self._next_tx_id, source_id, position, packet, tx_power_dbm, now, now + airtime)
        self._next_tx_id += 1
        self._longest_airtime_us = max(self._longest_airtime_us, airtime)
        horizon = now - self._longest_airtime_us
        if self._log and self._log[0].end_us < horizon:
            self._log = [t for t in self._log if t.end_us >= horizon]
        self._log.append(tx)
        self.sim.schedule_at(tx.end_us, lambda: self._resolve(tx))

    def _link_rssi(self, tx, receiver):
        cached = tx.rssi_cache.get(receiver.entity_id)
        if cached is None:
            cached = (
                rssi_at(tx.position, receiver.position, tx.tx_power_dbm, self._shadow_rng, self.params)
                - receiver.rx_extra_loss_db
            )
            tx.rssi_cache[receiver.entity_id] = cached
        return cached

    def _resolve(self, tx):
        now = self.sim.now_us
        for receiver in self._receivers:
            if receiver.entity_id == tx.source_id:
                continue
            if not hears_frame(receiver, tx.packet):
                continue
            deaf = any(
                other.source_id == receiver.entity_id and other.overlaps(tx.start_us, tx.end_us)
                for other in self._log
            )
            if deaf:
                continue
            rssi = self._link_rssi(tx, receiver)
            if rssi < self.params.sensitivity_dbm:
                continue
            overlapping = [
                other
                for other in self._log
                if other.tx_id != tx.tx_id
                and other.source_id != receiver.entity_id
                and other.overlaps(tx.start_us, tx.end_us)
            ]
            if all(
                rssi >= self._link_rssi(other, receiver) + self.params.capture_threshold_db
                for other in overlapping
            ):
                receiver.on_receive(tx.packet, rssi, now)


class Recorder:
    """Receiver that logs every delivery; an acking one answers data frames
    the moment they end, as a gateway does."""

    def __init__(self, entity_id, position, rx_extra_loss_db, hears, channel, log, acks):
        self.entity_id = entity_id
        self.position = position
        self.rx_extra_loss_db = rx_extra_loss_db
        self.hears = hears
        self.channel = channel
        self.log = log
        self.acks = acks

    def on_receive(self, packet, rssi_dbm, now_us):
        self.log.append((self.entity_id, packet.kind, packet.node_id, packet.seq, rssi_dbm.hex(), now_us))
        if self.acks and packet.kind is PacketKind.DATA and self.channel.busy_until(self.entity_id) <= now_us:
            ack = Packet(kind=PacketKind.ACK, node_id=self.entity_id, seq=packet.seq, size_bytes=8)
            self.channel.begin_transmission(self.entity_id, self.position, ack, 14.0)


coordinates = st.floats(-30.0, 30.0, allow_nan=False)

# Payload sizes drawn often, so frames that begin together often end together
# and share their window; 8 bytes is the size of an ack.
CLUSTER_SIZES = (8, 20, 76)
CLUSTER_RUN_US = 6_000_000


@st.composite
def channel_scenarios(draw, noisy=False):
    n = draw(st.integers(2, 8))
    positions = [(f"r{i}", Position(draw(coordinates), draw(coordinates))) for i in range(n)]
    # Sources are some of the receivers plus two transmit-only ones.
    sources = positions + [(f"x{i}", Position(draw(coordinates), draw(coordinates))) for i in range(2)]
    # What a receiver hears: nothing, all data, all acks, every kind (but
    # noise, with a train: no receiver hears it), or the data of one source.
    every = tuple(entry for entry in EVERY_FRAME if not noisy or entry[0] is not PacketKind.NOISE)
    hears = st.one_of(
        st.sampled_from(((), ((PacketKind.DATA, None),), ((PacketKind.ACK, None),), every)),
        st.sampled_from([sid for sid, _ in sources]).map(lambda sid: ((PacketKind.DATA, sid),)),
    )
    receivers = [(rid, position, draw(st.floats(0.0, 12.0)), draw(hears)) for rid, position in positions]
    # Groups of frames from distinct sources that begin together, mostly with
    # the group's payload size, so that they end together; a frame of its own
    # size ends before or after them.
    groups = draw(
        st.lists(
            st.tuples(
                st.integers(0, CLUSTER_RUN_US // 100_000),  # start in 100 ms steps: equal starts are common
                st.one_of(st.sampled_from(CLUSTER_SIZES), st.integers(1, 80)),  # payload bytes
                st.lists(
                    st.tuples(
                        st.sampled_from(sources),
                        st.sampled_from((None, None, None) + CLUSTER_SIZES),  # None: the group's size
                        st.sampled_from((2.0, 14.0)),  # transmit power, dBm
                    ),
                    min_size=1,
                    max_size=3,
                    unique_by=lambda entry: entry[0][0],
                ),
            ),
            min_size=1,
            max_size=10,
        )
    )
    frames = [
        (step, source, size if own is None else own, power)
        for step, size, group in groups
        for source, own, power in group
    ]
    sf = draw(st.integers(7, 12))
    lora = LoraParams(spreading_factor=sf)
    params = ChannelParams(shadowing_sigma_db=draw(st.floats(0.5, 8.0)))
    noise = None
    if noisy:
        # Without jitter, bursts start on the frames' 100 ms grid.
        noise = NoiseConfig(
            period_ms=draw(st.sampled_from((100, 300, 500))),
            payload_bytes=draw(st.sampled_from((1,) + CLUSTER_SIZES)),
            jitter_ms=draw(st.sampled_from((0, 0, 50))),
            position=Position(draw(coordinates), draw(coordinates)),
            tx_power_dbm=draw(st.sampled_from((2.0, 14.0))),
        )
    return draw(st.integers(0, 2**32 - 1)), params, lora, receivers, frames, noise


def deliveries(make_channel, scenario):
    seed, params, lora, receivers, frames, noise = scenario
    sim = Simulator(master_seed=seed)
    channel = make_channel(sim, params, lora)
    log = []
    for i, (rid, position, extra_loss, hears) in enumerate(receivers):
        channel.add_receiver(Recorder(rid, position, extra_loss, hears, channel, log, acks=i == 0))
    if noise is not None:
        # Before every frame's event: the reference's burst events fire
        # first at their instants, as the train's bursts interfere.
        start_train = channel.add_noise if isinstance(channel, Channel) else partial(start_noise_as_events, channel)
        log.append(("bursts", start_train(noise, CLUSTER_RUN_US, sim.rng("noise-schedule"))))

    def send(seq, source_id, position, size, power):
        if channel.busy_until(source_id) > sim.now_us:
            log.append(("busy", source_id, seq))
            return
        packet = Packet(kind=PacketKind.DATA, node_id=source_id, seq=seq, size_bytes=size)
        channel.begin_transmission(source_id, position, packet, power)

    for seq, (step, (source_id, position), size, power) in enumerate(frames):
        sim.schedule_at(step * 100_000, lambda a=(seq, source_id, position, size, power): send(*a))
    sim.run_until(CLUSTER_RUN_US + 20_000_000)
    return log


class WindowCountingChannel(Channel):
    """The channel, counting the resolves that reuse the kept window of
    frames on the air, and checking that a window is kept only for a frame
    that shares the air."""

    def __init__(self, sim, params, lora):
        super().__init__(sim, params=params, lora=lora)
        self.reused = 0

    def _resolve(self, tx):
        kept = self._window
        super()._resolve(tx)
        if kept is not None and kept[:2] == (tx.start_us, tx.end_us):
            self.reused += 1
        elif self._window is not kept:
            assert any(other is not tx for other in self._window[2])


def check_against_the_reference(noisy):
    """The same deliveries as ReferenceChannel at bit-equal RSSI over drawn
    scenarios, of which many reuse a kept window."""
    reused = []

    @settings(max_examples=150, deadline=None)
    @given(scenario=channel_scenarios(noisy))
    def check(scenario):
        channels = []

        def counting_channel(sim, params, lora):
            channels.append(WindowCountingChannel(sim, params, lora))
            return channels[-1]

        got = deliveries(counting_channel, scenario)
        assert got == deliveries(ReferenceChannel, scenario)
        received = [entry[:4] for entry in got if entry[0] not in ("busy", "bursts")]
        assert len(received) == len(set(received))  # each (frame, receiver) at most once
        event("reuses a window" if channels[0].reused else "reuses no window")
        reused.append(channels[0].reused)

    check()
    # More than half the examples resolve some frame from a kept window; under
    # a quarter would mean the strategy lost its clusters.
    assert sum(count > 0 for count in reused) >= len(reused) // 4


def test_resolution_matches_the_per_receiver_reference():
    check_against_the_reference(noisy=False)


def test_resolution_under_a_noise_train_matches_the_per_receiver_reference():
    check_against_the_reference(noisy=True)


def start_noise_as_events(channel, noise, duration_us, rng):
    """start_noise as it was when every burst was an event that put a frame
    on the air through begin_transmission: the oracle for the train."""
    packet = Packet(kind=PacketKind.NOISE, node_id=NOISE_SOURCE_ID, size_bytes=noise.payload_bytes)

    def burst():
        channel.begin_transmission(NOISE_SOURCE_ID, noise.position, packet, noise.tx_power_dbm)

    airtime_us = time_on_air_us(noise.payload_bytes, channel.lora)
    starts = scalar_burst_starts(noise, airtime_us, duration_us, rng)
    for t in starts:
        channel.sim.schedule_at(t, burst)
    return len(starts)


NOISY_RUN_US = 4_000_000

# What a receiver hears; never noise, which is never resolved.
NOT_NOISE = st.sampled_from(
    (
        ((PacketKind.DATA, None),),
        ((PacketKind.ACK, None),),
        ((PacketKind.DATA, None), (PacketKind.ACK, None)),
        ((PacketKind.DATA, "x0"),),
    )
)


# Close enough that most links are above sensitivity.
near = st.floats(-8.0, 8.0, allow_nan=False)


@st.composite
def noisy_scenarios(draw):
    n = draw(st.integers(3, 6))
    positions = [(f"r{i}", Position(draw(near), draw(near))) for i in range(n)]
    sources = positions + [(f"x{i}", Position(draw(near), draw(near))) for i in range(2)]
    receivers = [(rid, position, draw(st.floats(0.0, 6.0)), draw(NOT_NOISE)) for rid, position in positions]
    noise = NoiseConfig(
        period_ms=500,
        payload_bytes=draw(st.integers(1, 30)),
        jitter_ms=draw(st.sampled_from((0, 0, 50))),
        position=Position(draw(near), draw(near)),
        tx_power_dbm=draw(st.sampled_from((2.0, 14.0))),
    )
    frames = draw(
        st.lists(
            st.tuples(
                # On the 500 ms grid, where jitter-free bursts start too, or
                # a little or half a period after it.
                st.integers(0, NOISY_RUN_US // 500_000 - 1),
                st.sampled_from((0, 0, 20_000, 250_000)),
                st.booleans(),  # scheduled before the train, unless train_first
                st.sampled_from(sources),
                st.integers(1, 80),
                st.sampled_from((2.0, 14.0)),
            ),
            min_size=1,
            max_size=30,
        )
    )
    lora = LoraParams(spreading_factor=draw(st.sampled_from((7, 8, 9, 12))))
    params = ChannelParams(shadowing_sigma_db=draw(st.floats(0.5, 8.0)))
    return draw(st.integers(0, 2**32 - 1)), params, lora, receivers, noise, frames


def noisy_deliveries(start_train, scenario, train_first=False):
    seed, params, lora, receivers, noise, frames = scenario
    sim = Simulator(master_seed=seed)
    channel = Channel(sim, params=params, lora=lora)
    log = []
    for i, (rid, position, extra_loss, hears) in enumerate(receivers):
        channel.add_receiver(Recorder(rid, position, extra_loss, hears, channel, log, acks=i == 0))

    def send(seq, source_id, position, size, power):
        if channel.busy_until(source_id) > sim.now_us:
            log.append(("busy", source_id, seq))
            return
        packet = Packet(kind=PacketKind.DATA, node_id=source_id, seq=seq, size_bytes=size)
        channel.begin_transmission(source_id, position, packet, power)

    def schedule(before_train):
        for seq, (slot, offset, before, (source_id, position), size, power) in enumerate(frames):
            if before is before_train:
                args = (seq, source_id, position, size, power)
                sim.schedule_at(slot * 500_000 + offset, lambda a=args: send(*a))

    def register_train():
        log.append(("bursts", start_train(channel, noise, NOISY_RUN_US, sim.rng("noise-schedule"))))

    # With train_first, every frame's event is scheduled after the train, in
    # the same order as without it.
    if train_first:
        register_train()
    schedule(before_train=True)
    if not train_first:
        register_train()
    schedule(before_train=False)
    sim.run_until(NOISY_RUN_US + 5_000_000)
    return log


@settings(max_examples=300, deadline=None)
@given(scenario=noisy_scenarios())
def test_noise_train_matches_one_event_per_burst(scenario):
    # Registered first, each burst of the reference is an event that fires
    # before every frame's event at its instant: bursts first at a tie.
    train = noisy_deliveries(Channel.add_noise, scenario, train_first=True)
    assert train == noisy_deliveries(start_noise_as_events, scenario, train_first=True)


@settings(max_examples=300, deadline=None)
@given(scenario=noisy_scenarios())
def test_noise_train_order_does_not_depend_on_registration(scenario):
    first = noisy_deliveries(Channel.add_noise, scenario, train_first=True)
    assert first == noisy_deliveries(Channel.add_noise, scenario, train_first=False)
