import math

import numpy as np
import pytest

from redwsn.channel import (
    Channel,
    ChannelParams,
    NoiseConfig,
    Position,
    path_loss_db,
    rssi_at,
    start_noise,
)
from redwsn.engine import Simulator
from redwsn.lora import LoraParams, time_on_air_us
from redwsn.packets import Packet, PacketKind


class Probe:
    """Minimal receiver recording everything it hears."""

    def __init__(self, entity_id, position):
        self.entity_id = entity_id
        self.position = position
        self.rx_extra_loss_db = 0.0
        self.heard = []

    def on_receive(self, packet, rssi_dbm, now_us):
        self.heard.append((packet, rssi_dbm, now_us))


def quiet_params(**overrides):
    return ChannelParams(shadowing_sigma_db=0.0, **overrides)


def data_packet(node="n1", size=76):
    return Packet(kind=PacketKind.DATA, node_id=node, size_bytes=size)


def test_position_distance():
    assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        Position(math.nan, 0)


def test_path_loss_log_distance():
    params = quiet_params()
    at_ref = path_loss_db(1.0, params)
    assert at_ref == pytest.approx(params.reference_loss_db)
    # n = 2: +6.02 dB per distance doubling.
    assert path_loss_db(2.0, params) - at_ref == pytest.approx(20 * math.log10(2))
    # Below the reference distance the loss floors at the reference loss.
    assert path_loss_db(0.1, params) == pytest.approx(at_ref)


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
    lora = LoraParams(spreading_factor=12, low_data_rate_optimize=True)
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
    channel.begin_transmission("n1.primary", Position(2, 0), data_packet(), 14.0)
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


def test_noise_train_counts_and_respects_duration():
    sim = Simulator(master_seed=1)
    channel = Channel(sim, params=quiet_params())
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)
    source = NoiseConfig(period_ms=500, payload_bytes=10, jitter_ms=0, position=Position(1, 0))
    count = start_noise(channel, source, 10_000_000, sim.rng("noise-schedule"))
    sim.run_until(10_000_000 + 50_000)
    assert count == 20  # one burst per 500 ms over 10 s
    assert len(probe.heard) == 20
    assert all(p.kind is PacketKind.NOISE for p, _, _ in probe.heard)


def test_noise_jitter_keeps_mean_period():
    sim = Simulator(master_seed=2)
    channel = Channel(sim, params=quiet_params())
    probe = Probe("gw", Position(0, 0))
    channel.add_receiver(probe)
    source = NoiseConfig(period_ms=500, payload_bytes=10, jitter_ms=50, position=Position(1, 0))
    count = start_noise(channel, source, 600_000_000, sim.rng("noise-schedule"))
    assert count == pytest.approx(1200, rel=0.02)
