import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redwsn.channel import (
    NOISE_SOURCE_ID,
    Channel,
    ChannelParams,
    NoiseConfig,
    Position,
    path_loss_db,
    rssi_at,
)
from redwsn.engine import Simulator, ms_to_us
from redwsn.lora import LoraParams, time_on_air_us
from redwsn.packets import Packet, PacketKind


# Every kind from every node, noise included.
EVERY_FRAME = tuple((kind, None) for kind in PacketKind)


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


def test_receivers_cannot_join_after_the_noise_train():
    sim = Simulator()
    channel = Channel(sim, params=quiet_params())
    channel.add_noise(NoiseConfig(), 10_000_000, sim.rng("noise-schedule"))
    with pytest.raises(RuntimeError, match="noise train"):
        channel.add_receiver(Probe("gw", Position(0, 0), hears=((PacketKind.DATA, None),)))


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


@st.composite
def channel_scenarios(draw):
    n = draw(st.integers(2, 8))
    positions = [(f"r{i}", Position(draw(coordinates), draw(coordinates))) for i in range(n)]
    # Sources are some of the receivers plus two transmit-only ones.
    sources = positions + [(f"x{i}", Position(draw(coordinates), draw(coordinates))) for i in range(2)]
    # What a receiver hears: nothing, all data, all acks, every kind, or
    # the data of one source.
    hears = st.one_of(
        st.sampled_from(((), ((PacketKind.DATA, None),), ((PacketKind.ACK, None),), EVERY_FRAME)),
        st.sampled_from([sid for sid, _ in sources]).map(lambda sid: ((PacketKind.DATA, sid),)),
    )
    receivers = [(rid, position, draw(st.floats(0.0, 12.0)), draw(hears)) for rid, position in positions]
    frames = draw(
        st.lists(
            st.tuples(
                st.integers(0, 60),  # start in 100 ms steps: equal starts are common
                st.sampled_from(sources),
                st.integers(1, 80),  # payload bytes
                st.sampled_from((2.0, 14.0)),  # transmit power, dBm
            ),
            min_size=1,
            max_size=25,
        )
    )
    sf = draw(st.integers(7, 12))
    lora = LoraParams(spreading_factor=sf)
    params = ChannelParams(shadowing_sigma_db=draw(st.floats(0.5, 8.0)))
    return draw(st.integers(0, 2**32 - 1)), params, lora, receivers, frames


def deliveries(make_channel, scenario):
    seed, params, lora, receivers, frames = scenario
    sim = Simulator(master_seed=seed)
    channel = make_channel(sim, params, lora)
    log = []
    for i, (rid, position, extra_loss, hears) in enumerate(receivers):
        channel.add_receiver(Recorder(rid, position, extra_loss, hears, channel, log, acks=i == 0))

    def send(seq, source_id, position, size, power):
        if channel.busy_until(source_id) > sim.now_us:
            log.append(("busy", source_id, seq))
            return
        packet = Packet(kind=PacketKind.DATA, node_id=source_id, seq=seq, size_bytes=size)
        channel.begin_transmission(source_id, position, packet, power)

    for seq, (step, (source_id, position), size, power) in enumerate(frames):
        sim.schedule_at(step * 100_000, lambda a=(seq, source_id, position, size, power): send(*a))
    sim.run_until(20_000_000)
    return log


@settings(max_examples=150, deadline=None)
@given(scenario=channel_scenarios())
def test_resolution_matches_the_per_receiver_reference(scenario):
    got = deliveries(lambda sim, params, lora: Channel(sim, params=params, lora=lora), scenario)
    assert got == deliveries(ReferenceChannel, scenario)
    received = [entry[:4] for entry in got if entry[0] != "busy"]
    assert len(received) == len(set(received))  # each (frame, receiver) at most once


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
                st.booleans(),  # scheduled before the train is registered
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


def noisy_deliveries(start_train, scenario):
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

    schedule(before_train=True)
    log.append(("bursts", start_train(channel, noise, NOISY_RUN_US, sim.rng("noise-schedule"))))
    schedule(before_train=False)
    sim.run_until(NOISY_RUN_US + 5_000_000)
    return log


@settings(max_examples=300, deadline=None)
@given(scenario=noisy_scenarios())
def test_noise_train_matches_one_event_per_burst(scenario):
    assert noisy_deliveries(Channel.add_noise, scenario) == noisy_deliveries(start_noise_as_events, scenario)
