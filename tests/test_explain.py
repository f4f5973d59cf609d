"""The headline numbers explained: claims about why the model gives the
numbers it gives, pinned on the frozen seed set 5..14.

Sensor faults.  The server scores a reading as lost whenever it carries an
injected-fault tag, so primary-only PRR is the same for a NaN CO2 (`SF1`) and
any CO2 anomaly (`SF2`).  The secondary sees an anomaly only when its
comparison flags it: CO2 × m against its own reading is off by about m − 1,
against the 0.25 default threshold.  So there is a cliff near × 1.25:
above it `SF2` equals `SF1` seed for seed; below it the secondary sends no
corrective frame, and redundancy recovers nothing of the fault epochs.

Noise.  On `HF` the primary is down for minutes 5..25 of the 30, and the
secondary's substitute for an epoch survives unless a noise burst
overlaps it.  A burst of airtime T_n every P overlaps a data frame of
airtime T_d with probability about (T_d + T_n) / P, so the redundancy gain
(`prr_redundant` minus `prr_primary_only`) is about
(2/3) · (1 − (T_d + T_n) / P), and detection about the survival factor
1 − (T_d + T_n) / P.  The form ignores the noise jitter and the acks.
The noise-period sweep takes the fault share f = 2/3 from the fault's
duration; the payload and fault-window sweeps take it from the run's own
epoch ledger, as the fault-active share of the scored epochs.

Two points are left out of the window sweep.  A 100 s window (minutes
5:00-6:40) reads detection 0.575 against a survival factor of 0.641: the
watchdog leaves about the first 38.5 s of the window unserved, a large share
of so short a window.  A fault over the whole run reads a gain +0.034 off the
form against a 0.0355 band, too near its edge to pin.

Two baselines the headline numbers rest on.  An epoch is served by any valid
arrival in [slot, slot + 40 s), and slots are 20-30 s apart under SARB and
30 s apart without it, so one arrival often serves two epochs.  And every board's timers start at t = 0 on a round
grid, so a node's primary and secondary often begin frames on the same
microsecond.  Scoring one arrival per epoch and boot offsets are declared
behaviour changes; a change that makes either must re-pin these counts.
"""

import math
from collections import Counter
from dataclasses import replace

import pytest

from redwsn.channel import Channel
from redwsn.lora import time_on_air_us
from redwsn.packets import DATA_BYTES
from redwsn.scenario import build_preset, run_scenario
from redwsn.simulation import Simulation

SEEDS = list(range(5, 15))


def sf2_with_multiplier(multiplier):
    cfg = build_preset("SF2")
    return replace(cfg, faults=tuple(replace(f, anomaly_multiplier=multiplier) for f in cfg.faults))


@pytest.fixture(scope="module")
def sf1():
    return run_scenario(build_preset("SF1"), SEEDS)


@pytest.mark.parametrize("multiplier", [1.5, 1.3])
def test_a_flagged_anomaly_scores_as_a_read_failure_at_every_seed(sf1, multiplier):
    report = run_scenario(sf2_with_multiplier(multiplier), SEEDS)
    assert report.mean("prr_redundant") == pytest.approx(0.7446, abs=5e-5)
    assert report.mean("prr_primary_only") == pytest.approx(0.3252, abs=5e-5)
    assert report.mean("detection_rate") == pytest.approx(0.6232, abs=5e-5)
    # Field for field, not only in the mean.
    for got, read_failure in zip(report.iterations, sf1.iterations):
        assert got == read_failure


@pytest.mark.parametrize("multiplier", [1.2, 1.1])
def test_an_anomaly_below_the_threshold_is_never_recovered(multiplier):
    report = run_scenario(sf2_with_multiplier(multiplier), SEEDS)
    for it in report.iterations:
        assert it.prr_redundant == it.prr_primary_only
        assert it.detection_rate == 0.0
    assert report.mean("prr_primary_only") == pytest.approx(0.3252, abs=5e-5)


@pytest.mark.parametrize("period_ms", [300, 400, 500, 750, 1000, 2000, None])
def test_redundancy_gain_follows_the_noise_survival_factor(period_ms):
    hf = build_preset("HF")
    (fault,) = hf.faults
    fault_share = (fault.end_ms - fault.start_ms) / hf.duration_ms  # 2/3
    if period_ms is None:
        cfg = replace(hf, noise=replace(hf.noise, enabled=False))
        survival = 1.0
    else:
        cfg = replace(hf, noise=replace(hf.noise, period_ms=period_ms))
        data_us = time_on_air_us(DATA_BYTES, hf.lora)  # 138.5 ms
        burst_us = time_on_air_us(hf.noise.payload_bytes, hf.lora)  # 41.2 ms
        survival = 1 - (data_us + burst_us) / (period_ms * 1000)
    report = run_scenario(cfg, SEEDS)
    gain = report.mean("prr_redundant") - report.mean("prr_primary_only")
    # Two binomial standard errors of the simulated gain over the pooled
    # epochs: derived from the epoch count, not fitted to the points.
    epochs = sum(it.epochs_total for it in report.iterations)
    band = 2 * math.sqrt(gain * (1 - gain) / epochs)
    assert abs(gain - fault_share * survival) <= band
    assert report.mean("detection_rate") == pytest.approx(survival, abs=0.04)


def assert_gain_follows_the_form(cfg):
    data_us = time_on_air_us(DATA_BYTES, cfg.lora)
    burst_us = time_on_air_us(cfg.noise.payload_bytes, cfg.lora)
    survival = 1 - (data_us + burst_us) / (cfg.noise.period_ms * 1000)
    report = run_scenario(cfg, SEEDS)
    epochs = sum(it.epochs_total for it in report.iterations)
    fault_share = sum(it.epochs_fault_active for it in report.iterations) / epochs
    gain = report.mean("prr_redundant") - report.mean("prr_primary_only")
    band = 2 * math.sqrt(gain * (1 - gain) / epochs)
    assert abs(gain - fault_share * survival) <= band
    assert report.mean("detection_rate") == pytest.approx(survival, abs=0.04)


@pytest.mark.parametrize("payload_bytes", [0, 30, 60, 100, 150])
def test_redundancy_gain_follows_the_noise_burst_airtime(payload_bytes):
    # Worst gain gap -0.0160 against a 0.0265 band, and worst detection gap
    # -0.022, both at 150 B.
    hf = build_preset("HF")
    assert_gain_follows_the_form(replace(hf, noise=replace(hf.noise, payload_bytes=payload_bytes)))


@pytest.mark.parametrize("start_min, end_min", [(10, 20), (2, 28)])
def test_redundancy_gain_follows_the_fault_window(start_min, end_min):
    # Gain gaps -0.0010 and +0.0081 against bands of 0.031 and 0.037.
    hf = build_preset("HF")
    (fault,) = hf.faults
    window = replace(fault, start_ms=start_min * 60_000, end_ms=end_min * 60_000)
    assert_gain_follows_the_form(replace(hf, faults=(window,)))


def _tied(keys):
    """How many of keys equal another of keys."""
    return sum(k for k in Counter(keys).values() if k > 1)


@pytest.mark.parametrize(
    "preset, shared, served",
    [
        ("control-noise-noSARB", 270, 505),
        ("HF", 264, 522),
        ("control-noise", 114, 686),
        ("GWF", 98, 690),
        ("control-clean", 0, 698),
    ],
)
def test_one_arrival_serves_two_epochs(preset, shared, served):
    # An epoch's serving arrival is the earlier of its two boards' arrivals.
    got_shared = got_served = 0
    for seed in SEEDS:
        sim = Simulation(build_preset(preset), seed)
        sim.run()
        arrivals = [
            (row.node_id, min(t for t in (row.primary_us, row.secondary_us) if t is not None))
            for row in sim.epochs
            if row.primary_us is not None or row.secondary_us is not None
        ]
        got_shared += _tied(arrivals)
        got_served += len(arrivals)
    assert (got_shared, got_served) == (shared, served)


@pytest.mark.parametrize(
    "preset, tied, frames",
    [
        ("control-noise-noSARB", 600, 1194),
        ("HF-noSARB", 200, 902),
        ("control-noise", 18, 1607),
        ("HF", 4, 1005),
    ],
)
def test_heartbeat_phase_lock(monkeypatch, preset, tied, frames):
    # Frames a node's boards send that begin on the same microsecond as
    # another frame of the same node.
    begin = Channel.begin_transmission
    starts = []

    def recording(self, source_id, *args):
        node, _, role = source_id.partition(".")
        if role in ("primary", "secondary"):
            starts.append((node, self.sim.now_us))
        return begin(self, source_id, *args)

    monkeypatch.setattr(Channel, "begin_transmission", recording)
    got_tied = got_frames = 0
    for seed in SEEDS:
        starts.clear()
        Simulation(build_preset(preset), seed).run()
        got_tied += _tied(starts)
        got_frames += len(starts)
    assert (got_tied, got_frames) == (tied, frames)
