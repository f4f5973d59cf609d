import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redwsn.lora import LoraParams, symbol_time_ms, time_on_air_ms, time_on_air_us


def reference_toa_ms(payload_bytes, sf, bw, cr_denom, preamble, explicit, crc, ldro):
    """Independent oracle: SX127x datasheet formula, written out verbatim."""
    t_sym = (2**sf) / bw * 1000.0
    de = 1 if ldro else 0
    ih = 0 if explicit else 1
    n = 8 * payload_bytes - 4 * sf + 28 + 16 * (1 if crc else 0) - 20 * ih
    n_payload = 8 + max(math.ceil(n / (4 * (sf - 2 * de))) * (cr_denom - 4 + 4), 0)
    return (preamble + 4.25 + n_payload) * t_sym


def test_default_symbol_time():
    assert symbol_time_ms(LoraParams()) == pytest.approx(1.024)


def test_paper_payload_anchor():
    assert time_on_air_ms(76) == pytest.approx(138.496, abs=1e-9)


def test_noise_burst_anchor():
    assert time_on_air_ms(10) == pytest.approx(41.216, abs=1e-9)


def test_empty_payload_values():
    # CRC on (the channel default) and CRC off differ by one coded block.
    assert time_on_air_ms(0) == pytest.approx(25.856, abs=1e-9)
    assert time_on_air_ms(0, replace(LoraParams(), crc_on=False)) == pytest.approx(
        20.736, abs=1e-9
    )


def test_ack_and_heartbeat_sizes():
    assert time_on_air_ms(8) == pytest.approx(36.096, abs=1e-9)
    assert time_on_air_ms(12) == pytest.approx(41.216, abs=1e-9)


@given(
    payload=st.integers(0, 255),
    sf=st.integers(7, 12),
    cr=st.integers(5, 8),
    preamble=st.integers(6, 16),
    explicit=st.booleans(),
    crc=st.booleans(),
    bw=st.sampled_from((125_000, 250_000, 500_000)),
)
def test_matches_reference_formula(payload, sf, cr, preamble, explicit, crc, bw):
    params = LoraParams(
        spreading_factor=sf,
        bandwidth_hz=bw,
        coding_rate_denominator=cr,
        preamble_symbols=preamble,
        explicit_header=explicit,
        crc_on=crc,
    )
    ldro = (2**sf) / bw * 1000.0 > 16.0  # datasheet: symbols longer than 16 ms
    expected = reference_toa_ms(payload, sf, bw, cr, preamble, explicit, crc, ldro)
    assert time_on_air_ms(payload, params) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "sf, bw, ldro",
    [(11, 125_000, True), (12, 125_000, True), (12, 250_000, True), (10, 125_000, False), (11, 250_000, False)],
)
def test_low_data_rate_optimization_follows_symbol_time(sf, bw, ldro):
    params = LoraParams(spreading_factor=sf, bandwidth_hz=bw)
    expected = reference_toa_ms(76, sf, bw, 5, 8, True, True, ldro)
    assert time_on_air_ms(76, params) == pytest.approx(expected, rel=1e-12)
    assert time_on_air_ms(76, params) != pytest.approx(
        reference_toa_ms(76, sf, bw, 5, 8, True, True, not ldro), rel=1e-12
    )


@given(payload=st.integers(0, 254))
def test_monotone_in_payload(payload):
    assert time_on_air_ms(payload + 1) >= time_on_air_ms(payload)


def test_us_variant_consistent():
    assert time_on_air_us(76) == 138_496


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        LoraParams(spreading_factor=5)
    with pytest.raises(ValueError, match="LoraParams.spreading_factor 6 needs explicit_header false"):
        LoraParams(spreading_factor=6)
    with pytest.raises(ValueError):
        LoraParams(coding_rate_denominator=9)
    with pytest.raises(ValueError):
        LoraParams(bandwidth_hz=0)
    with pytest.raises(ValueError):
        time_on_air_ms(-1)


def test_sf6_takes_an_implicit_header():
    params = LoraParams(spreading_factor=6, explicit_header=False)
    expected = reference_toa_ms(76, 6, 125_000, 5, 8, False, True, False)
    assert time_on_air_ms(76, params) == pytest.approx(expected, rel=1e-12)
