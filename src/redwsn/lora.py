"""LoRa time-on-air from the SX127x symbol-count formula."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import check_typed_fields, ms_to_us

# The SX127x's largest payload: its length field is one byte.
MAX_PAYLOAD_BYTES = 255
# The SX127x's signal bandwidths, 7.8 kHz to 500 kHz.
BANDWIDTHS_HZ = (7_800, 10_400, 15_600, 20_800, 31_250, 41_700, 62_500, 125_000, 250_000, 500_000)
# The SX1276's transmit power range.
MIN_TX_POWER_DBM, MAX_TX_POWER_DBM = -4.0, 20.0


def check_tx_power(tx_power_dbm: float) -> None:
    """Refuse a transmit power the radio cannot set (NaN included)."""
    if not MIN_TX_POWER_DBM <= tx_power_dbm <= MAX_TX_POWER_DBM:
        raise ValueError(f"tx_power_dbm must be in {MIN_TX_POWER_DBM:g}..{MAX_TX_POWER_DBM:g} dBm (SX1276)")


@dataclass(frozen=True)
class LoraParams:
    """Radio settings of the single shared channel.

    Defaults: SF7, 125 kHz, coding rate 4/5, 8-symbol preamble, explicit
    header, CRC on; SF6 needs an implicit header.  Low-data-rate
    optimization follows from SF and bandwidth (see ``time_on_air_ms``).
    The simulation is single-channel.
    """

    spreading_factor: int = 7
    bandwidth_hz: int = 125_000
    coding_rate_denominator: int = 5  # 4/5 .. 4/8
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc_on: bool = True

    def __post_init__(self):
        check_typed_fields(self)
        if not 6 <= self.spreading_factor <= 12:
            raise ValueError("spreading factor must be in 6..12")
        if self.spreading_factor == 6 and self.explicit_header:
            # The SX127x datasheet allows SF6 in implicit-header mode only.
            raise ValueError("spreading factor 6 needs an implicit header (explicit_header false)")
        if not 5 <= self.coding_rate_denominator <= 8:
            raise ValueError("coding rate denominator must be in 5..8 (4/5..4/8)")
        if self.bandwidth_hz not in BANDWIDTHS_HZ:
            raise ValueError(f"bandwidth_hz must be one of the SX127x bandwidths {BANDWIDTHS_HZ}")
        if self.preamble_symbols <= 0:
            raise ValueError("preamble must have at least one symbol")


def symbol_time_ms(params: LoraParams) -> float:
    return (2 ** params.spreading_factor) / params.bandwidth_hz * 1000.0


def time_on_air_ms(payload_bytes: int, params: LoraParams = LoraParams()) -> float:
    """Frame duration in milliseconds for a payload of the given size.

    Preamble time plus payload time, with the payload symbol count

        8 + max(ceil((8*PL - 4*SF + 28 + 16*CRC - 20*IH) / (4*(SF - 2*DE))) * (CR + 4), 0)

    where CR is the coding-rate numerator excess (1..4) and IH=1 for implicit
    header.  DE=1 turns on low-data-rate optimization, which the SX127x
    datasheet requires whenever a symbol lasts longer than 16 ms (SF11 and
    SF12 at 125 kHz, SF12 at 250 kHz).
    """
    if payload_bytes < 0:
        raise ValueError("payload size must be non-negative")
    sf = params.spreading_factor
    t_sym = symbol_time_ms(params)
    de = 1 if 2**sf * 1000 > 16 * params.bandwidth_hz else 0
    ih = 0 if params.explicit_header else 1
    crc = 1 if params.crc_on else 0
    cr = params.coding_rate_denominator - 4
    numerator = 8 * payload_bytes - 4 * sf + 28 + 16 * crc - 20 * ih
    payload_symbols = 8 + max(math.ceil(numerator / (4 * (sf - 2 * de))) * (cr + 4), 0)
    preamble_symbols = params.preamble_symbols + 4.25
    return (preamble_symbols + payload_symbols) * t_sym


def time_on_air_us(payload_bytes: int, params: LoraParams = LoraParams()) -> int:
    return ms_to_us(time_on_air_ms(payload_bytes, params))
