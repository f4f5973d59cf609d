"""LoRa time-on-air from the SX127x symbol-count formula."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

from .engine import POSITIVE, Interval, check_typed_fields, ms_to_us

# The SX127x's payload sizes: its length field is one byte.
PAYLOAD_BYTES = Interval(0, 255)
# The SX127x's signal bandwidths, 7.8 kHz to 500 kHz.
BANDWIDTHS_HZ = (7_800, 10_400, 15_600, 20_800, 31_250, 41_700, 62_500, 125_000, 250_000, 500_000)
# The SX1276's transmit power range.
TX_POWER_DBM = Interval(-4.0, 20.0)


@dataclass(frozen=True)
class LoraParams:
    """Radio settings of the single shared channel.

    Defaults: SF7, 125 kHz, coding rate 4/5, 8-symbol preamble, explicit
    header, CRC on; SF6 needs an implicit header.  Low-data-rate
    optimization follows from SF and bandwidth (see ``time_on_air_ms``).
    The simulation is single-channel.
    """

    spreading_factor: Annotated[int, Interval(6, 12)] = 7
    bandwidth_hz: Annotated[int, BANDWIDTHS_HZ] = 125_000
    coding_rate_denominator: Annotated[int, Interval(5, 8)] = 5  # 4/5 .. 4/8
    preamble_symbols: Annotated[int, POSITIVE] = 8
    explicit_header: bool = True
    crc_on: bool = True

    def __post_init__(self):
        check_typed_fields(self)
        if self.spreading_factor == 6 and self.explicit_header:
            # The SX127x datasheet allows SF6 in implicit-header mode only.
            raise ValueError("LoraParams.spreading_factor 6 needs explicit_header false (an implicit header)")


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
