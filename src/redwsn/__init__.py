"""redwsn: discrete-event simulator and availability model for a
redundancy-hardened LoRa-style wireless monitoring system."""

from .ctmc import (
    BirthDeathModel,
    build_generator,
    failure_probability_table,
    mttf_non_repairable,
    steady_state_closed_form,
    steady_state_linear_solve,
)
from .lora import LoraParams, time_on_air_ms
from .metrics import compare_reports
from .scenario import build_preset, run_scenario

__version__ = "0.1.0"

__all__ = [
    "BirthDeathModel",
    "LoraParams",
    "build_generator",
    "build_preset",
    "compare_reports",
    "failure_probability_table",
    "mttf_non_repairable",
    "run_scenario",
    "steady_state_closed_form",
    "steady_state_linear_solve",
    "time_on_air_ms",
]
