import json
import math
import re
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path
from typing import Annotated, Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redwsn.boards import FaultKind, FaultSpec
from redwsn.channel import Position
from redwsn.ctmc import BirthDeathModel
from redwsn.engine import Interval, bound_text
from redwsn.lora import BANDWIDTHS_HZ
from redwsn.scenario import (
    PRESET_NAMES,
    ConfigError,
    GatewayConfig,
    NodeConfig,
    ScenarioConfig,
    build_preset,
    load_scenario,
    report_to_csv,
    report_to_json,
    resolve_scenario,
    run_scenario,
)
from redwsn.simulation import Simulation

SHORT = dict(duration_ms=300_000)


# -- presets ---------------------------------------------------------------------


def test_all_presets_expand():
    for name in PRESET_NAMES:
        cfg = build_preset(name)
        assert cfg.name == name
        assert cfg.duration_ms == 1_800_000
        assert cfg.nodes and cfg.gateways


def test_preset_expansion_is_pure():
    assert build_preset("HF") == build_preset("HF")


def test_hf_preset_injects_hard_failure():
    cfg = build_preset("HF")
    assert len(cfg.faults) == 1
    fault = cfg.faults[0]
    assert fault.kind is FaultKind.HARD_FAILURE
    assert fault.target == "n1.primary"
    assert (fault.start_ms, fault.end_ms) == (300_000, 1_500_000)


def test_sf_presets_affect_one_sensor():
    assert build_preset("SF1").faults[0].kind is FaultKind.SENSOR_READ_FAILURE
    assert build_preset("SF2").faults[0].kind is FaultKind.SENSOR_ANOMALY


def test_gwf_preset_has_backup_gateway():
    cfg = build_preset("GWF")
    ids = [g.id for g in cfg.gateways]
    assert ids == ["gw-home", "gw-backup"]
    backup = cfg.gateways[1]
    assert backup.position == Position(12.0, 0.0)
    assert backup.extra_loss_db > 0 and not backup.acks_enabled
    assert cfg.faults == (FaultSpec(FaultKind.GATEWAY_FAILURE, "gw-home", 300_000, 1_500_000),)


def test_variant_suffixes():
    assert not build_preset("HF-noSARB").mac.enabled
    assert not build_preset("SF1-noRedundancy").nodes[0].has_secondary
    assert build_preset("HF").mac.enabled


def test_unknown_preset_errors():
    with pytest.raises(ConfigError):
        build_preset("nope")


# -- validation --------------------------------------------------------------------


def test_config_invariants():
    with pytest.raises(ConfigError):
        ScenarioConfig(duration_ms=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(nodes=())
    with pytest.raises(ConfigError):
        ScenarioConfig(gateways=())


# -- loading -----------------------------------------------------------------------


def test_load_flat_config(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "preset = HF\n"
        "duration_ms = 600000   # shorter run\n"
        "mac.slot_min_ms = 22000\n"
        "noise.enabled = false\n"
    )
    cfg = load_scenario(str(path))
    assert cfg.duration_ms == 600_000
    assert cfg.mac.slot_min_ms == 22_000
    assert not cfg.noise.enabled
    assert cfg.faults  # inherited from the HF preset


def test_load_json_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "name": "custom",
                "duration_ms": 600_000,
                "nodes": [{"id": "n1", "position": [2.0, 0.0], "has_secondary": False}],
                "gateways": [{"id": "gw", "position": {"x": 0, "y": 0}}],
                "faults": [
                    {
                        "kind": "hard_failure",
                        "target": "n1.primary",
                        "start_ms": 100_000,
                        "end_ms": 200_000,
                    }
                ],
                "noise": {"enabled": False},
            }
        )
    )
    cfg = load_scenario(str(path))
    assert not cfg.nodes[0].has_secondary
    assert cfg.faults[0].kind == FaultKind.HARD_FAILURE
    assert not cfg.noise.enabled


@pytest.mark.parametrize("preset", ["HF", "SF1", "SF2", "GWF"])
def test_faults_loaded_from_json_run_as_the_preset_faults_do(tmp_path, preset):
    # A kind read from a file is an equal string, not FaultKind's own object:
    # set-up code that compared kinds with `is` dropped the faults of HF, SF1 and SF2.
    cfg = build_preset(preset)
    path = tmp_path / "faults.json"
    path.write_text(json.dumps({"preset": preset, "faults": [asdict(f) for f in cfg.faults]}))
    loaded = load_scenario(str(path))
    assert report_to_json(run_scenario(loaded, [1])) == report_to_json(run_scenario(cfg, [1]))


@pytest.mark.parametrize("position", [[1, 2], {"x": 1, "y": 2}])
def test_json_noise_position_loads_and_runs(tmp_path, position):
    path = tmp_path / "noise.json"
    tree = {"preset": "control-noise", **SHORT, "noise": {"position": position}}
    path.write_text(json.dumps(tree))
    cfg = load_scenario(str(path))
    assert cfg.noise.position == Position(1.0, 2.0)
    assert run_scenario(cfg, seeds=[1]).iterations[0].epochs_total > 0


HF_FAULT = {"kind": "hard_failure", "target": "n1.primary"}
SF2_FAULT = {"kind": "sensor_anomaly", "target": "n1.primary", "affected_sensor": "co2_ppm"}
GWF_BACKUP = {"id": "gw-backup", "position": [12.0, 0.0], "acks_enabled": False, "extra_loss_db": 4.0}


@pytest.mark.parametrize(
    "tree, key",
    [
        ({"duration_ms": True}, "duration_ms"),
        ({"duration_ms": 180000.5}, "duration_ms"),
        ({"noise": {"enabled": 0}}, "^noise: NoiseConfig.enabled must be bool, got 0$"),
        ({"noise": {"position": [1, 2, 3]}}, "noise.position"),
        # A missing required key is named with its section, not left to a bare TypeError.
        ({"noise": {"position": {"x": 1}}}, "^noise.position: .*'y'"),
        ({"nodes": [{"id": "n1", "position": {"x": 1}}]}, r"^nodes\[0\].position: .*'y'"),
        ({"nodes": [{"position": [1, 0]}]}, r"^nodes\[0\]: .*'id'"),
        ({"faults": [{**HF_FAULT, "target": "n1.primray"}]}, "n1.primray"),
        ({"faults": [{**HF_FAULT, "start_ms": "x"}]}, r"^faults\[0\]: FaultSpec.start_ms must be int, got 'x'$"),
        (
            {"faults": [{**HF_FAULT, "kind": "meltdown"}]},
            r"^faults\[0\]: FaultSpec.kind must be one of \('hard_failure', .*\), got 'meltdown'$",
        ),
        (
            {"faults": [{**SF2_FAULT, "affected_sensor": 3}]},
            r"^faults\[0\]: FaultSpec.affected_sensor must be str or None, got 3$",
        ),
        ({"thresholds": {}}, "thresholds"),
    ],
)
def test_json_values_must_match_field_types(tmp_path, tree, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tree))
    with pytest.raises(ConfigError, match=key):
        load_scenario(str(path))


@pytest.mark.parametrize(
    "tree, target",
    [
        ({"faults": [{"kind": "gateway_failure", "target": "n1.primary"}]}, "n1.primary"),
        ({"faults": [{**HF_FAULT, "target": "gw-home"}]}, "gw-home"),
        (
            {"nodes": [{"id": "n1", "has_secondary": False}], "faults": [{**HF_FAULT, "target": "n1.secondary"}]},
            "n1.secondary",
        ),
    ],
)
def test_fault_targets_are_checked_at_load(tmp_path, tree, target):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tree))
    with pytest.raises(ConfigError, match=f"target '{target}'"):
        load_scenario(str(path))


@pytest.mark.parametrize(
    "tree, key",
    [
        ({"gateways": [{"id": "gw", "fail_windows": [[1, 2]]}]}, r"gateways\[0\].fail_windows"),
        ({"lora": {"low_data_rate_optimize": True}}, "lora.low_data_rate_optimize"),
        ({"lora": {"frequency_hz": 868_000_000}}, "lora.frequency_hz"),
        ({"secondary": {"data_bytes": 76}}, "secondary.data_bytes"),
        ({"iterations": 2}, "iterations"),
        ({"base_seed": 4}, "base_seed"),
    ],
)
def test_removed_keys_are_unknown(tmp_path, tree, key):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(tree))
    with pytest.raises(ConfigError, match=f"unknown key: {key}"):
        load_scenario(str(path))


@pytest.mark.parametrize(
    "tree, message",
    [
        # Each of these used to load and then hang or score wrong numbers.
        ({"secondary": {"heartbeat_period_ms": 0}}, "heartbeat_period_ms"),
        ({"secondary": {"sense_duration_ms": -1}}, "sense_duration_ms"),
        ({"secondary": {"heartbeat_bytes": -3}}, "heartbeat_bytes"),
        ({"secondary": {"anomaly_rel_threshold": 0.0}}, "anomaly_rel_threshold"),
        ({"noise": {"payload_bytes": -1}}, "payload_bytes"),
        ({"noise": {"period_ms": 0}}, "period_ms"),
        ({"noise": {"jitter_ms": -5}}, "jitter_ms"),
        ({"mac": {"enabled": False, "fixed_interval_ms": 0}}, "fixed_interval_ms"),
        ({"nodes": [{"id": "n1"}, {"id": "n1", "position": [4, 0]}]}, "radio id 'n1.primary'"),
        ({"preset": "GWF", "gateways": [{"id": "gw-home"}, {"id": "gw-home"}]}, "radio id 'gw-home'"),
        ({"gateways": [{"id": "noise"}]}, "radio id 'noise'"),
        ({"mac": {"retx_interval_ms": -6000}}, "retx_interval_ms"),
        ({"mac": {"retx_slots_per_cycle": -2, "slot_min_ms": -10000}}, "slot_min_ms"),
        ({"mac": {"retx_slots_per_cycle": -1}}, "retx_slots_per_cycle"),
        ({"channel": {"shadowing_sigma_db": -3}}, "shadowing_sigma_db"),
        ({"channel": {"reference_distance_m": 0}}, "reference_distance_m"),
        # JSON NaN: no corrective is ever sent, or every frame is captured.
        (
            {"preset": "SF2", "secondary": {"anomaly_rel_threshold": math.nan}},
            "secondary: SecondaryConfig.anomaly_rel_threshold must be a finite float, got nan",
        ),
        (
            {"preset": "SF2", "channel": {"capture_threshold_db": math.nan}},
            "channel: ChannelParams.capture_threshold_db must be a finite float, got nan",
        ),
        (
            {"faults": [{**SF2_FAULT, "anomaly_multiplier": math.nan}]},
            r"faults\[0\]: FaultSpec.anomaly_multiplier must be a finite float, got nan",
        ),
        # Presets come only from the list; suffixes used to stack or be dropped.
        ({"preset": "HF-noSARB-noRedundancy"}, "HF-noSARB-noRedundancy"),
        ({"preset": "HF-noRedundancy-noSARB"}, "HF-noRedundancy-noSARB"),
        ({"preset": "GWF-noSARB"}, "GWF-noSARB"),
        # Without SARB the data interval is fixed_interval_ms, and the
        # secondary's 35 s watchdog fired before every 40 s slot.
        (
            {"preset": "control-noise-noSARB", "duration_ms": 600_000, "mac": {"fixed_interval_ms": 40_000}},
            "secondary.sensing_interval_ms",
        ),
        ({"faults": [{**HF_FAULT, "start_ms": -1000}]}, "start_ms"),
        (
            {"secondary": {"sense_duration_ms": 40_000}},
            "secondary: SecondaryConfig.sense_duration_ms must be less than sensing_interval_ms",
        ),
        # A value a section refuses is reported under the section's path.
        (
            {"preset": "HF", "faults": [HF_FAULT, {**HF_FAULT, "start_ms": -1000}]},
            r"faults\[1\]: FaultSpec.start_ms must be >= 0, got -1000",
        ),
        (
            {"faults": [{**HF_FAULT, "start_ms": 5000, "end_ms": 5000}]},
            r"faults\[0\]: FaultSpec.start_ms must be less than end_ms",
        ),
        ({"mac": {"slot_min_ms": 30_500}}, "mac: SarbConfig.slot_min_ms must not exceed slot_max_ms"),
        (
            {"mac": {"slot_step_ms": 300}},
            "mac: SarbConfig.slot_max_ms - slot_min_ms must be a multiple of slot_step_ms",
        ),
        (
            {"mac": {"retx_interval_ms": 12_000}},
            r"mac: SarbConfig.retx_slots_per_cycle \* retx_interval_ms must be less than slot_min_ms",
        ),
        # 2 x 10 000 ms equals slot_min_ms: the last retransmission slot
        # would fall on the earliest next data slot.
        (
            {"mac": {"retx_interval_ms": 10_000}},
            r"mac: SarbConfig.retx_slots_per_cycle \* retx_interval_ms must be less than slot_min_ms",
        ),
        ({"mac": {"slot_min_ms": 0}}, "mac: "),
        ({"secondary": {"heartbeat_bytes": -1}}, "secondary: "),
        ({"noise": {"period_ms": 0}}, "noise: "),
        ({"channel": {"reference_distance_m": 0}}, "channel: "),
        ({"lora": {"spreading_factor": 5}}, "lora: "),
        # The SX127x runs SF6 with an implicit header only.
        (
            {"preset": "control-clean", "lora": {"spreading_factor": 6}},
            "lora: LoraParams.spreading_factor 6 needs explicit_header false",
        ),
        # Every frame was clamped below the sensitivity: PRR 0, no receptions.
        (
            {"preset": "HF", "channel": {"agc_ceiling_dbm": -130}},
            "channel: ChannelParams.agc_ceiling_dbm must not be below sensitivity_dbm",
        ),
        # The same through one gateway's extra loss, applied after the clamp.
        ({"preset": "HF", "gateways": [{"id": "gw-home", "extra_loss_db": 40}]}, r"gateways\[0\]\.extra_loss_db"),
        # A gain lifted gw-home's frames above the -90 dBm AGC ceiling.
        (
            {"preset": "GWF", "gateways": [{"id": "gw-home", "extra_loss_db": -30}, GWF_BACKUP]},
            r"gateways\[0\]: GatewayConfig.extra_loss_db must be >= 0, got -30.0",
        ),
        # A preset key that names no preset ran the default scenario.
        ({"preset": ""}, "unknown preset: ''"),
        ({"preset": 0}, "unknown preset: 0"),
        ({"preset": None}, "unknown preset: None"),
        ({"preset": False}, "unknown preset: False"),
        # Beyond the LoRa maximum of 255 bytes: 2.95 s bursts, PRR 0.
        (
            {"preset": "HF", "noise": {"payload_bytes": 2000}},
            "noise: NoiseConfig.payload_bytes must be >= 0 and <= 255, got 2000",
        ),
        ({"noise": {"payload_bytes": 256}}, "noise: NoiseConfig.payload_bytes must be >= 0 and <= 255, got 256"),
        (
            {"secondary": {"heartbeat_bytes": 256}},
            "secondary: SecondaryConfig.heartbeat_bytes must be >= 0 and <= 255, got 256",
        ),
        # The burst outlasted the period, so the noise board jammed the
        # channel back to back: PRR 0, no reception at gw-home.
        ({"preset": "HF", "lora": {"spreading_factor": 11}}, "noise burst .* lasts 577.536 ms"),
        ({"preset": "HF", "lora": {"spreading_factor": 12}}, "noise burst .* lasts 991.232 ms"),
        # The same when the jitter reaches past a 41 ms burst.
        ({"preset": "HF", "noise": {"jitter_ms": 480}}, "noise.period_ms - noise.jitter_ms"),
        # No SX127x bandwidth: a data frame lasted 23.1 s, PRR 0.
        (
            {"preset": "HF", "lora": {"bandwidth_hz": 1000}},
            r"lora: LoraParams.bandwidth_hz must be one of \(7800, .*, 500000\), got 1000",
        ),
        (
            {"preset": "HF", "lora": {"bandwidth_hz": 1_000_000}},
            r"lora: LoraParams.bandwidth_hz must be one of \(7800, .*, 500000\), got 1000000",
        ),
        # Beyond the SX1276's power range: -200 dBm put nothing on the air.
        (
            {"preset": "HF", "nodes": [{"id": "n1", "tx_power_dbm": -200}]},
            r"nodes\[0\]: NodeConfig.tx_power_dbm must be >= -4 and <= 20, got -200.0",
        ),
        (
            {"preset": "HF", "gateways": [{"id": "gw-home", "tx_power_dbm": 21}]},
            r"gateways\[0\]: GatewayConfig.tx_power_dbm must be >= -4 and <= 20, got 21.0",
        ),
        (
            {"preset": "HF", "noise": {"tx_power_dbm": -4.5}},
            "noise: NoiseConfig.tx_power_dbm must be >= -4 and <= 20, got -4.5",
        ),
        # A data frame that, with its ack wait, outlasts the gap to the MAC's
        # next slot: 52.6 s, 13.1 s, 5.2 s and 10.4 s frames against 6 s - 2 s.
        *(
            ({"preset": "control-clean", "lora": {"bandwidth_hz": bw, "spreading_factor": sf}}, "mac.retx_interval_ms")
            for bw, sf in ((7800, 12), (31250, 12), (41700, 11), (20800, 10))
        ),
        (
            {"preset": "control-clean", "lora": {"bandwidth_hz": 7800, "spreading_factor": 12}, "mac": {"enabled": False}},
            "mac.fixed_interval_ms",
        ),
        (
            {"preset": "control-clean", "lora": {"bandwidth_hz": 7800, "spreading_factor": 12}, "mac": {"retx_slots_per_cycle": 0}},
            "mac.slot_min_ms",
        ),
        # A negative exponent makes a farther receiver hear the frame louder.
        (
            {"preset": "GWF", "channel": {"path_loss_exponent": -3}},
            "channel: ChannelParams.path_loss_exponent must be >= 0, got -3.0",
        ),
        # At or below 0 dB two overlapping frames can both be decoded at one
        # receiver: -10 dB cleared every delay violation of control-noise.
        *(
            (
                {"preset": "control-noise", "channel": {"capture_threshold_db": c}},
                f"channel: ChannelParams.capture_threshold_db must be > 0, got {c}.0",
            )
            for c in (-10, 0)
        ),
        # Each 41.216 ms heartbeat deferred the next 20 ms one: a run that never ended.
        (
            {"preset": "SF1", "secondary": {"heartbeat_period_ms": 20}},
            "secondary.heartbeat_period_ms must exceed a heartbeat's 41.216 ms airtime",
        ),
    ],
)
def test_configs_that_cannot_run_fail_at_load(tmp_path, tree, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tree))
    with pytest.raises(ConfigError, match=message):
        load_scenario(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_flat_non_finite_floats_fail_at_load(tmp_path, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"preset = SF2\nchannel.capture_threshold_db = {value}\n")
    refusal = f"^channel: ChannelParams.capture_threshold_db must be a finite float, got {float(value)!r}$"
    with pytest.raises(ConfigError, match=refusal):
        load_scenario(str(path))


def test_flat_position_with_one_coordinate_names_its_key(tmp_path):
    path = tmp_path / "one-coordinate.cfg"
    path.write_text("noise.position.x = 1\n")
    with pytest.raises(ConfigError, match="^noise.position: .*'y'"):
        load_scenario(str(path))


def test_json_integer_too_large_for_a_float_fails_at_load(tmp_path):
    # float() of it raised a bare OverflowError where only isfinite was asked.
    path = tmp_path / "bad.json"
    path.write_text('{"channel": {"reference_loss_db": 1' + "0" * 400 + "}}")
    refusal = "^channel: ChannelParams.reference_loss_db must be a finite float, got 10{400}$"
    with pytest.raises(ConfigError, match=refusal):
        load_scenario(str(path))


GWF = build_preset("GWF")


# Floats that NaN is reserved against: NaN marks an unread sensor only, and
# no NaN may reach a report.
FINITE_FLOAT_FIELDS = [
    (GWF.channel, "reference_loss_db"),
    (GWF.channel, "sensitivity_dbm"),
    (GWF.channel, "agc_ceiling_dbm"),
    (GWF.channel, "path_loss_exponent"),
    (GWF.channel, "capture_threshold_db"),
    (GWF.channel, "shadowing_sigma_db"),
    (GWF.channel, "reference_distance_m"),
    (GWF.gateways[1], "extra_loss_db"),
    (GWF.secondary, "anomaly_rel_threshold"),
    (FaultSpec(FaultKind.SENSOR_ANOMALY, "n1.primary", affected_sensor="co2_ppm"), "anomaly_multiplier"),
]


@pytest.mark.parametrize(
    "section, field, value",
    [
        *((section, field, value) for section, field in FINITE_FLOAT_FIELDS for value in (math.nan, math.inf, -math.inf)),
        # Rounded to a 0 us ack timeout, it ran: HF seed 1 reported 22
        # duplicates, against 3.
        (GWF.mac, "ack_timeout_ms", 0.0004),
        # It ran with a 181.4 ms data airtime.
        (GWF.lora, "spreading_factor", 7.5),
        # These two failed later, in ScenarioConfig, with a bare ValueError
        # or OverflowError from ms_to_us that named no field.
        (GWF.noise, "period_ms", math.nan),
        (GWF.secondary, "heartbeat_period_ms", math.inf),
        # A bool is not an int, as the loader has it.
        (GWF, "max_monitoring_delay_ms", True),
        (GWF.faults[0], "start_ms", False),
        # A kind is one of the strings the loader reads, not an old Enum member's name.
        (build_preset("HF").faults[0], "kind", "HARD_FAILURE"),
        # Each of these ran at seed 1, as if its field held the default or
        # the other switch.
        # It ran SARB: 1.000 / 1.000, against control-noise-noSARB's 0.828 / 0.603.
        (GWF.mac, "enabled", "false"),
        # It kept the noise: 10 delay violations, against control-clean's 0.
        (GWF.noise, "enabled", "false"),
        # It kept the secondary: PRR 0.841, against HF-noRedundancy's 0.333.
        (GWF.nodes[0], "has_secondary", "no"),
        (GWF.lora, "crc_on", 0),
        (GWF.lora, "explicit_header", "yes"),
        (GWF.gateways[0], "acks_enabled", 1),
        # A position that is not a Position built, then failed in Simulation
        # with an AttributeError, far from its field.
        (GWF.nodes[0], "position", (2.0, 0.0)),
        (GWF.gateways[1], "position", [12.0, 0.0]),
        (GWF.noise, "position", {"x": -1.5, "y": 0.5}),
        (GWF.channel, "shadowing_sigma_db", "2"),
        # A float must be finite as a float: this raised a bare OverflowError.
        pytest.param(GWF.channel, "reference_loss_db", 10**400, id="ChannelParams-reference_loss_db-10**400"),
        (GWF, "nodes", ("n1",)),
        (GWF, "nodes", list(GWF.nodes)),
        (GWF, "noise", None),
        (GWF.nodes[0], "id", 1),
        (GWF.faults[0], "target", 1),
    ],
    ids=lambda v: type(v).__name__ if is_dataclass(v) else None,
)
def test_sections_built_in_python_refuse_values_not_of_the_field_type(section, field, value):
    # build_preset + replace bypasses the loader; the section refuses the
    # value itself, by the field's name.
    with pytest.raises(ValueError, match=field):
        replace(section, **{field: value})


@pytest.mark.parametrize(
    "section, field, value",
    [(Position(1.0, 2.0), "x", 10**5000), (GWF.lora, "spreading_factor", 10**5000), (GWF, "nodes", (10**5000,))],
    ids=["float", "bound", "tuple"],
)
def test_an_int_too_long_to_print_is_refused_by_field_name(section, field, value):
    # Formatting the value raised Python's "Exceeds the limit (4300 digits)", naming no field.
    with pytest.raises(ValueError, match=f"^{type(section).__name__}.{field} must be .*, got "):
        replace(section, **{field: value})


# Values of many types, for every field of every config section.
VALUE_POOL = (
    None, True, False, 0, 3, -1, 2.5, -0.5, math.nan, math.inf, -math.inf, 10**400, np.int64(3), np.float64(2.0),
    "", "n1", "1.5", "hard_failure", b"n1", (), ("n1",), (2.0, 0.0), [], [2.0, 0.0], {}, {"x": 1.0, "y": 0.0},
    Position(1.0, 2.0), FaultKind.SENSOR_ANOMALY, GWF.nodes, GWF.gateways, GWF.faults, GWF.nodes[0], GWF.noise,
    GWF.mac, GWF.channel, GWF.lora, GWF.secondary, object(),
)
VALUES = st.sampled_from(VALUE_POOL) | (st.integers() | st.floats() | st.text(max_size=3))
SECTIONS = (
    GWF, *GWF.nodes, *GWF.gateways, GWF.faults[0], build_preset("SF2").faults[0], GWF.noise, GWF.mac, GWF.channel,
    GWF.lora, GWF.secondary, Position(1.0, 2.0), BirthDeathModel(2),
)


def of_declared_type(value, ftype) -> bool:
    """The README's type rule, restated apart from engine.holds_type."""
    if ftype is float:
        try:
            return type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # isfinite converts an int to a float first
            return False
    if get_origin(ftype) is Union:  # Optional[T]
        return value is None or of_declared_type(value, get_args(ftype)[0])
    if get_origin(ftype) is tuple:
        return type(value) is tuple and all(of_declared_type(v, get_args(ftype)[0]) for v in value)
    if ftype in (int, bool):
        return type(value) is ftype
    return isinstance(value, ftype)


def declared_bounds(cls, prefix=""):
    """(key, class, field, type, bound) of each field under ``cls`` that
    declares a bound (``Annotated[type, bound]``), read from the annotations.
    A key under a list holds ``[]``: ``nodes[].tx_power_dbm``."""
    for name, hint in get_type_hints(cls, include_extras=True).items():
        ftype, *bound = get_args(hint) if get_origin(hint) is Annotated else (hint,)
        item, key = ftype, prefix + name
        if get_origin(ftype) is tuple:
            item, key = get_args(ftype)[0], key + "[]"
        if is_dataclass(item):
            yield from declared_bounds(item, key + ".")
        elif bound:
            yield key, cls, name, ftype, bound[0]


DECLARED_BOUNDS = [*declared_bounds(ScenarioConfig), *declared_bounds(BirthDeathModel, "BirthDeathModel.")]
BOUNDS = {(cls, field): bound for _, cls, field, _, bound in DECLARED_BOUNDS}


def edge_values(ftype, bound) -> list[tuple[object, bool]]:
    """(value, accepted) at each edge of a bound: the last value inside it
    and the nearest one past it, 1 away for an int and the adjacent float
    for a float.  A tuple of numbers has each member and its int neighbours,
    and a tuple of strings each member and its upper-case spelling."""
    if not isinstance(bound, Interval):
        if ftype is str:  # the upper-case spelling is a fault kind's old Enum member name
            return [(v, True) for v in bound] + [(v.upper(), False) for v in bound]
        return [(v, True) for v in bound] + [(v + d, False) for v in bound for d in (-1, 1) if v + d not in bound]

    def past(x, direction):
        return x + direction if ftype is int else math.nextafter(x, direction * math.inf)

    lo = ftype(bound.lo)
    edges = [(past(lo, 1), True), (lo, False)] if bound.lo_open else [(lo, True), (past(lo, -1), False)]
    if bound.hi < math.inf:
        edges += [(ftype(bound.hi), True), (past(ftype(bound.hi), 1), False)]
    return edges


def within_bound(value, bound) -> bool:
    """The bound, restated from its ends apart from Interval.__contains__."""
    if not isinstance(bound, Interval):
        return value in bound
    return (value > bound.lo if bound.lo_open else value >= bound.lo) and value <= bound.hi


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_config_field_refuses_a_value_of_another_type_by_name(data):
    # Each field of a section, set to any value, or to a value at or next to
    # its declared bound: a ValueError that names the field, or a section
    # whose field holds its declared type within its bound.  Never a
    # TypeError, AttributeError or OverflowError from a range check.
    section = data.draw(st.sampled_from(SECTIONS))
    for field, ftype in get_type_hints(type(section)).items():
        bound = BOUNDS.get((type(section), field))
        edges = () if bound is None else [value for value, _ in edge_values(ftype, bound)]
        value = data.draw(VALUES | st.sampled_from(edges) if edges else VALUES, label=field)
        declared = of_declared_type(value, ftype) and (bound is None or within_bound(value, bound))
        try:
            replace(section, **{field: value})
        except ValueError as exc:
            # A value of the declared type and bound may fail a cross-field check named otherwise.
            assert declared or field in str(exc)
        else:
            assert declared


# What each key's edge values, or one (key, value) pair, need beside them
# to pass the cross-field checks: a 1 ms noise period with the noise off, a
# 1 ms heartbeat period with no secondary, SF6 with an implicit header, a
# sensor for a sensor fault (any other kind may carry one too) and a
# gateway target for a gateway failure.
EDGE_CONTEXT = {
    "noise.period_ms": {"noise": {"enabled": False}},
    "mac.slot_min_ms": {"mac": {"enabled": False, "slot_step_ms": 1, "retx_slots_per_cycle": 0}},
    "mac.retx_interval_ms": {"mac": {"enabled": False}},
    "secondary.heartbeat_period_ms": {"nodes": [{"id": "n1", "has_secondary": False}]},
    "lora.spreading_factor": {"lora": {"explicit_header": False}, "noise": {"enabled": False}},
    "lora.bandwidth_hz": {"noise": {"enabled": False}},
    "faults[].kind": {"faults": [{"affected_sensor": "co2_ppm"}]},
    ("faults[].kind", FaultKind.GATEWAY_FAILURE): {"faults": [{"target": "gw-home"}]},
}
LIST_ENTRIES = {"nodes": {"id": "n1"}, "gateways": {"id": "gw-home"}, "faults": HF_FAULT}
SECTION_OF = {
    type(s): s
    for s in (
        GWF, GWF.nodes[0], GWF.gateways[0], GWF.faults[0], GWF.noise, GWF.mac, GWF.channel, GWF.lora, GWF.secondary,
        BirthDeathModel(2),
    )
}
EDGE_CASES = [
    (key, cls, field, bound, value, accepted)
    for key, cls, field, ftype, bound in DECLARED_BOUNDS
    for value, accepted in edge_values(ftype, bound)
]


def key_tree(key: str, value) -> dict:
    """The JSON tree that sets one loader key; a list key goes in the list's one entry."""
    head, _, rest = key.partition(".")
    if not rest:
        return {head: value}
    if head.endswith("[]"):
        return {head[:-2]: [{**LIST_ENTRIES[head[:-2]], **key_tree(rest, value)}]}
    return {head: key_tree(rest, value)}


def merged(a, b):
    """``b``'s keys over ``a``'s, merging nested keys and a list's one entry."""
    if isinstance(a, list):  # one entry, as key_tree writes it
        return [merged(a[0], b[0])]
    return {**a, **{k: merged(a[k], v) if isinstance(a.get(k), (dict, list)) else v for k, v in b.items()}}


def loaded_value(cfg, key: str):
    for part in key.split("."):
        cfg = getattr(cfg, part.removesuffix("[]"))
        cfg = cfg[0] if part.endswith("[]") else cfg
    return cfg


@pytest.mark.parametrize(
    "key, cls, field, bound, value, accepted", EDGE_CASES, ids=[f"{case[0]}={case[4]!r}" for case in EDGE_CASES]
)
def test_each_declared_bound_takes_its_edge_and_refuses_the_value_past_it(
    tmp_path, key, cls, field, bound, value, accepted
):
    refusal = re.escape(f"{cls.__name__}.{field} must be {bound_text(bound)}, got {value!r}")
    context = EDGE_CONTEXT.get((key, value), EDGE_CONTEXT.get(key, {}))
    # Built in Python, beside the context's keys of the same section.
    head = key.partition(".")[0]
    if head.endswith("[]"):
        (beside,) = context.get(head[:-2], [{}])
    else:
        beside = context.get(head, {})
    kwargs = {**beside, field: value}
    if accepted:
        assert getattr(replace(SECTION_OF[cls], **kwargs), field) == value
    else:
        with pytest.raises(ValueError, match=refusal):
            replace(SECTION_OF[cls], **kwargs)
    if cls is BirthDeathModel:  # not a config key
        return
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(merged(key_tree(key, value), context)))
    if accepted:
        assert loaded_value(load_scenario(str(path)), key) == value
    else:
        section = key.replace("[]", "[0]").rpartition(".")[0]
        with pytest.raises(ConfigError, match=(re.escape(f"{section}: ") if section else "^") + refusal):
            load_scenario(str(path))


def test_the_readme_table_lists_every_declared_bound():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([^`]+)` \| (`.+`) \|$", readme, re.M)
    listed = {(rule, key) for rule, keys in rows for key in re.findall(r"`([^`]+)`", keys)}
    assert listed == {(bound_text(bound), key) for key, _, _, _, bound in DECLARED_BOUNDS}


def test_flat_empty_preset_fails_at_load(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("preset =\n")
    with pytest.raises(ConfigError, match="unknown preset: ''"):
        load_scenario(str(path))


@pytest.mark.parametrize(
    "tree",
    [
        {"preset": "HF", "lora": {"spreading_factor": 10}},  # 289 ms bursts under a 450 ms gap
        {"preset": "HF", "noise": {"jitter_ms": 458}},  # 42 ms gap over a 41.216 ms burst
        {"preset": "HF", "lora": {"spreading_factor": 12}, "noise": {"enabled": False}},
        {"preset": "HF", "nodes": [{"id": "n1", "tx_power_dbm": -4}], "noise": {"tx_power_dbm": 20}},
        {"preset": "GWF", "gateways": [{"id": "gw-home", "tx_power_dbm": 20}, {"id": "gw-backup", "tx_power_dbm": -4}]},
        *({"preset": "control-clean", "lora": {"bandwidth_hz": bw}} for bw in BANDWIDTHS_HZ),
        # Data frames that end, ack wait included, before the next slot:
        # 3940 + 2000 < 6000 ms at 31.25 kHz SF10.
        *(
            {"preset": "control-clean", "lora": {"bandwidth_hz": bw, "spreading_factor": sf}}
            for bw, sf in ((31250, 10), (62500, 11), (125000, 12))
        ),
        {"preset": "control-clean", "lora": {"bandwidth_hz": 31250, "spreading_factor": 12}, "mac": {"enabled": False}},
    ],
)
def test_radio_settings_at_the_device_limits_load(tmp_path, tree):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(tree))
    load_scenario(str(path))


@pytest.mark.parametrize(
    "tree",
    [
        {"preset": "HF-noRedundancy", "mac": {"slot_min_ms": 30_000, "slot_max_ms": 40_000}},
        # The refused control-noise-noSARB case above, without its secondary.
        {
            "preset": "control-noise-noSARB",
            "duration_ms": 600_000,
            "nodes": [{"id": "n1", "has_secondary": False}],
            "mac": {"fixed_interval_ms": 40_000},
        },
    ],
    ids=["HF-noRedundancy", "control-noise-noSARB"],
)
def test_slots_past_the_watchdog_load_without_a_secondary(tmp_path, tree):
    # No node has a secondary, so no watchdog runs, and the run reads as it
    # does with a sensing interval past the longest data interval.
    path = tmp_path / "slots.json"
    path.write_text(json.dumps(tree))
    cfg = load_scenario(str(path))
    passing = replace(cfg, secondary=replace(cfg.secondary, sensing_interval_ms=45_000))
    assert run_scenario(cfg, [1]).iterations == run_scenario(passing, [1]).iterations


def test_flat_path_loss_loads(tmp_path):
    # An exponent of 0 puts every receiver at the reference loss.
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"preset": "GWF", "channel": {"path_loss_exponent": 0}}))
    assert load_scenario(str(path)).channel.path_loss_exponent == 0


def test_an_agc_ceiling_at_the_sensitivity_loads_and_runs(tmp_path):
    # Every frame is clamped to the sensitivity, which still hears it.
    path = tmp_path / "agc.json"
    path.write_text(json.dumps({"channel": {"agc_ceiling_dbm": -120, "sensitivity_dbm": -120}}))
    (run,) = run_scenario(load_scenario(str(path)), [1]).iterations
    assert run.prr_redundant > 0
    values = [value for stats in run.rssi.values() for stat, value in stats.items() if stat != "count"]
    assert values and set(values) == {-120.0}


def test_small_positive_capture_threshold_loads(tmp_path):
    path = tmp_path / "capture.json"
    path.write_text(json.dumps({"preset": "control-noise", "channel": {"capture_threshold_db": 0.5}}))
    assert load_scenario(str(path)).channel.capture_threshold_db == 0.5


@pytest.mark.parametrize(
    "tree",
    [
        # Just above the 41.216 ms heartbeat.
        {"preset": "SF1", "secondary": {"heartbeat_period_ms": 42}},
        # No node has a secondary, so no heartbeat is ever sent.
        {"preset": "SF1-noRedundancy", "secondary": {"heartbeat_period_ms": 20}},
    ],
    ids=["above-airtime", "no-secondary"],
)
def test_heartbeat_periods_that_can_run_load(tmp_path, tree):
    path = tmp_path / "heartbeat.json"
    path.write_text(json.dumps(tree))
    assert load_scenario(str(path)).secondary.heartbeat_period_ms == tree["secondary"]["heartbeat_period_ms"]


def test_largest_lora_payload_loads(tmp_path):
    path = tmp_path / "big.cfg"
    path.write_text("noise.payload_bytes = 255\nsecondary.heartbeat_bytes = 255\n")
    cfg = load_scenario(str(path))
    assert (cfg.noise.payload_bytes, cfg.secondary.heartbeat_bytes) == (255, 255)


def test_monitoring_delay_must_be_positive(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("max_monitoring_delay_ms = 0\n")
    with pytest.raises(ConfigError, match="max_monitoring_delay_ms"):
        load_scenario(str(path))


def test_run_must_fit_one_scored_epoch(tmp_path):
    # The first data slot may come 30 s in, and its 40 s window must fit.
    path = tmp_path / "short.cfg"
    path.write_text("duration_ms = 60000\n")
    with pytest.raises(ConfigError, match="duration_ms"):
        load_scenario(str(path))
    path.write_text("duration_ms = 70000\n")
    assert run_scenario(load_scenario(str(path)), seeds=[1]).iterations[0].epochs_total >= 1


def test_sections_are_validated_together(tmp_path):
    # A longer slot range needs a longer sensing interval; the config must
    # not be validated half-applied, whatever the key order.
    path = tmp_path / "slots.cfg"
    path.write_text("mac.slot_max_ms = 40000\nsecondary.sensing_interval_ms = 45000\n")
    cfg = load_scenario(str(path))
    assert (cfg.mac.slot_max_ms, cfg.secondary.sensing_interval_ms) == (40_000, 45_000)


def test_slot_max_is_unused_without_sarb(tmp_path):
    path = tmp_path / "nosarb.cfg"
    path.write_text("preset = control-noise-noSARB\nmac.slot_max_ms = 40000\n")
    assert load_scenario(str(path)).mac.max_interval_ms == 30_000


def test_unknown_key_is_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nodez = 3\n")
    with pytest.raises(ConfigError, match="nodez"):
        load_scenario(str(path))
    path.write_text("mac.slot_minimum = 1\n")
    with pytest.raises(ConfigError, match="slot_minimum"):
        load_scenario(str(path))


def test_invalid_values_are_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("duration_ms = 0\n")
    with pytest.raises(ConfigError):
        load_scenario(str(path))
    path.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        load_scenario(str(path))


def test_missing_file_errors():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/scenario.cfg")


def test_resolve_scenario_accepts_presets_and_paths(tmp_path):
    assert resolve_scenario("HF").name == "HF"
    path = tmp_path / "c.cfg"
    path.write_text("preset = SF1\n")
    assert resolve_scenario(str(path)).faults[0].kind == FaultKind.SENSOR_READ_FAILURE


# -- execution and export --------------------------------------------------------


def short_cfg(**overrides):
    cfg = build_preset("control-clean")
    return replace(cfg, **{**SHORT, **overrides})


def test_run_scenario_one_report_per_seed():
    report = run_scenario(short_cfg(), seeds=[1, 2])
    assert report.seeds == [1, 2]
    assert [it.seed for it in report.iterations] == [1, 2]
    assert report.mean("prr_redundant") == pytest.approx(1.0)


def test_negative_seed_fails_before_any_seed_runs(monkeypatch):
    runs = []

    class CountingSimulation(Simulation):
        def run(self):
            runs.append(self.seed)
            return super().run()

    monkeypatch.setattr("redwsn.scenario.Simulation", CountingSimulation)
    with pytest.raises(ConfigError, match="seeds must not be negative"):
        run_scenario(short_cfg(), [1, -2])
    assert runs == []


def test_empty_seed_list_is_refused():
    # A report over no seed would hold NaN means, which JSON cannot carry.
    with pytest.raises(ConfigError, match="at least one seed"):
        run_scenario(short_cfg(), [])


def test_control_clean_is_perfect():
    report = run_scenario(short_cfg(), seeds=[3])
    it = report.iterations[0]
    assert it.prr_redundant == 1.0
    assert it.prr_primary_only == 1.0
    assert it.detection_rate is None
    assert it.delay_violations == 0


def test_fault_served_by_primary_leaves_detection_undefined():
    # One slot falls inside a 1 s fault; the recovered primary still
    # reports within the 40 s bound, so no fault epoch was missed.
    fault = FaultSpec(FaultKind.HARD_FAILURE, "n1.primary", 205_000, 206_000)
    cfg = replace(build_preset("HF"), duration_ms=600_000, faults=(fault,))
    it = run_scenario(cfg, seeds=[2]).iterations[0]
    assert it.detection_rate is None
    assert it.epochs_fault_active == 1


def test_reports_are_deterministic():
    a = report_to_json(run_scenario(short_cfg(), seeds=[7, 8]))
    b = report_to_json(run_scenario(short_cfg(), seeds=[7, 8]))
    assert a == b


def test_json_round_trips():
    report = run_scenario(short_cfg(), seeds=[1])
    parsed = json.loads(report_to_json(report))
    assert parsed == report.as_dict()


def test_csv_schema_and_content_matches_json():
    report = run_scenario(short_cfg(), seeds=[1])
    lines = report_to_csv(report).strip().split("\n")
    assert lines[0] == "scenario,iteration,metric,value"
    rows = [line.split(",") for line in lines[1:]]
    as_json = report.as_dict()
    by_metric = {(r[1], r[2]): r[3] for r in rows}
    it = as_json["iterations"][0]
    assert float(by_metric[("1", "prr_redundant")]) == it["prr_redundant"]
    assert by_metric[("1", "detection_rate")] == ""  # undefined -> empty cell
    assert float(by_metric[("mean", "mean_prr_redundant")]) == as_json["summary"][
        "mean_prr_redundant"
    ]
    # Every numeric CSV value equals its JSON counterpart.
    for metric in ("prr_primary_only", "delay_violations", "duplicate_count"):
        assert float(by_metric[("1", metric)]) == it[metric]


def test_presets_run_fast_enough():
    import time

    start = time.monotonic()
    run_scenario(build_preset("HF"), seeds=[1])
    assert time.monotonic() - start < 10.0


def test_sf6_with_an_implicit_header_runs(tmp_path):
    path = tmp_path / "sf6.json"
    path.write_text(json.dumps({"preset": "control-clean", "lora": {"spreading_factor": 6, "explicit_header": False}}))
    cfg = load_scenario(str(path))
    assert (cfg.lora.spreading_factor, cfg.lora.explicit_header) == (6, False)
    assert run_scenario(cfg, seeds=[1]).iterations[0].prr_redundant > 0
