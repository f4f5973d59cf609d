"""Scenario configuration, presets, multi-seed execution and report formats.

Configs load from either a flat dotted-key text file (``mac.slot_min_ms=20000``)
or a JSON document with the same key paths; unknown keys are rejected by
name.  Presets reproduce the standard experiment setups: one sensor node
(primary + secondary board), one noise board, one gateway, 30-minute runs
with the fault active from minute 5 to minute 25.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, is_dataclass, replace
from typing import Annotated, get_args, get_origin

from .boards import FaultKind, FaultSpec, NodeConfig, SecondaryConfig
from .channel import NOISE_SOURCE_ID, ChannelParams, NoiseConfig, Position
from .engine import POSITIVE, check_typed_fields, declared_fields, ms_to_us, value_text
from .gateway import GatewayConfig
from .lora import LoraParams, time_on_air_us
from .mac import SarbConfig
from .metrics import IterationMetrics, MetricsReport
from .packets import DATA_BYTES, BoardRole
from .simulation import Simulation


class ConfigError(ValueError):
    """Invalid or unknown scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "custom"
    duration_ms: int = 1_800_000
    max_monitoring_delay_ms: Annotated[int, POSITIVE] = 40_000
    nodes: tuple[NodeConfig, ...] = (NodeConfig(id="n1"),)
    gateways: tuple[GatewayConfig, ...] = (GatewayConfig(id="gw-home"),)
    faults: tuple[FaultSpec, ...] = ()
    noise: NoiseConfig = NoiseConfig()
    mac: SarbConfig = SarbConfig()
    channel: ChannelParams = ChannelParams()
    lora: LoraParams = LoraParams()
    secondary: SecondaryConfig = SecondaryConfig()

    def __post_init__(self):
        check_typed_fields(self, ConfigError)
        if not self.nodes:
            raise ConfigError("at least one node is required")
        if not self.gateways:
            raise ConfigError("at least one gateway is required")
        has_secondary = any(n.has_secondary for n in self.nodes)
        if has_secondary and self.secondary.sensing_interval_ms <= self.mac.max_interval_ms:
            raise ConfigError(
                f"secondary.sensing_interval_ms must exceed the MAC's longest data interval"
                f" ({self.mac.max_interval_ms} ms), or the watchdog fires before every data slot"
            )
        # The first data slot comes at most one interval in; its monitoring
        # window must fit in the run, or no epoch can be scored.  This refuses
        # every duration_ms <= 0 too, so that field declares no bound.
        shortest = self.mac.max_interval_ms + self.max_monitoring_delay_ms
        if self.duration_ms < shortest:
            raise ConfigError(f"duration_ms must be at least {shortest}")
        # A frame is clamped to the AGC ceiling before a receiver's extra
        # loss, so too much loss puts every frame below the sensitivity.
        for i, g in enumerate(self.gateways):
            if self.channel.agc_ceiling_dbm - g.extra_loss_db < self.channel.sensitivity_dbm:
                raise ConfigError(
                    f"gateways[{i}].extra_loss_db puts every frame below the sensitivity"
                    " (channel.agc_ceiling_dbm - extra_loss_db < channel.sensitivity_dbm)"
                )
        # add_noise floors each gap between burst starts at the airtime + 1 us;
        # where that floor can bind, it silently changes the interferer's rate.
        noise = self.noise
        airtime_us = time_on_air_us(noise.payload_bytes, self.lora)
        if noise.enabled and airtime_us >= ms_to_us(noise.period_ms - noise.jitter_ms):
            raise ConfigError(
                f"a noise burst of noise.payload_bytes lasts {airtime_us / 1000} ms at these lora settings,"
                " not less than noise.period_ms - noise.jitter_ms, so bursts would run back to back"
            )
        # A data frame still on the air, or still waiting for its ack, at the
        # MAC's next slot makes that slot useless.
        mac = self.mac
        airtime_us = time_on_air_us(DATA_BYTES, self.lora)
        if mac.enabled:
            busy_us = airtime_us + ms_to_us(mac.ack_timeout_ms)
            gap = "retx_interval_ms" if mac.retx_slots_per_cycle > 0 else "slot_min_ms"
        else:
            busy_us, gap = airtime_us, "fixed_interval_ms"
        if busy_us >= ms_to_us(getattr(mac, gap)):
            raise ConfigError(
                f"a data frame lasts {airtime_us / 1000} ms at these lora settings, so it"
                f" (with its ack wait under SARB) would run into the MAC's next slot, mac.{gap} later"
            )
        airtime_us = time_on_air_us(self.secondary.heartbeat_bytes, self.lora)
        if has_secondary and airtime_us >= ms_to_us(self.secondary.heartbeat_period_ms):
            # A heartbeat still on the air defers the next one, so deferred beats would pile up.
            raise ConfigError(f"secondary.heartbeat_period_ms must exceed a heartbeat's {airtime_us / 1000} ms airtime")
        self._check_radio_ids()
        self._check_fault_targets()
        self._check_fault_overlap()

    def _board_ids(self) -> list[str]:
        ids = [f"{n.id}.{BoardRole.PRIMARY}" for n in self.nodes]
        return ids + [f"{n.id}.{BoardRole.SECONDARY}" for n in self.nodes if n.has_secondary]

    def _check_radio_ids(self):
        # The channel keys busy time and deafness by radio id.
        seen = {NOISE_SOURCE_ID}
        for rid in [g.id for g in self.gateways] + self._board_ids():
            if rid in seen:
                raise ConfigError(f"radio id {rid!r} is used twice; node and gateway ids must be unique")
            seen.add(rid)

    def _check_fault_targets(self):
        gateways = {g.id for g in self.gateways}
        boards = set(self._board_ids())
        for f in self.faults:
            if f.kind == FaultKind.GATEWAY_FAILURE:
                if f.target not in gateways:
                    raise ConfigError(f"gateway_failure target {f.target!r} is not a gateway id")
            elif f.target not in boards:
                raise ConfigError(
                    f"{f.kind} target {f.target!r} is not a board"
                    " (<node>.primary, or <node>.secondary for a node with a secondary)"
                )

    def _check_fault_overlap(self):
        hard = [f for f in self.faults if f.kind == FaultKind.HARD_FAILURE]
        for i, a in enumerate(hard):
            for b in hard[i + 1 :]:
                if a.target == b.target and a.start_ms < b.end_ms and b.start_ms < a.end_ms:
                    raise ConfigError(f"overlapping hard failures on {a.target}")


# -- presets -----------------------------------------------------------------

PRESET_NAMES = (
    "control-clean",
    "control-noise",
    "control-noise-noSARB",
    "HF",
    "SF1",
    "SF2",
    "GWF",
    "HF-noSARB",
    "SF1-noSARB",
    "SF2-noSARB",
    "HF-noRedundancy",
    "SF1-noRedundancy",
    "SF2-noRedundancy",
)


def build_preset(name: str) -> ScenarioConfig:
    """Expand a preset name into a full scenario config (pure function)."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset: {name!r} (see `sim presets`)")
    base = ScenarioConfig(name=name)
    root = name.removesuffix("-noSARB").removesuffix("-noRedundancy")
    if root == "control-clean":
        cfg = replace(base, noise=replace(base.noise, enabled=False))
    elif root == "HF":
        cfg = replace(base, faults=(FaultSpec(FaultKind.HARD_FAILURE, "n1.primary"),))
    elif root == "SF1":
        fault = FaultSpec(FaultKind.SENSOR_READ_FAILURE, "n1.primary", affected_sensor="co2_ppm")
        cfg = replace(base, faults=(fault,))
    elif root == "SF2":
        fault = FaultSpec(FaultKind.SENSOR_ANOMALY, "n1.primary", affected_sensor="co2_ppm")
        cfg = replace(base, faults=(fault,))
    elif root == "GWF":
        cfg = replace(
            base,
            gateways=(
                GatewayConfig(id="gw-home"),
                GatewayConfig(
                    id="gw-backup",
                    position=Position(12.0, 0.0),
                    acks_enabled=False,
                    extra_loss_db=4.0,  # one wall in the path
                ),
            ),
            faults=(FaultSpec(FaultKind.GATEWAY_FAILURE, "gw-home"),),
        )
    else:  # control-noise
        cfg = base

    if name.endswith("-noSARB"):
        cfg = replace(cfg, mac=replace(cfg.mac, enabled=False))
    if name.endswith("-noRedundancy"):
        cfg = replace(cfg, nodes=tuple(replace(n, has_secondary=False) for n in cfg.nodes))
    return cfg


# -- loading -------------------------------------------------------------------

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_flat(text: str) -> dict:
    """Dotted-key lines into a nested dict; '#' starts a comment."""
    tree: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: key {key!r} conflicts with earlier value")
        node[parts[-1]] = raw
    return tree


def _config_from_tree(tree: dict) -> ScenarioConfig:
    tree = dict(tree)
    # A preset key, when present, must name a preset: an empty or non-string
    # value is refused, not read as the default scenario.
    base = build_preset(tree.pop("preset")) if "preset" in tree else ScenarioConfig()
    return _build(ScenarioConfig, tree, "", base)


def _build(cls, tree, path: str, base=None):
    """A ``cls`` from a tree of keys, or ``base`` with those keys replaced.
    A section that rejects its values is named in the error."""
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: expected nested keys, got {value_text(tree)}")
    fields = declared_fields(cls)
    kwargs = {}
    for key, value in tree.items():
        where = f"{path}.{key}" if path else key
        if key not in fields:
            raise ConfigError(f"unknown key: {where}")
        kwargs[key] = _coerce(value, fields[key][0], where, getattr(base, key, None))
    try:
        return replace(base, **kwargs) if base is not None else cls(**kwargs)
    except (ValueError, TypeError) as exc:  # a TypeError: a required key is missing
        if not path:  # the scenario's own checks name their keys
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def _coerce(value, ftype, path: str, current=None):
    """``value`` parsed into the declared field type where it can be.

    Strings (every flat-file value) parse into an int, float or bool field's
    type, and a JSON integer serves as a float; a value that does not parse
    is left as it is, for its section to refuse by the field's name.  A
    position is ``[x, y]`` or ``{"x": .., "y": ..}``; any other dataclass
    field is a section whose keys replace those of ``current``.
    """
    if get_origin(ftype) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value_text(value)}")
        item, _ = get_args(ftype)  # every tuple field is tuple[T, ...]
        return tuple(_coerce(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    if ftype is Position:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            value = {"x": value[0], "y": value[1]}
        return _build(Position, value, path)
    if is_dataclass(ftype):
        return _build(ftype, value, path, current)
    if ftype is bool and isinstance(value, str):
        return _BOOL_WORDS.get(value.lower(), value)
    if ftype in (int, float) and (isinstance(value, str) or (ftype is float and type(value) is int)):
        try:
            return ftype(value)
        except (ValueError, OverflowError):
            pass
    return value


def load_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario config from a flat-text or JSON file."""
    if not os.path.exists(path):
        raise ConfigError(f"no such config file: {path}")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            tree = json.loads(text)
        else:
            tree = _parse_flat(text)
        return _config_from_tree(tree)
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def resolve_scenario(name_or_path: str) -> ScenarioConfig:
    """A preset name, or a path to a config file."""
    if name_or_path in PRESET_NAMES:
        return build_preset(name_or_path)
    return load_scenario(name_or_path)


# -- execution and report formats ---------------------------------------------


def run_scenario(cfg: ScenarioConfig, seeds: list[int]) -> MetricsReport:
    """One independent simulation per seed, aggregated into a report."""
    seeds = list(seeds)
    if not seeds:
        # A report over no seed has NaN means, which JSON cannot hold.
        raise ConfigError("at least one seed is required")
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"seeds must not be negative: {seeds}")
    iterations: list[IterationMetrics] = [Simulation(cfg, seed).run() for seed in seeds]
    return MetricsReport(scenario=cfg.name, seeds=seeds, iterations=iterations)


def report_to_json(report: MetricsReport) -> str:
    return json.dumps(report.as_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_rows(report: MetricsReport) -> list[tuple[str, str, str, str]]:
    rows = []
    for it in report.iterations:
        flat = asdict(it)
        rssi = flat.pop("rssi")
        iteration = str(flat.pop("seed"))
        for metric, value in flat.items():
            rows.append((report.scenario, iteration, metric, _fmt(value)))
        for gw_id, stats in rssi.items():
            for stat, value in stats.items():
                rows.append((report.scenario, iteration, f"rssi.{gw_id}.{stat}", _fmt(value)))
    for metric, value in report.summary().items():
        rows.append((report.scenario, "mean", metric, _fmt(value)))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if not isinstance(value, float):
        return str(value)
    if not math.isfinite(value):
        # As report_to_json refuses them: no report holds NaN or infinity.
        raise ValueError(f"Out of range float values are not CSV compliant: {value!r}")
    return repr(value)


def report_to_csv(report: MetricsReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("scenario", "iteration", "metric", "value"))
    writer.writerows(_csv_rows(report))
    return buf.getvalue()
