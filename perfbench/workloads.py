"""Benchmark workloads and the checks on their outputs.

A workload seed yields `distinct_rounds` rounds; round k's simulations are
derived from the workload seed and k alone, so the same seed always yields
the same configs and simulation seeds.  The benchmark cycles over these
rounds for timing; each feeds the simulated statistics, the report digest
and the per-layer trace once.

* paper-matrix: every preset for 30 simulated minutes plus the CTMC table,
  the paper's own experiment.  Small logs, so the cost is per-frame
  overhead: engine heap, time-on-air, board sensing and the MAC.
* dense-50: 50 redundant nodes (101 receivers) on one acking gateway with
  the noise board on, 10 simulated minutes.  `Channel._resolve` scans the
  frame log per receiver, so channel resolution dominates.
* long-fleet: 10 redundant nodes on a clean channel for 2 simulated hours.
  The PRR coverage scan grows with slots x server entries, so metrics is a
  large share here and about 1 % elsewhere.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from types import ModuleType
from typing import Callable

# failure_probability_table(1e-4/h, 20.83e-3/h, N <= 4) and the paper's
# published pi_0 column, which truncates the fourth significant digit.
CTMC_ARGS = (1e-4, 20.83e-3, 4)
PI0_PUBLISHED = (4.777e-3, 4.565e-5, 6.543e-7, 1.250e-8)
PI0_REL_TOL = 5e-4

FAULT_PRESETS = ("HF", "SF1", "SF2")
SARB_PAIR = ("control-noise", "control-noise-noSARB")
CURVE_NODES = (1, 5, 20, 50)
# Nodes sit 1.5-12 m from the gateway: every link stays above sensitivity
# (-120 dBm is reached near 25 m) while distances still differ enough for
# capture to matter.
NODE_RADIUS_M = (1.5, 12.0)


@dataclass(frozen=True)
class Run:
    """One simulation: a scenario config and its master seed."""

    label: str
    cfg: object
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    distinct_rounds: int
    ctmc: bool
    build: Callable[[ModuleType, random.Random], list[Run]]


def round_rng(workload: str, seed: int, k: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}/{k}")


def fleet(rw: ModuleType, rng: random.Random, preset: str, n_nodes: int, duration_ms: int) -> Run:
    """`preset` with `n_nodes` redundant nodes at seed-drawn positions."""
    Position, NodeConfig = rw.channel.Position, rw.scenario.NodeConfig
    nodes = []
    for i in range(n_nodes):
        radius, angle = rng.uniform(*NODE_RADIUS_M), rng.uniform(0.0, 2 * math.pi)
        position = Position(radius * math.cos(angle), radius * math.sin(angle))
        nodes.append(NodeConfig(id=f"n{i + 1}", position=position))
    cfg = replace(
        rw.scenario.build_preset(preset),
        name=f"{preset}-x{n_nodes}",
        nodes=tuple(nodes),
        duration_ms=duration_ms,
    )
    return Run(cfg.name, cfg, rng.randrange(2**31))


def _paper_matrix(rw: ModuleType, rng: random.Random) -> list[Run]:
    # All presets of a round share one seed, so gains compare paired runs.
    seed = rng.randrange(2**31)
    return [Run(p, rw.scenario.build_preset(p), seed) for p in rw.scenario.PRESET_NAMES]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-matrix", 2, True, _paper_matrix),
        Workload("dense-50", 1, False, lambda rw, rng: [fleet(rw, rng, "control-noise", 50, 600_000)]),
        Workload("long-fleet", 1, False, lambda rw, rng: [fleet(rw, rng, "control-clean", 10, 7_200_000)]),
    )
}


def build_round(rw: ModuleType, workload: str, seed: int, k: int) -> list[Run]:
    return WORKLOADS[workload].build(rw, round_rng(workload, seed, k))


def curve_runs(rw: ModuleType, seed: int) -> list[Run]:
    """The node-count curve: `control-noise` with 1/5/20/50 nodes, 10 min."""
    return [fleet(rw, round_rng("curve", seed, n), "control-noise", n, 600_000) for n in CURVE_NODES]


# -- checks --------------------------------------------------------------------


def check_run(m) -> list[str]:
    """Problems with one run's IterationMetrics (empty when it is sound)."""
    problems = []
    if not 0.0 <= m.prr_primary_only <= m.prr_redundant <= 1.0:
        problems.append(
            f"PRR out of order: primary-only {m.prr_primary_only}, redundant {m.prr_redundant}"
        )
    if m.epochs_total <= 0:
        problems.append(f"no scored epochs ({m.epochs_total})")
    return problems


def redundancy_gain_pp(m) -> float:
    return (m.prr_redundant - m.prr_primary_only) * 100.0


def check_round(metrics: dict[str, object]) -> dict[str, str]:
    """Round-level problems by run label: the secondary board must add PRR
    on every fault preset of the round."""
    return {
        label: f"redundancy gain {redundancy_gain_pp(metrics[label]):.2f} pp is not positive"
        for label in FAULT_PRESETS
        if label in metrics and redundancy_gain_pp(metrics[label]) <= 0
    }


def check_pi0(table: list[tuple[int, float]]) -> list[str]:
    if [n for n, _ in table] != list(range(1, len(PI0_PUBLISHED) + 1)):
        return [f"unexpected CTMC table rows {[n for n, _ in table]}"]
    return [
        f"pi_0(N={n}) = {got:.6e}, published {want:.3e}"
        for (n, got), want in zip(table, PI0_PUBLISHED)
        if abs(got - want) > PI0_REL_TOL * want
    ]


def simulated_summary(rounds: list[dict[str, object]]) -> dict[str, float]:
    """Means of the simulated statistics over the given rounds' runs."""
    runs = [m for metrics in rounds for m in metrics.values()]
    out = {
        "prr_redundant": _mean(m.prr_redundant for m in runs),
        "prr_primary_only": _mean(m.prr_primary_only for m in runs),
        "delay_violations": _mean(m.delay_violations for m in runs),
    }
    detection = [m.detection_rate for m in runs if m.detection_rate is not None]
    if detection:
        out["detection_rate"] = _mean(detection)
    gains = [redundancy_gain_pp(r[p]) for r in rounds for p in FAULT_PRESETS if p in r]
    if gains:
        out["redundancy_gain_pp"] = _mean(gains)
    sarb = [
        (r[SARB_PAIR[0]].prr_redundant - r[SARB_PAIR[1]].prr_redundant) * 100.0
        for r in rounds
        if all(p in r for p in SARB_PAIR)
    ]
    if sarb:
        out["sarb_gain_pp"] = _mean(sarb)
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")
