"""Scenario metrics: the epoch ledger, PRR, detection rate, delay
violations, RSSI stats.

A *monitoring epoch* is an expected primary data slot.  An epoch counts as
covered when a valid data packet from the node (either board) reaches the
server within the maximum monitoring delay of the slot time (ServerEntry
states the validity rule).  ``epoch_ledger`` decides this once per run;
PRR and detection reduce its rows, so the with- and without-redundancy
ratios share one base.  Slots, arrival times, bounds and the run's duration
are integer microseconds, the simulation clock's unit, so an arrival exactly
one bound after a slot or after the previous arrival is exactly on the
bound.  A bound of ``inf`` means no bound.

The RSSI stats are numpy's, bit for bit, from one sort in plain Python:
per-gateway logs are short, so numpy's per-call overhead would dominate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .engine import in_windows
from .gateway import ServerEntry
from .packets import BoardRole


class Epoch(NamedTuple):
    """One scored epoch: whether a fault on the node's primary covers its
    slot, and each board's first valid arrival in [slot, slot + bound)."""

    node_id: str
    slot_us: int
    fault_active: bool
    primary_us: Optional[int]
    secondary_us: Optional[int]


def _arrivals(entries: list[ServerEntry]) -> dict[tuple[str, str], list[int]]:
    """Per (node, board role), the sorted arrival times (us) of valid data."""
    times: dict[tuple[str, str], list[int]] = {}
    for e in entries:
        if e.valid:
            times.setdefault((e.node_id, e.board_role), []).append(e.time_us)
    for node_times in times.values():
        node_times.sort()
    return times


def epoch_ledger(
    entries: list[ServerEntry],
    slots_by_node: dict[str, list[int]],
    fault_windows_by_node: dict[str, list[tuple[int, int]]],
    duration_us: int,
    bound_us: float = 40_000_000,
) -> list[Epoch]:
    """One row per scored epoch: a slot whose whole window fits inside the
    run (the horizon would truncate any other).  It is fault-active when it
    lies in one of the node's primary fault windows [start, end).

    A node's slots ascend, as the MAC records them, so one walk finds each
    board's first arrival at or after every slot from the previous one."""
    arrivals = _arrivals(entries)
    ledger: list[Epoch] = []
    for node, slots in slots_by_node.items():
        primary = arrivals.get((node, BoardRole.PRIMARY), [])
        secondary = arrivals.get((node, BoardRole.SECONDARY), [])
        windows = fault_windows_by_node.get(node)
        p = s = 0
        for slot in slots:
            end = slot + bound_us
            if end > duration_us:
                break
            p = bisect_left(primary, slot, p)
            s = bisect_left(secondary, slot, s)
            ledger.append(
                Epoch(
                    node,
                    slot,
                    in_windows(windows, slot) if windows else False,
                    primary[p] if p < len(primary) and primary[p] < end else None,
                    secondary[s] if s < len(secondary) and secondary[s] < end else None,
                )
            )
    return ledger


def compute_prr(ledger: list[Epoch], roles: tuple[str, ...] = (BoardRole.PRIMARY, BoardRole.SECONDARY)) -> float:
    """Fraction of the ledger's epochs served by a board in roles."""
    if not ledger:
        raise ValueError("expected schedule is empty")
    primary, secondary = BoardRole.PRIMARY in roles, BoardRole.SECONDARY in roles
    return sum(
        1 for row in ledger if (primary and row.primary_us is not None) or (secondary and row.secondary_us is not None)
    ) / len(ledger)


def compute_detection_rate(ledger: list[Epoch]) -> Optional[float]:
    """Secondary responsiveness on faulty/missed primary epochs.

    Denominator: the fault-active epochs no valid primary packet served (the
    primary stayed silent or shipped faulty data).  Numerator: those a
    secondary backup/corrective packet served.  None when there are none:
    with no fault, or when a brief fault only touched served epochs."""
    missed = [row for row in ledger if row.fault_active and row.primary_us is None]
    if not missed:
        return None
    return sum(1 for row in missed if row.secondary_us is not None) / len(missed)


def delay_violations(
    entries: list[ServerEntry],
    node_ids: list[str],
    duration_us: int,
    bound_us: float = 40_000_000,
) -> int:
    """Count of per-node gaps between consecutive valid data receptions that
    exceed the maximum monitoring delay (run boundaries included)."""
    if bound_us <= 0:
        raise ValueError("bound must be positive")
    arrivals = _arrivals(entries)
    violations = 0
    for node in node_ids:
        times = sorted(arrivals.get((node, BoardRole.PRIMARY), []) + arrivals.get((node, BoardRole.SECONDARY), []))
        checkpoints = [0, *times, duration_us]
        violations += sum(
            1 for a, b in zip(checkpoints, checkpoints[1:]) if b - a > bound_us
        )
    return violations


def _quantile(ordered: list[float], q: float) -> float:
    """numpy's linear-rule quantile of an ascending list, in numpy's order
    of float operations: the index (n - 1) * q splits into a floor and a
    fraction g, and the value is taken from the nearer neighbour's side."""
    last = len(ordered) - 1
    index = last * q
    i = int(index)
    # One sample is its own neighbour.
    a, b = ordered[i], ordered[min(i + 1, last)]
    g = index - i
    diff = b - a
    return a + diff * g if g < 0.5 else b - diff * (1 - g)


def rssi_summary(samples: list[float]) -> dict[str, float]:
    """Distribution stats of one gateway's RSSI log; empty log, empty stats.

    Each stat equals numpy's bit for bit (np.percentile's linear rule for
    the quartiles, np.median, min, max, mean), from one sort.  The mean
    stays numpy's pairwise sum: Python's sum or fsum would move its last
    bit.  A NaN sample makes every stat NaN, as it does in numpy."""
    n = len(samples)
    if not n:
        return {"count": 0}
    total = float(np.asarray(samples, dtype=float).sum())
    if math.isnan(total) and any(map(math.isnan, samples)):
        return {"count": n, **dict.fromkeys(("min", "q1", "median", "q3", "max", "mean"), math.nan)}
    ordered = sorted(samples)
    mid = n // 2
    return {
        "count": n,
        "min": ordered[0],
        "q1": _quantile(ordered, 0.25),
        "median": ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2,
        "q3": _quantile(ordered, 0.75),
        "max": ordered[-1],
        "mean": total / n,
    }


@dataclass
class IterationMetrics:
    seed: int
    prr_redundant: float
    prr_primary_only: float
    detection_rate: Optional[float]
    delay_violations: int
    duplicate_count: int
    epochs_total: int
    epochs_fault_active: int
    rssi: dict[str, dict[str, float]] = field(default_factory=dict)


_MEAN_FIELDS = (
    "prr_redundant",
    "prr_primary_only",
    "detection_rate",
    "delay_violations",
    "duplicate_count",
)


@dataclass
class MetricsReport:
    scenario: str
    seeds: list[int]
    iterations: list[IterationMetrics]

    def mean(self, metric: str) -> Optional[float]:
        values = [getattr(it, metric) for it in self.iterations]
        if any(v is None for v in values):
            return None
        return float(np.mean(values))

    def summary(self) -> dict:
        out = {}
        for name in _MEAN_FIELDS:
            m = self.mean(name)
            out[f"mean_{name}"] = m
        return out

    def as_dict(self) -> dict:
        return {**asdict(self), "summary": self.summary()}


def compare_reports(a: MetricsReport, b: MetricsReport, metric: str) -> float:
    """Difference of the mean metric (a minus b) in percentage points."""
    ma, mb = a.mean(metric), b.mean(metric)
    if ma is None or mb is None:
        raise ValueError(f"metric {metric!r} missing from one of the reports")
    return (ma - mb) * 100.0
