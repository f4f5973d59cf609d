"""Scenario metrics: PRR, detection rate, delay violations, RSSI stats.

A *monitoring epoch* is an expected primary data slot.  An epoch counts as
covered when a valid data packet from the node (either board) reaches the
server within the maximum monitoring delay of the slot time (ServerEntry
states the validity rule).  Using expected slots as the common denominator
lets the with- and without-redundancy ratios share one base.  Slots, arrival
times, bounds and the run's duration are all integer microseconds, the
simulation clock's unit, so an arrival exactly one bound after a slot or
after the previous arrival is exactly on the bound.  A bound of ``inf``
means no bound.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .gateway import ServerEntry


def _arrivals(entries: list[ServerEntry], roles: tuple[str, ...]) -> dict[str, list[int]]:
    """Per node, the sorted arrival times (us) of valid data from boards in roles."""
    times: dict[str, list[int]] = {}
    for e in entries:
        if e.valid and e.board_role in roles:
            times.setdefault(e.node_id, []).append(e.time_us)
    for node_times in times.values():
        node_times.sort()
    return times


def _covered(times_us: list[int], slot_us: int, bound_us: float) -> bool:
    """True iff some arrival falls in [slot, slot + bound)."""
    i = bisect_left(times_us, slot_us)
    return i < len(times_us) and times_us[i] < slot_us + bound_us


def compute_prr(
    entries: list[ServerEntry],
    slots_by_node: dict[str, list[int]],
    bound_us: float = 40_000_000,
    roles: tuple[str, ...] = ("primary", "secondary"),
) -> float:
    """Fraction of monitoring epochs covered by a valid data reception."""
    total = sum(len(slots) for slots in slots_by_node.values())
    if total == 0:
        raise ValueError("expected schedule is empty")
    arrivals = _arrivals(entries, roles)
    covered = sum(
        _covered(arrivals.get(node, []), slot, bound_us)
        for node, slots in slots_by_node.items()
        for slot in slots
    )
    return covered / total


def compute_detection_rate(
    entries: list[ServerEntry],
    fault_slots: dict[str, list[int]],
    bound_us: float = 40_000_000,
) -> Optional[float]:
    """Secondary responsiveness on faulty/missed primary epochs.

    ``fault_slots`` holds each node's epochs inside a fault window on its
    primary board.  Denominator: those no valid primary packet served within
    the bound (the primary either stayed silent or shipped faulty data).
    Numerator: those for which a secondary backup/corrective packet was
    received within the bound.  None when no such epoch exists: with no
    fault, or when a brief fault only touched epochs the primary still served.
    """
    primary = _arrivals(entries, ("primary",))
    secondary = _arrivals(entries, ("secondary",))
    missed = 0
    detected = 0
    for node, slots in fault_slots.items():
        for slot in slots:
            if _covered(primary.get(node, []), slot, bound_us):
                continue
            missed += 1
            if _covered(secondary.get(node, []), slot, bound_us):
                detected += 1
    if missed == 0:
        return None
    return detected / missed


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
    arrivals = _arrivals(entries, ("primary", "secondary"))
    violations = 0
    for node in node_ids:
        checkpoints = [0, *arrivals.get(node, []), duration_us]
        violations += sum(
            1 for a, b in zip(checkpoints, checkpoints[1:]) if b - a > bound_us
        )
    return violations


def rssi_summary(samples: list[float]) -> dict[str, float]:
    """Distribution stats of one gateway's RSSI log; empty log, empty stats."""
    if not samples:
        return {"count": 0}
    arr = np.asarray(samples, dtype=float)
    q1, q3 = np.percentile(arr, (25, 75)).tolist()
    return {
        "count": int(arr.size),
        "min": float(arr.min()),
        "q1": q1,
        "median": float(np.median(arr)),
        "q3": q3,
        "max": float(arr.max()),
        "mean": float(arr.mean()),
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
