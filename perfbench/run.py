#!/usr/bin/env python3
"""redwsn benchmark: runs one workload, checks its outputs and prints every
metric by name with its unit; the last stdout line is a JSON result.

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 25 --trace 0

The loop is closed: one process runs the workload's simulations back to
back, cycling over the workload's distinct rounds until --seconds have
passed and every round has run twice.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json.  --trace 1 also repeats the distinct rounds with
every layer entry point wrapped (see tracing.py), reports the per-layer
metrics, the tracing overhead and the node-count curve, and saves the spans
under perfbench/traces/.  End-to-end times are probe-calibrated seconds
(see clock.py); host seconds as measured are printed as `info host` lines.

Exit codes: 0 result printed; 1 the package failed to import (a result with
every operation failed is printed); 2 the package is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Optional

import clock
import loader
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"
SETUP_PROBES = 7

# Run in a fresh interpreter per probe, so the import is paid in full.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import clock, loader, workloads
with clock.Clock() as timer:
    rw, _ = loader.load(sys.argv[2])
    for run in workloads.build_round(rw, sys.argv[3], int(sys.argv[4]), 0):
        rw.simulation.Simulation(run.cfg, run.seed)
print(timer.wall_s, timer.ref)
"""


class Tally:
    """Operations attempted and those that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    def fail(self, op: str, problem: str) -> None:
        print(f"FAIL {op}: {problem}", file=sys.stderr)
        self.failures.setdefault(op, []).append(problem)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Round:
    wall_s: float = 0.0
    run_s: list[float] = field(default_factory=list)
    # The same times in probe-loop units (see clock.py).
    ref: float = 0.0
    run_ref: list[float] = field(default_factory=list)
    metrics: dict[str, object] = field(default_factory=dict)
    reports: dict[str, str] = field(default_factory=dict)


def report_json(rw: ModuleType, run: workloads.Run, m) -> str:
    report = rw.metrics.MetricsReport(scenario=run.cfg.name, seeds=[run.seed], iterations=[m])
    return rw.scenario.report_to_json(report)


def simulate(rw: ModuleType, run: workloads.Run, tracer: Optional[tracing.Tracer] = None):
    """(metrics, Clock of Simulation.run); construction is untimed.  Traced
    runs are not probed, so no probe time lands in a span."""
    if tracer is not None:
        tracer.run_id += 1
    sim = rw.simulation.Simulation(run.cfg, run.seed)
    with clock.Clock(probing=tracer is None) as timer:
        m = sim.run()
    return m, timer


def run_round(
    rw: ModuleType,
    workload: workloads.Workload,
    seed: int,
    k: int,
    tally: Tally,
    tracer: Optional[tracing.Tracer] = None,
    tag: str = "round",
) -> Round:
    result = Round()
    for run in workloads.build_round(rw, workload.name, seed, k % workload.distinct_rounds):
        op = f"{tag}{k}/{run.label}"
        tally.attempted += 1
        try:
            m, timer = simulate(rw, run, tracer)
        except Exception as exc:
            traceback.print_exc()
            tally.fail(op, repr(exc))
            continue
        result.wall_s += timer.wall_s
        result.ref += timer.ref
        result.run_s.append(timer.wall_s)
        result.run_ref.append(timer.ref)
        result.metrics[run.label] = m
        for problem in workloads.check_run(m):
            tally.fail(op, problem)
        result.reports[run.label] = report_json(rw, run, m)
    for label, problem in workloads.check_round(result.metrics).items():
        tally.fail(f"{tag}{k}/{label}", problem)
    if workload.ctmc:
        tally.attempted += 1
        try:
            with clock.Clock(probing=tracer is None) as timer:
                table = rw.ctmc.failure_probability_table(*workloads.CTMC_ARGS)
        except Exception as exc:
            traceback.print_exc()
            tally.fail(f"{tag}{k}/ctmc", repr(exc))
            return result
        result.wall_s += timer.wall_s
        result.ref += timer.ref
        for problem in workloads.check_pi0(table):
            tally.fail(f"{tag}{k}/ctmc", problem)
    return result


def measure(rw: ModuleType, workload: workloads.Workload, seed: int, seconds: float, tally: Tally) -> list[Round]:
    """Cycle over the distinct rounds until `seconds` have passed.

    Every input runs at least twice, and each repeat must reproduce the
    reports of its first run byte for byte.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < 2 * workload.distinct_rounds or time.perf_counter() - start < seconds:
        k = len(rounds)
        result = run_round(rw, workload, seed, k, tally)
        first = rounds[k % workload.distinct_rounds] if k >= workload.distinct_rounds else result
        for label, report in result.reports.items():
            if report != first.reports.get(label):
                tally.fail(f"round{k}/{label}", "report differs from an earlier run of the same seed")
        rounds.append(result)
    return rounds


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Medians of (host seconds, probe units) to import the package, build
    round 0's configs and construct each of its simulations, each time in a
    fresh interpreter."""
    walls, refs = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        wall, ref = map(float, out.stdout.split()[-2:])
        walls.append(wall)
        refs.append(ref)
    return statistics.median(walls), statistics.median(refs)


def end_to_end(rounds: list[Round], setup_ref: float) -> dict[str, float]:
    """Times are in seconds at the nominal probe speed (see clock.py)."""
    return {
        "wall_s": statistics.median(r.ref for r in rounds) * clock.REF_S,
        "run_s.p50": statistics.median(t for r in rounds for t in r.run_ref) * clock.REF_S,
        "setup_s": setup_ref * clock.REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_timings(rounds: list[Round]) -> None:
    """Host seconds as measured: medians, and the highest percentile with
    at least ten samples beyond it."""
    run_s = sorted(t for r in rounds for t in r.run_s)
    line = f"info host run_s samples {len(run_s)} p50 {statistics.median(run_s):.4f}"
    for pct in (99, 95, 90):
        if len(run_s) * (100 - pct) >= 1000:
            line += f" p{pct} {statistics.quantiles(run_s, n=100)[pct - 1]:.4f}"
            break
    print(line)
    print(f"info host wall_s samples {len(rounds)} p50 {statistics.median(r.wall_s for r in rounds):.4f}")


def per_layer(
    rw: ModuleType,
    workload: workloads.Workload,
    seed: int,
    untraced: list[Round],
    tally: Tally,
) -> dict[str, float]:
    """Repeat the distinct rounds traced and derive the per-layer metrics."""
    n = workload.distinct_rounds
    with tracing.Tracer(rw) as tr:
        rounds = [run_round(rw, workload, seed, k, tally, tr, tag="traced") for k in range(n)]
    for k, (traced, plain) in enumerate(zip(rounds, untraced)):
        if traced.reports != plain.reports:
            tally.fail(f"traced{k}", "tracing changed the reports")
    wall = sum(r.wall_s for r in rounds)
    out = layer_metrics(tr, wall)
    # Against the median untraced wall time of each of the same rounds.
    out["trace.overhead_s"] = wall - sum(
        statistics.median(r.wall_s for r in untraced[k::n]) for k in range(n)
    )
    TRACE_DIR.mkdir(exist_ok=True)
    tr.save(str(TRACE_DIR / f"{workload.name}.npz"))
    print_self_times(tr, wall)

    for run, nodes in zip(workloads.curve_runs(rw, seed), workloads.CURVE_NODES):
        tally.attempted += 1
        with tracing.Tracer(rw) as tc:
            m, timer = simulate(rw, run, tc)
        for problem in workloads.check_run(m):
            tally.fail(f"curve/{run.label}", problem)
        calls, _, resolve_self = tc.totals()["channel.resolve"]
        out[f"curve.n{nodes}.wall_s"] = timer.wall_s
        out[f"curve.n{nodes}.resolve_self_us_per_frame"] = resolve_self / calls * 1e6
        tc.save(str(TRACE_DIR / f"{workload.name}-curve-n{nodes}.npz"))
    return out


def layer_metrics(tr: tracing.Tracer, wall: float) -> dict[str, float]:
    totals = tr.totals()
    counts = tr.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    deliveries = counts["channel.deliveries"] + calls("gateway.on_receive")
    return {
        "engine.events": counts["engine.events"],
        "engine.scheduled": counts["engine.scheduled"],
        "engine.dispatch_self_s": self_s("engine.run_until"),
        "lora.toa.calls": calls("lora.toa"),
        "lora.toa.s": total_s("lora.toa"),
        "channel.frames": calls("channel.begin"),
        "channel.begin.s": total_s("channel.begin"),
        "channel.busy_until.calls": calls("channel.busy_until"),
        "channel.busy_until.s": total_s("channel.busy_until"),
        "channel.resolve.calls": calls("channel.resolve"),
        "channel.resolve.self_s": self_s("channel.resolve"),
        "channel.rssi.calls": calls("channel.rssi"),
        "channel.rssi.s": total_s("channel.rssi"),
        "channel.deliveries": deliveries,
        "channel.delivery_ratio": _ratio(deliveries, counts["channel.pairs"]),
        "mac.slots": counts["mac.slots"],
        "mac.acks": counts["mac.acks"],
        "mac.retx": counts["mac.retx"],
        "mac.evictions": counts["mac.evictions"],
        "mac.ack_ratio": _ratio(counts["mac.acks"], counts["mac.sends"]),
        "boards.sense.calls": calls("boards.sense"),
        "boards.sense.s": total_s("boards.sense"),
        "boards.transmit.calls": counts["boards.transmit.calls"],
        "boards.transmit.deferred": counts["boards.transmit.deferred"],
        "boards.substitutes": counts["boards.substitutes"],
        "packets.detect_anomaly.calls": calls("packets.detect_anomaly"),
        "packets.detect_anomaly.s": total_s("packets.detect_anomaly"),
        "gateway.rx": calls("gateway.on_receive"),
        "gateway.on_receive.s": total_s("gateway.on_receive"),
        "server.forwards": counts["server.forwards"],
        "server.duplicates": counts["server.duplicates"],
        "server.dedup.s": total_s("server.dedup"),
        "metrics.prr.s": total_s("metrics.prr"),
        "metrics.detection.s": total_s("metrics.detection"),
        "metrics.delay.s": total_s("metrics.delay"),
        "metrics.rssi.s": total_s("metrics.rssi"),
        "metrics.share": _ratio(sum(total_s(n) for n in tracing.METRIC_SPANS), wall),
        "simulation.init.s": total_s("simulation.init"),
        "scenario.build.s": total_s("scenario.build"),
        "scenario.report.s": total_s("scenario.report"),
        "ctmc.models": counts["ctmc.models"],
        "ctmc.table.s": total_s("ctmc.table"),
        "trace.wall_s": wall,
        "trace.uncovered_s": wall - tr.covered_s(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def print_self_times(tr: tracing.Tracer, wall: float) -> None:
    rows = sorted(tr.totals().items(), key=lambda kv: -kv[1][2])
    print(f"info traced wall {wall:.4f} s; self time by span:")
    for name, (calls, total, own) in rows:
        print(f"info   {name:<24} self {own:9.4f} s  {own / wall:6.1%}  total {total:9.4f} s  calls {calls}")


def fail_everything(exc: BaseException) -> int:
    traceback.print_exception(exc)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not (SRC / loader.PACKAGE).is_dir():
        print(f"error: package {loader.PACKAGE!r} not found under {SRC}", file=sys.stderr)
        return 2
    try:
        rw, shimmed = loader.load(str(SRC))
    except Exception as exc:
        return fail_everything(exc)
    print(f"info import_shim {str(shimmed).lower()}")

    workload = workloads.WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup(workload.name, args.seed)
    tally = Tally()
    rounds = measure(rw, workload, args.seed, args.seconds, tally)
    distinct = rounds[: workload.distinct_rounds]
    summary = workloads.simulated_summary([r.metrics for r in distinct])
    digest = hashlib.sha256("".join(t for r in distinct for t in r.reports.values()).encode()).hexdigest()

    print(f"info rounds {len(rounds)} (distinct {len(distinct)}), runs {sum(len(r.run_s) for r in rounds)}")
    print(f"info report_digest {digest}")
    for name, value in summary.items():
        print(f"info {name} {value:.6g}")
    print_timings(rounds)
    if args.trace:
        metrics = per_layer(rw, workload, args.seed, rounds, tally)
    else:
        print(f"info host setup_s samples {SETUP_PROBES} p50 {setup[0]:.4f}")
        metrics = end_to_end(rounds, setup[1])
    print(f"info error_rate {tally.failed}/{tally.attempted}")
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {declared[name]}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {n: {"value": v, "unit": declared[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
