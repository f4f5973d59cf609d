"""Tests of the benchmark's own logic: workload derivation, span
accounting, the probing clock, the import shim and error counting.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import signal
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import clock
import loader
import run as bench
import tracing
import workloads

SRC = str(Path(__file__).resolve().parent.parent / "src")
rw, _ = loader.load(SRC)


# -- workloads -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_follow_the_seed(name):
    first = workloads.build_round(rw, name, 3, 0)
    assert first == workloads.build_round(rw, name, 3, 0)
    assert first != workloads.build_round(rw, name, 4, 0)
    assert first != workloads.build_round(rw, name, 3, 1)


def test_curve_follows_the_seed():
    runs = workloads.curve_runs(rw, 3)
    assert runs == workloads.curve_runs(rw, 3)
    assert runs != workloads.curve_runs(rw, 4)
    assert [len(r.cfg.nodes) for r in runs] == list(workloads.CURVE_NODES)


# -- span accounting -----------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # 0: root [0, 100) with children 1 [10, 40) and 2 [50, 90);
    # 1 has child 3 [15, 25); 4 is a second root [100, 130).
    durations = np.array([100.0, 30.0, 40.0, 10.0, 30.0])
    parents = np.array([-1, 0, 0, 1, -1])
    assert tracing.self_times(durations, parents).tolist() == [30.0, 20.0, 40.0, 10.0, 30.0]


def test_tracer_links_nested_spans_and_sums_self_time():
    tr = tracing.Tracer(rw)
    inner = tr.span("inner", lambda: sum(range(1000)))
    outer = tr.span("outer", lambda: inner() + inner())
    outer()
    outer()
    spans = tr.arrays()
    assert spans["parent"].tolist() == [-1, 0, 0, -1, 3, 3]
    totals = tr.totals()
    calls, total, own = totals["outer"]
    assert calls == 2
    assert totals["inner"][0] == 4
    assert own == pytest.approx(total - totals["inner"][1])


def test_tracer_restores_every_entry_point():
    before = (rw.channel.rssi_at, rw.channel.Channel.__dict__["_resolve"], rw.ctmc.BirthDeathModel)
    with tracing.Tracer(rw) as tr:
        assert rw.channel.rssi_at is not before[0]
        rw.ctmc.failure_probability_table(*workloads.CTMC_ARGS)
    assert (rw.channel.rssi_at, rw.channel.Channel.__dict__["_resolve"], rw.ctmc.BirthDeathModel) == before
    assert tr.counts["ctmc.models"] == 4


# -- clock ---------------------------------------------------------------------


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def test_clock_probes_the_block_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with clock.Clock() as timer:
        _spin(0.1)
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.09 < timer.wall_s < 0.5
    # A probe lasts far less than the interval between probes.
    assert timer.ref > timer.wall_s / clock.PROBE_INTERVAL_S


def test_clock_without_probing_measures_host_time_only():
    with clock.Clock(probing=False) as timer:
        _spin(0.05)
    assert timer.ref == 0.0
    assert 0.045 < timer.wall_s < 0.5


# -- import shim ---------------------------------------------------------------


@pytest.fixture
def isolated_import(monkeypatch):
    """Hide the real package from sys.modules for the test, then restore it."""
    saved = {k: v for k, v in sys.modules.items() if k == "redwsn" or k.startswith("redwsn.")}
    for name in saved:
        del sys.modules[name]
    monkeypatch.setattr(sys, "path", list(sys.path))
    yield
    for name in [k for k in sys.modules if k == "redwsn" or k.startswith("redwsn.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _fake_package(root: Path, files: dict[str, str]) -> str:
    pkg = root / "redwsn"
    pkg.mkdir()
    for name, text in files.items():
        (pkg / name).write_text(textwrap.dedent(text))
    return str(root)


def test_shim_does_nothing_when_the_import_succeeds(tmp_path, isolated_import):
    src = _fake_package(tmp_path, {"__init__.py": "VALUE = 1\n"})
    package, shimmed = loader.load(src)
    assert shimmed is False
    assert package.VALUE == 1
    assert Path(package.__file__).parent == tmp_path / "redwsn"


UNFROZEN_PACKAGE = {
    "__init__.py": "from .boards import SecondaryConfig\nfrom .scenario import ScenarioConfig\n",
    "boards.py": """
        from dataclasses import dataclass


        @dataclass
        class SecondaryConfig:
            period: int = 1
        """,
    "scenario.py": """
        from dataclasses import dataclass

        from .boards import SecondaryConfig


        @dataclass(frozen=True)
        class ScenarioConfig:
            secondary: SecondaryConfig = SecondaryConfig()
        """,
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="older dataclasses accept the default")
def test_shim_freezes_secondary_config_on_the_known_error(tmp_path, isolated_import):
    package, shimmed = loader.load(_fake_package(tmp_path, UNFROZEN_PACKAGE))
    assert shimmed is True
    assert package.SecondaryConfig.__dataclass_params__.frozen
    assert package.ScenarioConfig().secondary == package.SecondaryConfig()
    assert sys.modules["redwsn.boards"] is package.boards


def test_other_import_errors_propagate(tmp_path, isolated_import):
    src = _fake_package(tmp_path, {"__init__.py": "raise ValueError('something else')\n"})
    with pytest.raises(ValueError, match="something else"):
        loader.load(src)


# -- checks and error counting -------------------------------------------------------


def _short_workload() -> workloads.Workload:
    def build(rw, rng):
        return [workloads.fleet(rw, rng, "control-clean", 2, 300_000)]

    return workloads.Workload("short", 1, True, build)


def test_sound_round_counts_no_failure(monkeypatch):
    short = _short_workload()
    monkeypatch.setitem(workloads.WORKLOADS, short.name, short)
    tally = bench.Tally()
    result = bench.run_round(rw, short, 1, 0, tally)
    assert (tally.attempted, tally.failed) == (2, 0)
    assert len(result.reports) == 1


def test_failed_check_raises_error_rate(monkeypatch):
    short = _short_workload()
    monkeypatch.setitem(workloads.WORKLOADS, short.name, short)
    run = rw.simulation.Simulation.run

    def inverted(self):
        m = run(self)
        return replace(m, prr_primary_only=m.prr_redundant + 0.1)

    monkeypatch.setattr(rw.simulation.Simulation, "run", inverted)
    monkeypatch.setattr(workloads, "PI0_PUBLISHED", (1.0, 1.0, 1.0, 1.0))
    tally = bench.Tally()
    bench.run_round(rw, short, 1, 0, tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert set(tally.failures) == {"round0/control-clean-x2", "round0/ctmc"}


def test_round_check_flags_non_positive_redundancy_gain():
    m = rw.metrics.IterationMetrics(
        seed=1,
        prr_redundant=0.5,
        prr_primary_only=0.5,
        detection_rate=None,
        delay_violations=0,
        duplicate_count=0,
        epochs_total=10,
        epochs_fault_active=0,
    )
    assert set(workloads.check_round({"HF": m, "SF1": replace(m, prr_redundant=0.9)})) == {"HF"}
