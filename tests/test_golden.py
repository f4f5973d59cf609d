"""Golden reports: the JSON and CSV reports of a frozen set of runs must
match the files under tests/golden/ byte for byte.

The cases are every preset at seeds 5 and 6, a 50-node and a 200-node noisy
run, and the noisy control with zero noise jitter, with one node and with
ten.  Without jitter, noise bursts start on the same microsecond as MAC
slots; with ten nodes the reports depend on how the channel orders a burst
and a frame with the same start, so control-noise-x10-jitter0 pins the rule
that a burst precedes a frame at an equal start.  In the 200-node run most
frames begin and end with others, so nearly every resolve reuses the window
of frames on the air that the channel keeps per (start, end).  avail-n6.json is the stdout of
`sim avail --format json --n-max 6`, the CTMC's failure probabilities.

Regenerate only in a change that says why behaviour moved:
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from dataclasses import replace
from pathlib import Path

import pytest

from redwsn.channel import Position
from redwsn.cli import EXIT_OK, main_sim
from redwsn.scenario import (
    PRESET_NAMES,
    NodeConfig,
    build_preset,
    report_to_csv,
    report_to_json,
    run_scenario,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
SEEDS = [5, 6]
AVAIL_ARGS = ["avail", "--format", "json", "--n-max", "6"]
AVAIL_GOLDEN = GOLDEN_DIR / "avail-n6.json"


def _fleet(n_nodes: int):
    # Ten nodes per ring, rings 1.5 m apart: every link stays above
    # sensitivity while distances differ enough for capture to matter.
    nodes = tuple(
        NodeConfig(id=f"n{i + 1}", position=Position(1.5 * (1 + i // 10), 0.3 * (i % 10)))
        for i in range(n_nodes)
    )
    base = build_preset("control-noise")
    return replace(base, name=f"control-noise-x{n_nodes}", nodes=nodes, duration_ms=300_000)


def _no_jitter(cfg):
    return replace(cfg, name=f"{cfg.name}-jitter0", noise=replace(cfg.noise, jitter_ms=0))


CASES = {
    **{name: (lambda name=name: build_preset(name), SEEDS) for name in PRESET_NAMES},
    "control-noise-x50": (lambda: _fleet(50), [5]),
    "control-noise-x200": (lambda: _fleet(200), [5]),
    "control-noise-jitter0": (lambda: _no_jitter(build_preset("control-noise")), SEEDS),
    "control-noise-x10-jitter0": (lambda: _no_jitter(_fleet(10)), SEEDS),
}


def _reports(case: str) -> dict[str, str]:
    build, seeds = CASES[case]
    report = run_scenario(build(), seeds)
    return {"json": report_to_json(report), "csv": report_to_csv(report)}


def _avail_stdout() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main_sim(AVAIL_ARGS) == EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_golden(case):
    for fmt, text in _reports(case).items():
        golden = (GOLDEN_DIR / f"{case}.{fmt}").read_bytes()
        assert text.encode("utf-8") == golden, f"{case}.{fmt} differs from the golden report"


def test_avail_matches_golden():
    assert _avail_stdout().encode("utf-8") == AVAIL_GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        for fmt, text in _reports(case).items():
            (GOLDEN_DIR / f"{case}.{fmt}").write_bytes(text.encode("utf-8"))
    AVAIL_GOLDEN.write_bytes(_avail_stdout().encode("utf-8"))
