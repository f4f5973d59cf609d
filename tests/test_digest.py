"""One digest over the JSON reports of every preset at seeds 1-30.

The golden reports pin 16 cases byte for byte; this pins 390 runs in one
value.  It may move only in a change that says why behaviour moved.
Rebuild the value with:
    PYTHONPATH=src python tests/test_digest.py
"""

import hashlib

from redwsn.scenario import PRESET_NAMES, build_preset, report_to_json, run_scenario

SEEDS = list(range(1, 31))
DIGEST = "804004cf70154e3defdc30ad3d928b64c479469788393d058d322f6a2d4e12e0"


def preset_digest() -> str:
    """sha256 over each preset's JSON report at SEEDS, in PRESET_NAMES order."""
    h = hashlib.sha256()
    for name in PRESET_NAMES:
        h.update(report_to_json(run_scenario(build_preset(name), SEEDS)).encode("utf-8"))
    return h.hexdigest()


def test_preset_reports_match_the_pinned_digest():
    assert preset_digest() == DIGEST


if __name__ == "__main__":
    print(preset_digest())
