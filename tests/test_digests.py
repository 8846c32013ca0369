"""Behaviour pins: the outputs of every bundled non-sweep scenario.

Each digest is the sha256 of the bytes ``ibac run`` writes for the
scenario at its own seed: ``emission.log`` in
``testdata/bundled_digests.json``, ``summary.json`` and ``metrics.csv`` in
``testdata/bundled_outputs.json``.  A refactor that claims to preserve
behaviour must reproduce these byte for byte; a change that moves one on
purpose updates the pin and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ibac import scenario

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"
DIGESTS = json.loads((TESTDATA / "bundled_digests.json").read_text())
OUTPUTS = json.loads((TESTDATA / "bundled_outputs.json").read_text())


def test_every_bundled_non_sweep_scenario_is_pinned():
    unswept = [
        name
        for name in scenario.BUNDLED_SCENARIOS
        if scenario.load_bundled(name).sweep is None
    ]
    assert sorted(DIGESTS) == sorted(unswept)
    assert sorted(OUTPUTS) == sorted(unswept)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_emission_log_digest(name):
    result, _ = scenario.run_config(scenario.load_bundled(name))
    log = ("\n".join(result.log_lines) + "\n").encode()
    assert hashlib.sha256(log).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_bundled_summary_and_metrics_digests(name, tmp_path):
    assert scenario.run_scenario(scenario.load_bundled(name), tmp_path) == []
    for output, digest in OUTPUTS[name].items():
        assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == digest, output
