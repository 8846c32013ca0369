"""Behaviour pins: the emission log of every bundled non-sweep scenario.

Each digest is the sha256 of the bytes ``ibac run`` writes to
``emission.log`` for the scenario at its own seed.  A refactor that claims
to preserve behaviour must reproduce these byte for byte; a change that
moves one on purpose updates ``testdata/bundled_digests.json`` and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ibac import scenario

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "testdata" / "bundled_digests.json").read_text()
)


def test_every_bundled_non_sweep_scenario_is_pinned():
    unswept = [
        name
        for name in scenario.BUNDLED_SCENARIOS
        if scenario.load_bundled(name).sweep is None
    ]
    assert sorted(DIGESTS) == sorted(unswept)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_emission_log_digest(name):
    result, _ = scenario.run_config(scenario.load_bundled(name))
    log = ("\n".join(result.log_lines) + "\n").encode()
    assert hashlib.sha256(log).hexdigest() == DIGESTS[name]
