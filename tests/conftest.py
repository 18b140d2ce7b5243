from __future__ import annotations

import json
import os

import pytest
from hypothesis import settings

from fluxloop import SimConfig

GHZ = 10**9

# CI (GitHub Actions sets CI) runs each property test on the same examples
# every time, with no per-example deadline on a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def cfg100() -> SimConfig:
    """The calibration fixture: 100 GHz, three addresses, nominal bias."""
    return SimConfig(frequency_hz=100 * GHZ, num_addresses=3)


@pytest.fixture
def write_config(tmp_path):
    def _write(**extra):
        doc = {"frequency": "100GHz", "num_addresses": 3}
        doc.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


@pytest.fixture
def write_program(tmp_path):
    def _write(trips):
        path = tmp_path / "program.json"
        path.write_text(json.dumps({"trips": trips}))
        return str(path)

    return _write
