"""On-disk format fixtures: data directories written by an earlier version.

Each ``tests/fixtures/datadir_v*`` directory holds the WAL, snapshot and cold
store its ``make_fixture.py`` wrote, plus ``expected.json``: what that same
version read back after recovering a copy.  Recovering a copy here must read
back exactly the same, so a change to the WAL or snapshot format (or to what
recovery rebuilds from them) cannot land silently.  Recovery checkpoints, so
it always runs on a copy, never on the committed files.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parents[2] / "fixtures"


def load_script(directory: Path):
    spec = importlib.util.spec_from_file_location(
        f"{directory.name}_make_fixture", directory / "make_fixture.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "directory", sorted(FIXTURES.glob("datadir_v*")), ids=lambda path: path.name
)
def test_fixture_recovers_to_the_answers_of_its_writer(directory, tmp_path):
    from repro.core.system import YoutopiaSystem

    script = load_script(directory)
    for name in script.STATE_FILES:
        shutil.copy(directory / name, tmp_path)
    expected = json.loads((directory / "expected.json").read_text())
    with YoutopiaSystem(config=script.config(tmp_path)) as recovered:
        assert recovered.recovered
        assert script.observe(recovered) == expected
