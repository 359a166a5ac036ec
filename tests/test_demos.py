"""Run each walk-through in ``demos/`` and check the line it exists to show."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name, expected", [
    ("closed_loop.py", "match=True"),
    ("scripted_replay.py", "final: 558 (conclusion)"),
    ("training_data.py", "reconstructed == concatenation: True"),
])
def test_demo_runs(capsys, name, expected):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    printed = capsys.readouterr().out
    assert expected in printed
    assert "match=False" not in printed
