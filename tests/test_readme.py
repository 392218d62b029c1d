"""The output formats the README documents agree with the code."""

import re
from pathlib import Path

import numpy as np

from pistonflow import GridState, PistonState, SimState
from pistonflow.diagnostics import CSV_COLUMNS
from pistonflow.run import snapshot_of

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def listed_after(text: str) -> list:
    """The comma-separated backticked list that follows ``text`` in the README."""
    match = re.search(re.escape(text) + r"\s+`([^`]*)`", README)
    assert match, f"README has no backticked list after {text!r}"
    return [name.strip() for name in match.group(1).split(",")]


def test_series_columns_match_csv_columns():
    columns = listed_after("`series.csv`: one row per accepted step, columns")
    assert columns == list(CSV_COLUMNS)


def test_snapshot_fields_match_snapshot_keys():
    state = SimState(t=0.0, grid=GridState(v=np.ones(4), u=np.zeros(5), eta=1.0),
                     piston=PistonState(b=1.0), regime="inflow")
    fields = listed_after("`snapshot_NNNNNN.json`: restartable states with fields")
    assert fields == list(snapshot_of(state))


def test_layout_names_every_module():
    block = re.search(r"## Layout\s+```\n(.*?)```", README, re.S)
    assert block, "README has no Layout block"
    listed = re.findall(r"^  (\w+\.py) ", block.group(1), re.M)
    modules = sorted(path.name for path in (ROOT / "src" / "pistonflow").glob("*.py")
                     if path.name != "__init__.py")
    assert sorted(listed) == modules
