"""The output formats the README documents agree with the code."""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest

from pistonflow import GridState, PistonState, SimState
from pistonflow.acceptance import SUITES
from pistonflow.cli import build_parser
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


def subparser(command: str) -> argparse.ArgumentParser:
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return commands.choices[command]


def test_verify_usage_names_every_suite():
    usage = re.search(r"^pistonflow verify \{([^}]*)\}$", README, re.M)
    assert usage, "README has no `pistonflow verify {...}` usage line"
    assert usage.group(1).split(",") == list(SUITES)
    suite = next(action for action in subparser("verify")._actions
                 if action.dest == "suite")
    assert list(suite.choices) == list(SUITES)


@pytest.mark.parametrize("command", ["run", "estimate-contact"])
def test_usage_line_names_every_option(command):
    usage = re.search(rf"^pistonflow {command} (.*)$", README, re.M)
    assert usage, f"README has no `pistonflow {command} ...` usage line"
    options = [option for action in subparser(command)._actions
               for option in action.option_strings if option not in ("-h", "--help")]
    assert re.findall(r"--[\w-]+", usage.group(1)) == options
