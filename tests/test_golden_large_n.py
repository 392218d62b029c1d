"""Byte identity of the solver's outputs on the README scenario at large n.

``test_golden.py`` pins grids of at most 64 cells.  Vectorised kernels can
take other paths at large n (blocked reductions, one record block per row),
so these digests pin ``series.csv`` and ``summary.json`` at n = 1024 and
n = 4096, on short horizons that still cross t_star and run the outflow
Picard iteration.  They were recorded before the step's array kernels were
rewritten to compute each value once; a change meant to move the numbers
re-records them and says which bits moved and why.
"""

import hashlib

import pytest

from pistonflow.cli import render_series_csv, render_summary_json, simulate_scenario
from pistonflow.config import parse_config

SCENARIOS = {
    "readme_n1024": (
        "[numerics]\nn_cells = 1024\n"
        "[schedule]\nt_star = 0.02\nt_end = 0.04\n"
    ),
    "readme_n4096": (
        "[numerics]\nn_cells = 4096\n"
        "[schedule]\nt_star = 0.01\nt_end = 0.02\n"
    ),
}

#: (series.csv digest, summary.json digest, steps)
GOLDEN = {
    "readme_n1024": (
        "75dc97ed7c5dcc220710bd4bb61bb7f9ba1a73e017fab83adf094ae393d5d76d",
        "0e5303b07e1047b3ddafa6e8e17b8b17d1e47beabbd0c94ace6012ebbe34695e",
        55,
    ),
    "readme_n4096": (
        "4d6bcd964b4889778f8a66b411e19aa7b1482694348c0f89b93437ad4d120c92",
        "c45571751c3bf5c8bb48bfec2e25e1e32f1b982a62b01be16c93e66d3a07e923",
        107,
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_large_n_series_and_summary_bytes_unchanged(name):
    result = simulate_scenario(parse_config(SCENARIOS[name]))
    series_digest, summary_digest, steps = GOLDEN[name]
    assert result.status == "completed"
    assert result.summary["steps"] == steps
    # both regimes and the outflow Picard iteration are exercised
    assert set(result.series.column("regime").tolist()) == {"inflow", "outflow"}
    assert result.summary["picard_iterations_max"] == 3
    assert _sha(render_series_csv(result)) == series_digest
    assert _sha(render_summary_json(result)) == summary_digest
