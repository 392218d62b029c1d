"""The blocked diagnostics record of a run.

``run._Record`` stages accepted states and computes the array monitors of a
block of rows with axis-1 operations.  These tests pin that every value has
the bits of the public per-state functions, whatever the block size and
however many rows the last, partial block holds, in either regime and with
velocities of signed zeros and underflowing squares, that a row whose
scalar terms overflow is never recorded, and that the first outflow row
anchors the G exponent and the 1/v bound.
"""

import math

import numpy as np
import pytest
from test_golden import GOLDEN, scenario_digests

from pistonflow import BoundarySchedule, GridState, Params, PistonState, SimState
from pistonflow import run
from pistonflow.diagnostics import (
    STORED_COLUMNS,
    RunSeries,
    energy,
    total_mass_eulerian,
    velocity_l2,
    volume_bound_ratio,
)

PARAMS = Params(mu=0.7, gamma=1.4, stiffness_K=2.0, damping_l=0.3, b_rest=0.5)
SCHEDULE = BoundarySchedule(t_star=5.0, t_end=10.0, u_in=lambda t: 0.2,
                            rho_in=lambda t: 1.1, u_out=lambda t: -0.3)


def random_states(n, rows, seed, regime, t0, hostile=False):
    """Seeded states with irregular v, u, eta and piston data.

    ``hostile`` puts exact 0.0 and -0.0 into u, and values of magnitude
    about 1e-160 and below, subnormal ones among them, whose squares
    underflow: far cells of an implicit solve from a still state hold such
    velocities.  Every other row has no other velocities.
    """
    rng = np.random.default_rng(seed)
    t = t0
    states = []
    for row in range(rows):
        t += rng.uniform(1e-4, 1e-2)
        b_dot = rng.normal()
        u = rng.normal(scale=0.5, size=n + 1)
        u[0] = b_dot  # velocity continuity at the piston edge
        if hostile:
            kind = rng.integers(0, 4 + row % 2, size=n + 1)
            u[kind == 0] = 0.0
            u[kind == 1] = -0.0
            u[kind == 2] *= 1e-161
            u[kind == 3] *= 1e-310  # subnormal
            b_dot = float(u[0])
        grid = GridState(v=np.exp(rng.normal(scale=0.6, size=n)), u=u,
                         eta=rng.uniform(0.2, 2.0))
        piston = PistonState(b=rng.uniform(0.5, 3.0), b_dot=b_dot)
        states.append(SimState(t=t, grid=grid, piston=piston, regime=regime,
                               dt_next=1e-3))
    return states


def add(rec, state):
    """Stage ``state``'s row, passing its plain values as the run loop does."""
    grid, piston = state.grid, state.piston
    rec.add(state.t, grid.v, grid.u, grid.eta, piston.b, piston.b_dot, state.regime)


def record(states):
    """Record ``states`` and flush."""
    series = RunSeries()
    rec = run._Record(series, SCHEDULE, PARAMS, states[0].grid)
    for state in states:
        add(rec, state)
    rec.flush()
    return series, rec


def column_bytes(series):
    return {name: series.column(name).tobytes()
            for name in STORED_COLUMNS if name != "regime"}


@pytest.mark.parametrize("n", [4, 48, 1024, 4096])
def test_block_monitors_match_per_state_functions_bit_for_bit(n):
    for regime in ("inflow", "outflow"):
        for hostile in (False, True):
            check_block_monitors(n, regime, hostile)


def check_block_monitors(n, regime, hostile):
    block = run._block_rows(n)
    rows = 2 * block + 1  # two full blocks and a partial one
    t0 = 0.0 if regime == "inflow" else SCHEDULE.t_star
    anchor = random_states(n, 1, seed=n, regime=regime, t0=t0,
                           hostile=hostile)[0]
    states = [anchor] + random_states(n, rows - 1, seed=n + 1, regime=regime,
                                      t0=anchor.t, hostile=hostile)
    series, rec = record(states)
    assert len(series) == rows and rows % block != 0

    g = series.column("G_exponent")
    expected = {
        "mass_eulerian": [total_mass_eulerian(s) for s in states],
        "energy": [energy(s, PARAMS) for s in states],
        "u_l2": [velocity_l2(s) for s in states],
        "min_v": [float(np.min(s.grid.v)) for s in states],
        "max_v": [float(np.max(s.grid.v)) for s in states],
        "b_recon": [float(np.sum(s.grid.v) * s.grid.dy) for s in states],
        "dissipation_rate": [],
    }
    for s in states:
        u_y = (-1.0 / s.grid.eta) * (np.diff(s.grid.u) / s.grid.dz)
        expected["dissipation_rate"].append(
            float(np.sum(PARAMS.mu / s.grid.v * u_y * u_y) * s.grid.dy))
    case = (regime, "hostile" if hostile else "normal")
    for name, values in expected.items():
        # bytes, so that the sign of a zero counts
        assert series.column(name).tobytes() == np.array(values).tobytes(), (
            name, *case)
    if regime == "inflow":
        assert np.isnan(g).all() and rec.ratio_max == 0.0, case
        return
    ratios = [volume_bound_ratio(s, anchor.grid.v, anchor.grid.eta, float(gi))
              for s, gi in zip(states, g)]
    assert rec.ratio_max == max(ratios), case


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_any_block_size_gives_the_golden_bytes(monkeypatch, name, block):
    if block is not None:
        monkeypatch.setattr(run, "_block_rows", lambda n_cells: block)
    assert scenario_digests(name) == GOLDEN[name]


@pytest.mark.parametrize("regime", ["inflow", "outflow"])
def test_overflowing_row_is_never_recorded(regime):
    n = 48
    half = run._block_rows(n) // 2
    t0 = 0.0 if regime == "inflow" else SCHEDULE.t_star
    anchor = random_states(n, 1, seed=5, regime=regime, t0=t0)[0]
    states = random_states(n, half, seed=6, regime=regime, t0=anchor.t)
    last = states[-1]
    u = last.grid.u.copy()
    u[0] = 1e200
    bad = SimState(t=last.t + 1e-3, grid=GridState(v=last.grid.v, u=u, eta=1.0),
                   piston=PistonState(b=last.piston.b, b_dot=1e200),
                   regime=regime, dt_next=1e-3)

    series = RunSeries()
    rec = run._Record(series, SCHEDULE, PARAMS, anchor.grid)
    with np.errstate(over="ignore"):  # as in run_simulation
        for state in [anchor] + states:
            add(rec, state)
        with pytest.raises(OverflowError, match="out of range"):  # b_dot ** 2
            add(rec, bad)
        rec.flush()

    reference, _ = record([anchor] + states)
    assert len(series) == half + 1
    assert column_bytes(series) == column_bytes(reference)
    assert series.column("regime").tolist() == [regime] * (half + 1)


def test_first_outflow_row_anchors_the_bound():
    n = 48
    half = run._block_rows(n) // 2
    inflow = random_states(n, half, seed=7, regime="inflow", t0=0.0)
    outflow = random_states(n, 2 * half, seed=8, regime="outflow",
                            t0=SCHEDULE.t_star)
    series, rec = record(inflow + outflow)

    anchor = outflow[0]
    g = series.column("G_exponent")
    assert np.isnan(g[:half]).all()
    # the anchor row has no piston or spring term, only the velocity term
    assert g[half] == (2 * math.sqrt(anchor.grid.eta) * velocity_l2(anchor)
                       / PARAMS.mu)
    ratios = [volume_bound_ratio(s, anchor.grid.v, anchor.grid.eta, float(gi))
              for s, gi in zip(outflow, g[half:])]
    assert rec.ratio_max == max(ratios)


def test_pure_inflow_record_has_no_bound_ratio():
    series, rec = record(random_states(48, 10, seed=9, regime="inflow", t0=0.0))
    assert np.isnan(series.column("G_exponent")).all()
    assert rec.ratio_max == 0.0


def test_nonpositive_inflow_volume_raises():
    """The schedule is validated on samples only; a density that is negative
    at the time of a row still raises, as ``pressure_q`` does."""
    schedule = BoundarySchedule(t_star=5.0, t_end=10.0, u_in=lambda t: 0.2,
                                rho_in=lambda t: -1.0 if t == 0.123 else 1.1,
                                u_out=lambda t: -0.3)
    state = random_states(8, 1, seed=10, regime="inflow", t0=0.0)[0]
    rec = run._Record(RunSeries(), schedule, PARAMS, state.grid)
    with pytest.raises(ValueError, match="^specific volume must be positive$"):
        rec.add(0.123, state.grid.v, state.grid.u, state.grid.eta,
                state.piston.b, state.piston.b_dot, "inflow")
