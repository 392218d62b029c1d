"""The terminal-event rule of an outflow run.

A depleting run ends at the first accepted step L whose eta falls below
``solver.ETA_RESOLVED`` times the outflow anchor's eta*, as ``depleted`` at
the time eta extrapolates to 0 with that step's flux.  These tests pin that
the event's type does not depend on the resolution, that the run's last row
is step L, and that the stop fires only where the outflow drains up to the
extrapolated time; elsewhere the run ends exactly as without the rule.
"""

import numpy as np
import pytest

from pistonflow import run
from pistonflow.core import BoundarySchedule, GridState, Params, PistonState
from pistonflow.diagnostics import CSV_COLUMNS
from pistonflow.run import _resolved_depletion_time, run_simulation
from pistonflow.solver import ETA_RESOLVED, NumericsConfig, SimState

# criterion 7's scenario
PARAMS = Params(mu=0.5, gamma=1.4, stiffness_K=4.0, damping_l=1.0, b_rest=0.0)


def criterion_7_run(n, u_out, t_end=30.0, progress=None):
    """Criterion 7's run (cfl 0.5, dt_growth 1.1) at n cells."""
    state = SimState(t=0.0, grid=GridState(v=np.ones(n), u=np.zeros(n + 1), eta=0.25),
                     piston=PistonState(b=0.25, b_dot=0.0), regime="outflow",
                     dt_next=2e-3)
    schedule = BoundarySchedule(t_star=0.0, t_end=t_end, u_out=u_out)
    return run_simulation(PARAMS, NumericsConfig(n_cells=n, dt_initial=2e-3),
                          schedule, state, progress=progress)


@pytest.mark.parametrize("speed", [0.15, 0.55, 1.05])
def test_event_type_and_time_do_not_depend_on_n(speed):
    results = {n: criterion_7_run(n, lambda t: -speed) for n in (24, 48, 96)}
    assert {(r.status, r.exit_code) for r in results.values()} == {("depleted", 3)}
    # measured against the finest grid: at u_out = -0.15, n = 24 and 48
    # straddle it (2.43960 and 2.43810 against 2.43862), 1.502e-3 apart
    finest = results[96].event_time
    for result in results.values():
        assert abs(result.event_time - finest) <= 1.5e-3


def test_depleted_run_ends_at_the_first_row_below_the_level():
    states = []
    result = criterion_7_run(24, lambda t: -0.55, progress=states.append)
    eta = result.series.column("eta")
    level = ETA_RESOLVED * eta[0]
    assert eta[-1] < level and np.all(eta[:-1] >= level)
    last = states[-1]
    assert last.t == result.series.column("t")[-1] == result.summary["t_final"]
    assert result.event_time == last.t - last.grid.eta / last.eta_dot_hint
    assert result.summary["event_time"] == result.event_time


def drain(t):
    return -0.55


def drain_until(t_off):
    return lambda t: -0.55 if t < t_off else 0.0


def drain_except(t_off, t_on):
    return lambda t: 0.0 if t_off <= t < t_on else -0.55


# criterion 7's run at u_out = -0.55 reaches the level at t_L = 0.83587
# (n = 24) and 0.83539 (n = 48), and extrapolates eta to 0 at 0.83756 and
# 0.83708
@pytest.mark.parametrize("n,u_out,t_end", [
    # the outflow stops before the extrapolated time
    (24, drain_until(0.8365), 0.838),
    (24, drain, 0.837),  # the horizon ends before it
    # the outflow pauses over it: the rule, decided at L, does not fire
    # when it drains again
    (48, drain_except(0.83705, 0.8372), 30.0),
], ids=["outflow-stops", "horizon-ends", "outflow-pauses"])
def test_no_stop_unless_the_outflow_drains_up_to_the_event(monkeypatch, n, u_out,
                                                           t_end):
    states = []
    result = criterion_7_run(n, u_out, t_end, progress=states.append)
    monkeypatch.setattr(run, "ETA_RESOLVED", 0.0)  # the loop without the rule
    reference = criterion_7_run(n, u_out, t_end)
    assert result.status == reference.status
    assert result.event_time == reference.event_time
    assert result.summary == reference.summary
    for name in CSV_COLUMNS:
        np.testing.assert_array_equal(result.series.column(name),
                                      reference.series.column(name))
    # the run went on past the first row below the level
    eta = result.series.column("eta")
    assert np.count_nonzero(eta < ETA_RESOLVED * eta[0]) > 1
    assert states[-1].t > 0.8365


SCHEDULE = BoundarySchedule(t_star=0.0, t_end=2.0,
                            u_out=lambda t: min(0.0, t - 1.0))


@pytest.mark.parametrize("t,eta,eta_dot,drains", [
    (0.5, 1e-3, -0.5, True),  # u_out < 0 up to the extrapolated 0.502
    (0.5, 1e-3, 0.0, False),  # no flux
    (0.5, 1e-3, 0.1, False),  # eta rises
    (1.0, 1e-3, -0.5, False),  # u_out = 0 at t
    (0.9, 0.2, -1.0, False),  # u_out = 0 at the extrapolated 1.1
    (0.5, 1.0, -0.5, False),  # the extrapolated 2.5 lies beyond t_end
])
def test_resolved_depletion_time(t, eta, eta_dot, drains):
    expected = t - eta / eta_dot if drains else None
    assert _resolved_depletion_time(t, eta, eta_dot, SCHEDULE) == expected
