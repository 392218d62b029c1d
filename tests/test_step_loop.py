"""The run loop on plain values.

``run_simulation`` advances plain arrays with ``solver._advance`` and builds
a ``SimState`` only for a state that leaves the loop.  These tests pin that
such states are sound (read-only, unshared, equal to what the public
``step`` gave before it wrapped ``_advance``, unchanged after the run), that the checks the state
constructors make on a stepped state still fire, with the same messages,
and that a stepped row whose monitors overflow is named by its own t.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from pistonflow import run, solver
from pistonflow.core import BoundarySchedule, GridState, Params, PistonState
from pistonflow.run import run_simulation
from pistonflow.solver import NumericsConfig, SimState, _instant_tol, step

PARAMS = Params(mu=0.8, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=1.0)
CFG = NumericsConfig(n_cells=16, dt_initial=2e-3)
SCHEDULE = BoundarySchedule(t_star=0.05, t_end=0.1, u_in=lambda t: 0.3,
                            rho_in=lambda t: 1.2, u_out=lambda t: -0.4)


def initial_state():
    z = (np.arange(16) + 0.5) / 16
    u = 0.1 * np.sin(np.pi * np.linspace(0.0, 1.0, 17))
    return SimState(t=0.0, grid=GridState(v=1.0 + 0.2 * z, u=u, eta=1.5),
                    piston=PistonState(b=1.8, b_dot=0.0), regime="inflow",
                    dt_next=CFG.dt_initial)


#: sha256 of the ``fields`` of the 20 states ``step_loop`` gives, recorded
#: with the ``step`` that built and validated a ``SimState`` itself, before
#: the step body moved into ``solver._advance``
STEP_LOOP_DIGEST = "fb806ffacbe134bfdfc32fba991b4ad0f97ba122ca3151d2d661629d495f77f0"


def fields(state):
    """Every value of a state, arrays as bytes."""
    return (state.t, state.grid.v.tobytes(), state.grid.u.tobytes(),
            state.grid.eta, state.piston.b, state.piston.b_dot, state.regime,
            state.dt_next, state.eta_dot_hint)


def digest(states):
    h = hashlib.sha256()
    for state in states:
        h.update(repr(fields(state)).encode())
    return h.hexdigest()


def step_loop(state):
    """The states a loop of public ``step`` calls gives, switching at t_star."""
    states = []
    t_switch = SCHEDULE.t_star - _instant_tol(SCHEDULE.t_star)
    t_stop = SCHEDULE.t_end - _instant_tol(SCHEDULE.t_end)
    while state.t < t_stop:
        if state.regime == "inflow" and state.t >= t_switch:
            state = replace(state, regime="outflow")
            continue
        state = step(state, SCHEDULE, PARAMS, CFG)
        states.append(state)
    return states


def test_states_leaving_the_loop_are_sound():
    seen = []

    def progress(state):
        seen.append((state, fields(state)))

    result = run_simulation(PARAMS, CFG, SCHEDULE, initial_state(),
                            snapshot_every=1, progress=progress)
    assert result.status == "completed"
    reference = step_loop(initial_state())
    kept = [state for state, _ in seen]
    assert {"inflow", "outflow"} <= {state.regime for state in kept}
    assert len(kept) == len(reference) == len(result.snapshots) - 1
    assert all(a is b for a, b in zip(kept, result.snapshots[1:]))

    arrays = [a for state in result.snapshots for a in (state.grid.v, state.grid.u)]
    for state in kept:
        assert not state.grid.v.flags.writeable
        assert not state.grid.u.flags.writeable
        # no view into a larger work array keeps that array alive
        assert state.grid.v.flags.owndata and state.grid.u.flags.owndata
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    assert digest(kept) == digest(reference) == STEP_LOOP_DIGEST
    for state, during in seen:
        assert fields(state) == during


def corrupt(kind):
    """A ``_split_step`` whose result has a non-finite value of ``kind``."""
    real = solver._split_step

    def split_step(*args, **kwargs):
        v, u, b, b_dot = real(*args, **kwargs)
        v, u = v.copy(), u.copy()
        if kind == "inf in v":
            v[3] = np.inf
        elif kind == "nan in u":
            u[5] = np.nan
        else:
            b_dot = float("nan")
        return v, u, b, b_dot

    return split_step


CORRUPTIONS = {
    "inf in v": r"^v and u must be finite in every cell and edge$",
    "nan in u": r"^v and u must be finite in every cell and edge$",
    "nan b_dot": r"^piston state must be finite, got [0-9.e+-]+, nan$",
}


@pytest.mark.parametrize("regime", ["inflow", "outflow"])
@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_stepped_state_checks_still_fire(monkeypatch, kind, regime):
    monkeypatch.setattr(solver, "_split_step", corrupt(kind))
    state = replace(initial_state(), regime=regime)
    with pytest.raises(ValueError, match=CORRUPTIONS[kind]):
        step(state, SCHEDULE, PARAMS, CFG)
    with pytest.raises(ValueError, match=CORRUPTIONS[kind]):
        run_simulation(PARAMS, CFG, SCHEDULE, state)


def test_overflowing_stepped_row_names_its_time(monkeypatch):
    t_fifth = step_loop(initial_state())[4].t
    real = solver._split_step
    calls = []

    def split_step(*args, **kwargs):
        v, u, b, b_dot = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 5:
            # finite, but the square overflows in the record
            u, b_dot = u.copy(), 1e200
            u[0] = b_dot
        return v, u, b, b_dot

    monkeypatch.setattr(solver, "_split_step", split_step)
    result = run_simulation(PARAMS, CFG, SCHEDULE, initial_state())
    assert result.exit_code == 4
    assert result.summary["failure_message"].startswith(
        f"floating-point overflow at t={t_fifth:.6g}: ")
    assert list(result.series.column("t")) == [0.0] + [
        state.t for state in step_loop(initial_state())[:4]]


def test_summary_still_warns_on_invalid_values(monkeypatch):
    """Only the step loop ignores numpy's invalid-value warning."""
    def summarize(*args, **kwargs):
        np.subtract(np.float64(np.inf), np.inf)
        return {}

    monkeypatch.setattr(run, "_summarize", summarize)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        run_simulation(PARAMS, CFG, SCHEDULE, initial_state())
