"""Run orchestration: phase sequencing, diagnostics recording, event handling.

The driver advances the solver step by step and records one row of monitored
values per accepted step in the columnar ``RunSeries`` (the energy-budget
rates are stored; their time integrals are derived from the columns).  The
record (``_Record``) works in blocks: a row's scalar terms are computed when
its state is accepted, so a monitor that overflows ends the run at that
row; its ``v``/``u`` are staged, and the array monitors of a whole block of
rows are computed at once, with the bits of the per-state functions in
``diagnostics``.  The record anchors the G exponent and the 1/v bound on the
first outflow state it is given.  The driver switches regime exactly at
t_star and converts terminal solver events into a ``RunResult`` with the
documented exit codes.
Its snapshots are the ``SimState``s themselves; ``snapshot_of``/
``state_from_snapshot`` give the JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .coords import EulerianField, lagrangian_init_from_eulerian
from .core import BoundarySchedule, GridState, Params, PistonState, pressure_q
# energy, total_mass_eulerian, velocity_l2 and volume_bound_ratio stay
# importable from this module although it does not call them:
# perfbench/tracer.py wraps them here
from .diagnostics import (
    TOL_BOUND,
    RunSeries,
    energy,
    energy_budget_residual,
    total_mass_eulerian,
    velocity_l2,
    volume_bound_ratio,
)
from .solver import (
    ContactEvent,
    MassDepletionEvent,
    NumericalFailure,
    NumericsConfig,
    SimState,
    StepRejected,
    _instant_tol,
    step,
)

EXIT_COMPLETED = 0
EXIT_CONTACT = 2
EXIT_DEPLETION = 3
EXIT_FAILURE = 4

_STATUS_BY_CODE = {
    EXIT_COMPLETED: "completed",
    EXIT_CONTACT: "contact",
    EXIT_DEPLETION: "depleted",
    EXIT_FAILURE: "failed",
}


def snapshot_of(state: SimState) -> dict:
    """JSON form of a restartable state; ``state_from_snapshot`` loads it.

    ``eta_dot_hint`` is the outflow flux of the last accepted step, which
    warm-starts the next Picard iteration (None before the first one).
    """
    grid, piston = state.grid, state.piston
    return {
        "t": state.t,
        "z": grid.z_edges.tolist(),
        "v": grid.v.tolist(),
        "u": grid.u.tolist(),
        "eta": grid.eta,
        "b": piston.b,
        "b_dot": piston.b_dot,
        "dt": state.dt_next,
        "regime": state.regime,
        "eta_dot_hint": state.eta_dot_hint,
    }


def state_from_snapshot(data: dict) -> SimState:
    """Load a ``snapshot_of`` dict; one without ``eta_dot_hint`` loads it as None."""
    hint = data.get("eta_dot_hint")
    return SimState(
        t=float(data["t"]),
        grid=GridState(v=np.asarray(data["v"], dtype=float),
                       u=np.asarray(data["u"], dtype=float), eta=data["eta"]),
        piston=PistonState(b=float(data["b"]), b_dot=float(data["b_dot"])),
        regime=str(data["regime"]),  # type: ignore[arg-type]
        dt_next=float(data["dt"]),
        eta_dot_hint=None if hint is None else float(hint),
    )


@dataclass
class RunResult:
    series: RunSeries
    status: str
    exit_code: int
    event_time: Optional[float]
    summary: dict = field(default_factory=dict)
    snapshots: List[SimState] = field(default_factory=list)


def build_initial_state(
    field_in: EulerianField,
    b1: float,
    schedule: BoundarySchedule,
    cfg: NumericsConfig,
) -> tuple:
    """Initialize the normalized grid from Eulerian data.

    The initial velocity at the piston edge is corrected to b1 (velocity
    continuity is an algebraic constraint of the formulation).  Returns
    ``(state, correction)`` where ``correction`` is the size of that fix.
    """
    grid = lagrangian_init_from_eulerian(field_in, cfg.n_cells)
    u = np.array(grid.u)
    correction = abs(float(u[0]) - b1)
    u[0] = b1
    grid = GridState(v=grid.v, u=u, eta=grid.eta)
    piston = PistonState(b=float(field_in.b), b_dot=float(b1))
    regime = "inflow" if schedule.t_star > 0.0 else "outflow"
    state = SimState(
        t=0.0, grid=grid, piston=piston, regime=regime, dt_next=cfg.dt_initial
    )
    return state, correction


def _eulerian_mass_rows(v: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``total_mass_eulerian`` of each row: ``reconstruct_eulerian`` (cell
    volumes summed from the open end, 1/v at the edges), then the trapezoid."""
    rows, n = v.shape
    x = np.zeros((rows, n + 1))
    np.cumsum((v * dy[:, None])[:, ::-1], axis=1, out=x[:, 1:])
    v_edges = np.empty((rows, n + 1))
    v_edges[:, 1:-1] = 0.5 * (v[:, :-1] + v[:, 1:])
    v_edges[:, 0] = np.maximum(1.5 * v[:, 0] - 0.5 * v[:, 1], 0.5 * v[:, 0])
    v_edges[:, -1] = np.maximum(1.5 * v[:, -1] - 0.5 * v[:, -2], 0.5 * v[:, -1])
    return np.trapezoid(1.0 / v_edges[:, ::-1], x, axis=1)


def _fluid_energy_rows(v: np.ndarray, u: np.ndarray, dy: np.ndarray,
                       gamma: float) -> np.ndarray:
    """The fluid part of ``energy`` of each row: midpoint quadrature of
    u^2/2 - Q(v)."""
    u_c = 0.5 * (u[:, :-1] + u[:, 1:])
    q_pot = v ** (1.0 - gamma) / (1.0 - gamma)
    return np.sum(0.5 * u_c * u_c - q_pot, axis=1) * dy


def _dissipation_rows(v: np.ndarray, u: np.ndarray, eta: np.ndarray,
                      dy: np.ndarray, mu: float) -> np.ndarray:
    """Viscous dissipation rate of each row, mu u_y^2 / v over the mass
    coordinate, with u_y = alpha u_z the velocity gradient per cell."""
    u_y = (-1.0 / eta)[:, None] * (np.diff(u, axis=1) / (1.0 / v.shape[1]))
    return np.sum(mu / v * u_y * u_y, axis=1) * dy


def _block_rows(n_cells: int) -> int:
    """Rows staged per block: about 8192 cell values, at most 64 rows."""
    return max(1, min(64, 8192 // n_cells))


class _Record:
    """Diagnostics rows of accepted states, appended to a ``RunSeries`` in blocks.

    ``add`` computes a state's scalar terms at once (boundary values and
    rates, ``u_l2``, the piston and spring energy, the G exponent and
    exp(G)) in the order in which they can raise ``OverflowError``, then
    stages the state's ``v`` and ``u``; a state that raises is never staged,
    so a run ends at the first row whose monitors overflow.
    The first outflow state ``add`` is given anchors the bound (in a run, the
    initial outflow state or the one switched at t_star): its ``v``/``eta``
    are v*/eta* of the 1/v bound, its piston values and ``u_l2`` the
    references of the G exponent, whose spring trapezoid is kept
    incrementally.  ``flush`` computes the array monitors of all staged rows
    with axis-1 operations: the elementwise operations of
    ``reconstruct_eulerian`` plus ``np.trapezoid``, ``energy`` and
    ``volume_bound_ratio``, in the same order, so every value has the bits of
    the per-state functions; the outflow rows' bound ratio is folded into
    ``ratio_max``.  It runs when the block is full and once at run end.
    """

    #: the scalar terms ``add`` stages per row: ``RunSeries`` columns, then
    #: ``exp_g`` and the two piston energies, which ``flush`` folds in
    _TERMS = ("t", "b", "b_dot", "eta", "regime", "G_exponent", "u_l2",
              "v_boundary", "damping_rate", "outflux_pressure_rate",
              "boundary_work_rate", "exp_g", "piston_energy", "spring_energy")

    def __init__(self, series: RunSeries, schedule: BoundarySchedule,
                 params: Params, grid: GridState) -> None:
        rows = _block_rows(grid.n_cells)
        self._series = series
        self._schedule = schedule
        self._params = params
        self._z_centers = grid.z_centers
        self._v = np.empty((rows, grid.n_cells))
        self._u = np.empty((rows, grid.n_cells + 1))
        self._staged: List[tuple] = []
        self.ratio_max = 0.0
        # (v*, eta*, b, b_dot, u_l2) at the outflow start, None until then
        self._anchor: Optional[tuple] = None
        self._t_prev = self._spring_prev = self._spring_integral = 0.0

    def add(self, state: SimState) -> None:
        """Stage the row of ``state``; flush when the block is full."""
        grid, piston = state.grid, state.piston
        params, schedule = self._params, self._schedule
        # open-end velocity, specific volume and instantaneous mass flux
        u_b = float(grid.u[-1])
        if state.regime == "inflow":
            rho_b = float(schedule.rho_in(min(state.t, schedule.t_star)))
            v_b = 1.0 / rho_b
            flux = float(schedule.u_in(min(state.t, schedule.t_star))) * rho_b
        else:
            v_b = float(grid.v[-1])
            flux = float(schedule.u_out(state.t)) / v_b
        # sigma = mu u_y / v - q with the boundary cell's mass-coordinate gradient
        u_y_b = (-1.0 / grid.eta) * ((u_b - float(grid.u[-2])) / grid.dz)
        sigma_b = params.mu * u_y_b / v_b - float(pressure_q(v_b, params.gamma))
        u_c = grid.u_centers()
        u_l2 = math.sqrt(np.sum(u_c * u_c) * grid.dy)  # velocity_l2

        g_value = exp_g = math.nan
        if state.regime == "outflow":
            spring = params.stiffness_K * (piston.b - params.b_rest)
            if self._anchor is None:
                self._anchor = (grid.v, grid.eta, piston.b, piston.b_dot, u_l2)
                self._t_prev, self._spring_prev = state.t, spring
            _, eta_star, b_star, b_dot_star, u_l2_star = self._anchor
            self._spring_integral += (
                0.5 * (self._spring_prev + spring) * (state.t - self._t_prev))
            self._t_prev, self._spring_prev = state.t, spring
            g_value = (
                piston.b_dot - b_dot_star
                + params.damping_l * (piston.b - b_star)
                + self._spring_integral
                + math.sqrt(eta_star) * (u_l2 + u_l2_star)
            ) / params.mu
            exp_g = math.exp(g_value)
        piston_energy = 0.5 * piston.b_dot ** 2
        spring_energy = 0.5 * params.stiffness_K * (piston.b - params.b_rest) ** 2
        damping_rate = params.damping_l * piston.b_dot ** 2
        outflux_rate = -u_b / (params.gamma - 1.0) * v_b ** (-params.gamma)
        work_rate = flux * 0.5 * u_b * u_b - u_b * sigma_b

        row = len(self._staged)
        self._v[row] = grid.v
        self._u[row] = grid.u
        self._staged.append((
            state.t, piston.b, piston.b_dot, grid.eta, state.regime, g_value,
            u_l2, v_b, damping_rate, outflux_rate, work_rate, exp_g,
            piston_energy, spring_energy,
        ))
        if row + 1 == len(self._v):
            self.flush()

    def flush(self) -> None:
        """Compute the array monitors of the staged rows and append the rows."""
        rows = len(self._staged)
        if not rows:
            return
        terms = dict(zip(self._TERMS, zip(*self._staged)))
        params = self._params
        v, u = self._v[:rows], self._u[:rows]
        eta = np.array(terms["eta"])
        dy = eta / v.shape[1]  # GridState.dy per row
        total_energy = (_fluid_energy_rows(v, u, dy, params.gamma)
                        + np.array(terms.pop("piston_energy"))
                        + np.array(terms.pop("spring_energy")))
        exp_g = np.array(terms.pop("exp_g"))
        outflow = np.array(terms["regime"]) == "outflow"
        if outflow.any():
            # volume_bound_ratio of the outflow rows: the reference profile
            # at the mass labels of the current cells
            v_star, eta_star = self._anchor[:2]
            z_centers_star = (np.arange(v_star.size) + 0.5) / v_star.size
            z_matched = self._z_centers * (eta[outflow] / eta_star)[:, None]
            v_ref = np.interp(z_matched.ravel(), z_centers_star, v_star)
            ratio = (1.0 / v[outflow]) / (
                (1.0 / v_ref.reshape(z_matched.shape)) * exp_g[outflow][:, None]
            )
            # Python's max in row order, as a running max over single rows
            self.ratio_max = max(self.ratio_max, *np.max(ratio, axis=1).tolist())

        self._series.extend(
            **terms,
            mass_eulerian=_eulerian_mass_rows(v, dy).tolist(),
            energy=total_energy.tolist(),
            min_v=np.min(v, axis=1).tolist(),
            max_v=np.max(v, axis=1).tolist(),
            b_recon=(np.sum(v, axis=1) * dy).tolist(),
            dissipation_rate=_dissipation_rows(v, u, eta, dy, params.mu).tolist(),
        )
        self._staged.clear()


def run_simulation(
    params: Params,
    cfg: NumericsConfig,
    schedule: BoundarySchedule,
    initial: SimState,
    *,
    snapshot_every: int = 0,
    initial_bdot_correction: float = 0.0,
    progress: Optional[Callable[[SimState], None]] = None,
) -> RunResult:
    """Drive a full run from ``initial`` to t_end or a terminal event."""
    state = initial
    series = RunSeries()
    record = _Record(series, schedule, params, state.grid)
    snapshots = [state] if snapshot_every > 0 else []

    exit_code = EXIT_COMPLETED
    event_time: Optional[float] = None
    failure_message: Optional[str] = None
    step_index = 0
    stats: dict = {}
    t_switch = schedule.t_star - _instant_tol(schedule.t_star)
    t_stop = schedule.t_end - _instant_tol(schedule.t_end)
    # one scope per run: a monitor that overflows reads inf instead of
    # printing a numpy warning; the run still ends on the errors below
    with np.errstate(over="ignore"):
        try:
            record.add(state)
            while state.t < t_stop:
                if state.regime == "inflow" and state.t >= t_switch:
                    state = replace(state, regime="outflow")
                    # zero-duration anchor row: outflow reference for the
                    # exponential bound and the regime flip of the boundary rates
                    record.add(state)
                    continue
                state = step(state, schedule, params, cfg, stats)
                step_index += 1
                record.add(state)
                if progress is not None:
                    progress(state)
                if snapshot_every > 0 and step_index % snapshot_every == 0:
                    snapshots.append(state)
        except ContactEvent as event:
            exit_code, event_time = EXIT_CONTACT, event.time
        except MassDepletionEvent as event:
            exit_code, event_time = EXIT_DEPLETION, event.time
        except (NumericalFailure, StepRejected) as event:
            exit_code, failure_message = EXIT_FAILURE, str(event)
        except OverflowError as event:
            # a finite state whose monitored values exceed the float range
            exit_code = EXIT_FAILURE
            failure_message = f"floating-point overflow at t={state.t:.6g}: {event}"
        # the rows staged before t_end, the event or the failure
        record.flush()

    summary = _summarize(
        series, schedule, exit_code, event_time, initial_bdot_correction,
        g_ratio_max=record.ratio_max,
        failure_message=failure_message, stats=stats,
    )
    return RunResult(
        series=series,
        status=_STATUS_BY_CODE[exit_code],
        exit_code=exit_code,
        event_time=event_time,
        summary=summary,
        snapshots=snapshots,
    )


def contact_bound_of(
    series: RunSeries, schedule: BoundarySchedule, event_time: Optional[float]
) -> Optional[Tuple[float, float, float]]:
    """``(eta_star, v_min, bound)``: the T3 bound from the recorded outflow.

    ``eta_star`` and T* are read from the first outflow row, the anchor
    recorded at the outflow start; ``v_min`` is the smallest recorded outflow
    boundary v.  The bound's horizon reaches one time unit past the event (or
    t_end).  None when the run never reached the outflow phase.
    """
    # imported at call time, so a wrapper set on the diagnostics module applies
    from .diagnostics import contact_time_lower_bound

    outflow = series.column("regime") == "outflow"
    if schedule.u_out is None or not outflow.any():
        return None
    anchor = int(np.argmax(outflow))
    eta_star = float(series.column("eta")[anchor])
    v_min = float(series.column("v_boundary")[outflow].min())
    bound = contact_time_lower_bound(
        eta_star,
        schedule.u_out,
        v_min,
        t_star=float(series.column("t")[anchor]),
        t_end=max(schedule.t_end, (event_time or 0.0) + 1.0),
    )
    return eta_star, v_min, bound


def _summarize(
    series: RunSeries,
    schedule: BoundarySchedule,
    exit_code: int,
    event_time: Optional[float],
    initial_bdot_correction: float,
    *,
    g_ratio_max: float = 0.0,
    failure_message: Optional[str] = None,
    stats: Optional[dict] = None,
) -> dict:
    """The ``summary.json`` of a run; ``stats`` are the step counters."""
    stats = stats or {}
    rows = len(series)
    eta = series.column("eta")
    # the mass change summed step by step from 0.0, in row order
    eta_change = np.cumsum(np.concatenate(([0.0], np.diff(eta))))[-1]
    b_drift = np.abs(series.column("b_recon") - series.column("b"))
    summary = {
        "status": _STATUS_BY_CODE[exit_code],
        "exit_code": exit_code,
        "event_time": None if event_time is None else float(event_time),
        "steps": max(rows - 1, 0),
        "t_final": float(series.column("t")[-1]) if rows else None,
        "initial_b_dot_correction": float(initial_bdot_correction),
        "b_consistency_max_drift": float(np.max(b_drift, initial=0.0)),
        "eta_final": float(eta[-1]) if rows else None,
        "mass_flux_identity_error": float(abs(
            (eta[-1] - eta[0]) - eta_change
        )) if rows else None,
        "g_bound_max_ratio": float(g_ratio_max) or None,
        "step_rejections": stats.get("rejections", 0),
        "picard_iterations_max": stats.get("picard_iterations_max", 0),
    }
    if g_ratio_max:
        summary["g_bound_ok"] = bool(g_ratio_max <= 1.0 + TOL_BOUND)
    if failure_message is not None:
        summary["failure_message"] = failure_message
    if rows >= 2:
        summary["energy_budget_residual"] = energy_budget_residual(series)
    contact = contact_bound_of(series, schedule, event_time)
    if contact is not None:
        bound = contact[2]
        summary["contact_time_lower_bound"] = (
            bound if math.isfinite(bound) else "inf"
        )
        if event_time is None:
            summary["event_vs_bound_ok"] = True
        else:
            summary["event_vs_bound_ok"] = bool(
                math.isfinite(bound) and event_time >= bound - 1e-9
            )
    return summary
