"""Run orchestration: phase sequencing, diagnostics recording, event handling.

The driver advances the solver step by step on plain values
(``solver._advance``, which checks each new state) and records one row of
monitored values per accepted step in the columnar ``RunSeries`` (the
energy-budget rates are stored; their time integrals are derived from the
columns).  The record (``_Record``) takes the same plain values and works in
blocks: a row's scalar terms are computed when its state is accepted, so a
monitor that overflows ends the run at that row; its ``v``, cell-centred
``u`` (which its ``u_l2`` uses too) and differences of ``u`` are staged, and
the array monitors of a whole block of rows are computed at once, in place,
with the bits of the per-state functions in ``diagnostics``.  The record anchors
the G exponent and the 1/v bound on the first outflow state it is given.  The
driver switches regime exactly at t_star and converts terminal solver events
into a ``RunResult`` with the documented exit codes.  It ends an outflow run
as depleted once its collapse is resolved: at the first accepted step whose
eta falls below ``solver.ETA_RESOLVED`` times the anchor's eta*, at the time
eta extrapolates to 0, if the outflow still drains then.
A ``SimState`` is built only for a state that leaves the loop: for the
``progress`` callback, which gets every state, and for the snapshots, which
are those ``SimState``s themselves; ``snapshot_of``/``state_from_snapshot``
give the JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .coords import EulerianField, lagrangian_init_from_eulerian
# pressure_q, energy, total_mass_eulerian, velocity_l2, volume_bound_ratio
# and step stay importable from this module although it does not call them:
# perfbench/tracer.py wraps them here
from .core import BoundarySchedule, GridState, Params, PistonState, pressure_q
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
    ETA_RESOLVED,
    ContactEvent,
    MassDepletionEvent,
    NumericalFailure,
    NumericsConfig,
    SimState,
    StepRejected,
    _advance,
    _instant_tol,
    _state_of,
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
    volumes summed from the open end, 1/v at the edges), then the trapezoid
    ``d * (y[1:] + y[:-1]) / 2.0`` of ``np.trapezoid``, summed per row.  The
    open-end-first arrays are built contiguous, not as reversed views."""
    rows, n = v.shape
    v_open_first = v[:, ::-1]
    widths = v_open_first * dy[:, None]
    x = np.empty((rows, n + 1))
    x[:, 0] = 0.0
    np.cumsum(widths, axis=1, out=x[:, 1:])
    rho = np.empty((rows, n + 1))  # v at the edges, open end first, then 1/v
    np.add(v_open_first[:, 1:], v_open_first[:, :-1], out=rho[:, 1:-1])
    rho[:, 1:-1] *= 0.5
    rho[:, 0] = np.maximum(1.5 * v[:, -1] - 0.5 * v[:, -2], 0.5 * v[:, -1])
    rho[:, -1] = np.maximum(1.5 * v[:, 0] - 0.5 * v[:, 1], 0.5 * v[:, 0])
    np.divide(1.0, rho, out=rho)
    mass = np.subtract(x[:, 1:], x[:, :-1], out=widths)
    mass *= rho[:, 1:] + rho[:, :-1]
    mass /= 2.0
    return np.add.reduce(mass, axis=1)


def _fluid_energy_rows(v: np.ndarray, u_c: np.ndarray, dy: np.ndarray,
                       gamma: float) -> np.ndarray:
    """The fluid part of ``energy`` of each row: midpoint quadrature of
    u^2/2 - Q(v), with ``u_c`` the cell-centred velocities."""
    density = 0.5 * u_c
    density *= u_c
    q_pot = v ** (1.0 - gamma)
    q_pot /= 1.0 - gamma
    density -= q_pot
    return np.add.reduce(density, axis=1) * dy


def _dissipation_rows(v: np.ndarray, du: np.ndarray, eta: np.ndarray,
                      dy: np.ndarray, mu: float) -> np.ndarray:
    """Viscous dissipation rate of each row, mu u_y^2 / v over the mass
    coordinate, with u_y = alpha u_z the velocity gradient per cell.  ``du``
    holds each row's ``np.diff(u)``; it is overwritten with u_y."""
    u_y = du
    u_y /= 1.0 / v.shape[1]
    u_y *= (-1.0 / eta)[:, None]
    rate = mu / v
    rate *= u_y
    rate *= u_y
    return np.add.reduce(rate, axis=1) * dy


def _block_rows(n_cells: int) -> int:
    """Rows staged per block: about 8192 cell values, at most 64 rows."""
    return max(1, min(64, 8192 // n_cells))


class _Record:
    """Diagnostics rows of accepted states, appended to a ``RunSeries`` in blocks.

    ``add`` takes a state as plain values (t, v, u, eta, b, b_dot, regime),
    already checked by ``solver._advance`` or a ``SimState``.  It computes
    the state's scalar terms at once (boundary values and
    rates, ``u_l2``, the piston and spring energy, the G exponent and
    exp(G)) in the order in which they can raise ``OverflowError``, then
    stages the state's ``v``, its cell-centred ``u``, from which ``u_l2`` was
    computed, and ``np.diff(u)``; a state that raises is never staged, so a
    run ends at the first row whose monitors overflow.
    The first outflow state ``add`` is given anchors the bound (in a run, the
    initial outflow state or the one switched at t_star): its ``v``/``eta``
    are v*/eta* of the 1/v bound, its piston values and ``u_l2`` the
    references of the G exponent, whose spring trapezoid is kept
    incrementally.  ``flush`` computes the array monitors of all staged rows
    with axis-1 operations, in place where a value is used once: the
    elementwise operations of
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
        self._dz = grid.dz
        # per staged row: v, the cell-centred u and the differences of u
        self._v = np.empty((rows, grid.n_cells))
        self._u_c = np.empty((rows, grid.n_cells))
        self._du = np.empty((rows, grid.n_cells))
        self._staged: List[tuple] = []
        self.ratio_max = 0.0
        # (v*, eta*, b, b_dot, u_l2) at the outflow start, None until then,
        # and the cell centres of v*, at which the bound samples it
        self._anchor: Optional[tuple] = None
        self._z_centers_star: Optional[np.ndarray] = None
        self._t_prev = self._spring_prev = self._spring_integral = 0.0

    @property
    def eta_star(self) -> Optional[float]:
        """eta* of the outflow anchor; None until an outflow row was added."""
        return None if self._anchor is None else self._anchor[1]

    def add(self, t: float, v: np.ndarray, u: np.ndarray, eta: float, b: float,
            b_dot: float, regime: str) -> None:
        """Stage the row of a state given by its values; flush a full block."""
        params, schedule = self._params, self._schedule
        # open-end velocity, specific volume and instantaneous mass flux
        u_b = float(u[-1])
        if regime == "inflow":
            rho_b = float(schedule.rho_in(min(t, schedule.t_star)))
            v_b = 1.0 / rho_b
            if v_b <= 0.0:  # pressure_q's check; the schedule is only sampled
                raise ValueError("specific volume must be positive")
            flux = float(schedule.u_in(min(t, schedule.t_star))) * rho_b
        else:
            v_b = float(v[-1])
            flux = float(schedule.u_out(t)) / v_b
        # sigma = mu u_y / v - q with the boundary cell's mass-coordinate gradient;
        # q is pressure_q's ufunc on a 0-d array, v_b > 0 is a checked value
        u_y_b = (-1.0 / eta) * ((u_b - float(u[-2])) / self._dz)
        sigma_b = (params.mu * u_y_b / v_b
                   - float(np.asarray(v_b, dtype=float) ** (-params.gamma)))
        row = len(self._staged)
        u_c = self._u_c[row]
        np.add(u[:-1], u[1:], out=u_c)
        u_c *= 0.5
        u_l2 = math.sqrt(np.add.reduce(u_c * u_c) * (eta / v.size))  # velocity_l2

        g_value = exp_g = math.nan
        if regime == "outflow":
            spring = params.stiffness_K * (b - params.b_rest)
            if self._anchor is None:
                self._anchor = (v, eta, b, b_dot, u_l2)
                self._z_centers_star = (np.arange(v.size) + 0.5) / v.size
                self._t_prev, self._spring_prev = t, spring
            _, eta_star, b_star, b_dot_star, u_l2_star = self._anchor
            self._spring_integral += (
                0.5 * (self._spring_prev + spring) * (t - self._t_prev))
            self._t_prev, self._spring_prev = t, spring
            g_value = (
                b_dot - b_dot_star
                + params.damping_l * (b - b_star)
                + self._spring_integral
                + math.sqrt(eta_star) * (u_l2 + u_l2_star)
            ) / params.mu
            exp_g = math.exp(g_value)
        piston_energy = 0.5 * b_dot ** 2
        spring_energy = 0.5 * params.stiffness_K * (b - params.b_rest) ** 2
        damping_rate = params.damping_l * b_dot ** 2
        outflux_rate = -u_b / (params.gamma - 1.0) * v_b ** (-params.gamma)
        work_rate = flux * 0.5 * u_b * u_b - u_b * sigma_b

        self._v[row] = v
        np.subtract(u[1:], u[:-1], out=self._du[row])
        self._staged.append((
            t, b, b_dot, eta, regime, g_value,
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
        v, u_c, du = self._v[:rows], self._u_c[:rows], self._du[:rows]
        eta = np.array(terms["eta"])
        dy = eta / v.shape[1]  # GridState.dy per row
        total_energy = (_fluid_energy_rows(v, u_c, dy, params.gamma)
                        + np.array(terms.pop("piston_energy"))
                        + np.array(terms.pop("spring_energy")))
        exp_g = np.array(terms.pop("exp_g"))
        outflow = np.array(terms["regime"]) == "outflow"
        if outflow.any():
            # volume_bound_ratio of the outflow rows: the reference profile
            # at the mass labels of the current cells
            v_star, eta_star = self._anchor[:2]
            z_matched = self._z_centers * (eta[outflow] / eta_star)[:, None]
            bound = np.interp(z_matched.ravel(), self._z_centers_star, v_star)
            np.divide(1.0, bound, out=bound)
            bound = bound.reshape(z_matched.shape)
            bound *= exp_g[outflow][:, None]
            ratio = v[outflow]  # a copy
            np.divide(1.0, ratio, out=ratio)
            ratio /= bound
            # Python's max in row order, as a running max over single rows
            self.ratio_max = max(self.ratio_max,
                                 *np.maximum.reduce(ratio, axis=1).tolist())

        self._series.extend(
            **terms,
            mass_eulerian=_eulerian_mass_rows(v, dy).tolist(),
            energy=total_energy.tolist(),
            min_v=np.minimum.reduce(v, axis=1).tolist(),
            max_v=np.maximum.reduce(v, axis=1).tolist(),
            b_recon=(np.add.reduce(v, axis=1) * dy).tolist(),
            dissipation_rate=_dissipation_rows(v, du, eta, dy, params.mu).tolist(),
        )
        self._staged.clear()


def _resolved_depletion_time(t: float, eta: float, eta_dot: float,
                             schedule: BoundarySchedule) -> Optional[float]:
    """Depletion time of a collapse resolved at ``(t, eta)``: eta extrapolated
    linearly to 0 with the step's converged flux, ``t - eta / eta_dot``.

    None, so that the run carries on, unless the outflow drains up to that
    time: ``eta_dot < 0``, ``u_out < 0`` at ``t`` and at the extrapolated
    time, which lies within the horizon.
    """
    if not (eta_dot < 0.0 and float(schedule.u_out(t)) < 0.0):
        return None
    t_event = float(t - eta / eta_dot)
    if t_event <= schedule.t_end and float(schedule.u_out(t_event)) < 0.0:
        return t_event
    return None


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
    """Drive a full run from ``initial`` to t_end or a terminal event.

    The loop advances plain values with ``solver._advance``; a ``SimState``
    is built only for a state that leaves it, for ``progress`` or a snapshot.
    The first accepted outflow step L with eta below ``ETA_RESOLVED * eta*``
    ends the run as depleted at ``_resolved_depletion_time``, its last row;
    where that time does not exist, the run carries on to ``solver.ETA_MIN``.
    """
    grid, piston = initial.grid, initial.piston
    t, v, u, eta, b, b_dot = initial.t, grid.v, grid.u, grid.eta, piston.b, piston.b_dot
    regime, dt_next, hint = initial.regime, initial.dt_next, initial.eta_dot_hint
    series = RunSeries()
    record = _Record(series, schedule, params, grid)
    snapshots = [initial] if snapshot_every > 0 else []

    exit_code = EXIT_COMPLETED
    event_time: Optional[float] = None
    failure_message: Optional[str] = None
    step_index = 0
    stats: dict = {}
    t_switch = schedule.t_star - _instant_tol(schedule.t_star)
    t_stop = schedule.t_end - _instant_tol(schedule.t_end)
    # one scope per run, summary included: a monitor that overflows reads inf
    # without a numpy warning; the run still ends on the errors below
    with np.errstate(over="ignore"):
        # the record writes a 0/0 or inf - inf into its row as a NaN, which
        # series.csv shows, without a numpy warning: every row and flush, the
        # first and the last too.  A non-finite momentum system in _advance
        # raises its ValueError without one first.  The scope is entered once
        # per run, not per step; the summary, outside it, still warns
        with np.errstate(invalid="ignore"):
            try:
                record.add(t, v, u, eta, b, b_dot, regime)
                # the resolved-collapse level, armed by the outflow anchor; 0.0
                # (eta > 0 never falls below it) before that and after its one
                # decision
                eta_star = record.eta_star
                resolved = 0.0 if eta_star is None else ETA_RESOLVED * eta_star
                while t < t_stop:
                    if regime == "inflow" and t >= t_switch:
                        regime = "outflow"
                        # zero-duration anchor row: outflow reference for the
                        # exponential bound and the regime flip of the boundary
                        # rates
                        record.add(t, v, u, eta, b, b_dot, regime)
                        resolved = ETA_RESOLVED * record.eta_star
                        continue
                    t, v, u, eta, b, b_dot, dt_next, hint = _advance(
                        t, v, u, eta, b, b_dot, regime == "outflow", dt_next, hint,
                        schedule, params, cfg, stats)
                    step_index += 1
                    record.add(t, v, u, eta, b, b_dot, regime)
                    snapshot = snapshot_every > 0 and step_index % snapshot_every == 0
                    if progress is not None or snapshot:
                        state = _state_of(regime, t, v, u, eta, b, b_dot, dt_next,
                                          hint)
                        if progress is not None:
                            progress(state)
                        if snapshot:
                            snapshots.append(state)
                    if eta < resolved:
                        resolved = 0.0  # decided once, at the first such step
                        event_time = _resolved_depletion_time(t, eta, hint, schedule)
                        if event_time is not None:
                            exit_code = EXIT_DEPLETION
                            break
            except ContactEvent as event:
                exit_code, event_time = EXIT_CONTACT, event.time
            except MassDepletionEvent as event:
                exit_code, event_time = EXIT_DEPLETION, event.time
            except (NumericalFailure, StepRejected) as event:
                exit_code, failure_message = EXIT_FAILURE, str(event)
            except OverflowError as event:
                # a finite state whose monitored values exceed the float range
                exit_code = EXIT_FAILURE
                failure_message = f"floating-point overflow at t={t:.6g}: {event}"
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
        # the horizon can pass t_end, where a preset extrapolates (a ramp to
        # 0 turns positive); an open end that takes no mass in there keeps
        # T3 a lower bound, and min() keeps the bits of a negative u_out
        lambda t: min(float(schedule.u_out(t)), 0.0),
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
