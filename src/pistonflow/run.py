"""Run orchestration: phase sequencing, diagnostics recording, event handling.

The driver advances the solver step by step, appends one row of monitored
values per accepted step to the columnar ``RunSeries`` (the energy-budget
rates are stored; their time integrals are derived from the columns),
switches regime exactly at t_star, and converts terminal solver events into
a ``RunResult`` with the documented exit codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .coords import EulerianField, lagrangian_init_from_eulerian
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
    ContactEvent,
    MassDepletionEvent,
    NumericalFailure,
    NumericsConfig,
    SimState,
    StepRejected,
    step,
    switch_regime,
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


@dataclass
class Snapshot:
    """Full restartable solver state at one instant.

    ``eta_dot_hint`` is the outflow flux of the last accepted step, which
    warm-starts the next Picard iteration (None before the first one).
    """

    t: float
    z: np.ndarray
    v: np.ndarray
    u: np.ndarray
    eta: float
    b: float
    b_dot: float
    dt: float
    regime: str
    eta_dot_hint: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "z": [float(x) for x in self.z],
            "v": [float(x) for x in self.v],
            "u": [float(x) for x in self.u],
            "eta": self.eta,
            "b": self.b,
            "b_dot": self.b_dot,
            "dt": self.dt,
            "regime": self.regime,
            "eta_dot_hint": self.eta_dot_hint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Snapshot":
        """Load a snapshot; files without ``eta_dot_hint`` load it as None."""
        hint = data.get("eta_dot_hint")
        if hint is not None:
            hint = float(hint)
            if not math.isfinite(hint):
                raise ValueError(f"eta_dot_hint must be finite, got {hint}")
        return cls(
            t=float(data["t"]),
            z=np.asarray(data["z"], dtype=float),
            v=np.asarray(data["v"], dtype=float),
            u=np.asarray(data["u"], dtype=float),
            eta=float(data["eta"]),
            b=float(data["b"]),
            b_dot=float(data["b_dot"]),
            dt=float(data["dt"]),
            regime=str(data["regime"]),
            eta_dot_hint=hint,
        )

    def to_state(self) -> SimState:
        grid = GridState(v=self.v, u=self.u, eta=self.eta)
        piston = PistonState(b=self.b, b_dot=self.b_dot)
        return SimState(
            t=self.t, grid=grid, piston=piston,
            regime=self.regime, dt_next=self.dt,  # type: ignore[arg-type]
            eta_dot_hint=self.eta_dot_hint,
        )


def snapshot_of(state: SimState) -> Snapshot:
    return Snapshot(
        t=state.t,
        z=np.asarray(state.grid.z_edges),
        v=np.asarray(state.grid.v),
        u=np.asarray(state.grid.u),
        eta=float(state.grid.eta),
        b=state.piston.b,
        b_dot=state.piston.b_dot,
        dt=state.dt_next,
        regime=state.regime,
        eta_dot_hint=state.eta_dot_hint,
    )


@dataclass
class RunResult:
    series: RunSeries
    final_state: Optional[SimState]
    status: str
    exit_code: int
    event_time: Optional[float]
    summary: dict = field(default_factory=dict)
    snapshots: List[Snapshot] = field(default_factory=list)


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


@dataclass
class _GTracker:
    """Incremental evaluation of the exponential-bound exponent.

    Keeps the trapezoid of the spring term and the outflow-start reference
    values so each step costs O(1); equivalent to recomputing the exponent's
    trapezoid over the full recorded outflow series.
    """

    ref_b: float
    ref_b_dot: float
    ref_u_l2: float
    ref_eta_sqrt: float
    prev_t: float
    prev_spring: float
    spring_integral: float = 0.0

    @classmethod
    def start(cls, series: RunSeries, state: SimState, params: Params) -> "_GTracker":
        """Anchor the outflow references of the series and of G at ``state``."""
        series.v_star = np.array(state.grid.v)
        series.eta_star = float(state.grid.eta)
        series.t_star_actual = state.t
        return cls(
            ref_b=state.piston.b,
            ref_b_dot=state.piston.b_dot,
            ref_u_l2=velocity_l2(state),
            ref_eta_sqrt=math.sqrt(state.grid.eta),
            prev_t=state.t,
            prev_spring=params.stiffness_K * (state.piston.b - params.b_rest),
        )

    def advance(self, state: SimState, u_l2: float, params: Params) -> float:
        spring = params.stiffness_K * (state.piston.b - params.b_rest)
        self.spring_integral += 0.5 * (self.prev_spring + spring) * (
            state.t - self.prev_t
        )
        self.prev_t = state.t
        self.prev_spring = spring
        return (
            state.piston.b_dot - self.ref_b_dot
            + params.damping_l * (state.piston.b - self.ref_b)
            + self.spring_integral
            + self.ref_eta_sqrt * (u_l2 + self.ref_u_l2)
        ) / params.mu


def _record(
    state: SimState,
    schedule: BoundarySchedule,
    params: Params,
    series: RunSeries,
    g_tracker: Optional[_GTracker],
) -> None:
    """Append the diagnostics row of ``state``."""
    grid = state.grid
    alpha = -1.0 / grid.eta
    u_z = np.diff(grid.u) / grid.dz
    u_y = alpha * u_z  # velocity gradient in the mass coordinate, per cell
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
    sigma_b = params.mu * float(u_y[-1]) / v_b - float(
        pressure_q(v_b, params.gamma)
    )

    g_value = math.nan
    u_l2 = velocity_l2(state)
    if state.regime == "outflow":  # _GTracker.start has anchored g_tracker and v_star
        g_value = g_tracker.advance(state, u_l2, params)
        ratio = volume_bound_ratio(state, series.v_star, series.eta_star, g_value)
        series.g_bound_max_ratio = max(series.g_bound_max_ratio, ratio)

    series.append(
        t=state.t,
        b=state.piston.b,
        b_dot=state.piston.b_dot,
        eta=float(grid.eta),
        mass_eulerian=total_mass_eulerian(state),
        energy=energy(state, params),
        min_v=float(np.min(grid.v)),
        max_v=float(np.max(grid.v)),
        G_exponent=g_value,
        regime=state.regime,
        u_l2=u_l2,
        b_recon=float(np.sum(grid.v) * grid.dy),
        v_boundary=v_b,
        dissipation_rate=float(np.sum(params.mu / grid.v * u_y * u_y) * grid.dy),
        damping_rate=params.damping_l * state.piston.b_dot ** 2,
        outflux_pressure_rate=-u_b / (params.gamma - 1.0) * v_b ** (-params.gamma),
        boundary_work_rate=flux * 0.5 * u_b * u_b - u_b * sigma_b,
    )


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
    g_tracker: Optional[_GTracker] = None
    snapshots = [snapshot_of(state)] if snapshot_every > 0 else []

    exit_code = EXIT_COMPLETED
    event_time: Optional[float] = None
    step_index = 0
    stats: dict = {}
    eps = 1e-12 * max(1.0, schedule.t_end)
    try:
        # one scope per run: a monitor that overflows reads inf instead of
        # printing a numpy warning; the run still ends on the errors below
        with np.errstate(over="ignore"):
            if state.regime == "outflow":
                g_tracker = _GTracker.start(series, state, params)
            _record(state, schedule, params, series, g_tracker)
            while state.t < schedule.t_end - eps:
                if state.regime == "inflow" and state.t >= schedule.t_star - eps:
                    state = switch_regime(state, schedule)
                    g_tracker = _GTracker.start(series, state, params)
                    # zero-duration anchor record: outflow reference for the
                    # exponential bound and the regime flip of the boundary rates
                    _record(state, schedule, params, series, g_tracker)
                    continue
                state = step(state, schedule, params, cfg, stats)
                step_index += 1
                _record(state, schedule, params, series, g_tracker)
                if progress is not None:
                    progress(state)
                if snapshot_every > 0 and step_index % snapshot_every == 0:
                    snapshots.append(snapshot_of(state))
    except ContactEvent as event:
        exit_code, event_time = EXIT_CONTACT, event.time
    except MassDepletionEvent as event:
        exit_code, event_time = EXIT_DEPLETION, event.time
    except (NumericalFailure, StepRejected) as event:
        exit_code = EXIT_FAILURE
        series.failure_message = str(event)
    except OverflowError as event:
        # a finite state whose monitored values exceed the float range
        exit_code = EXIT_FAILURE
        series.failure_message = f"floating-point overflow at t={state.t:.6g}: {event}"

    summary = _summarize(
        series, schedule, exit_code, event_time, initial_bdot_correction
    )
    summary["step_rejections"] = stats.get("rejections", 0)
    summary["picard_iterations_max"] = stats.get("picard_iterations_max", 0)
    return RunResult(
        series=series,
        final_state=state,
        status=_STATUS_BY_CODE[exit_code],
        exit_code=exit_code,
        event_time=event_time,
        summary=summary,
        snapshots=snapshots,
    )


def contact_bound_of(
    series: RunSeries, schedule: BoundarySchedule, event_time: Optional[float]
) -> Optional[Tuple[float, float]]:
    """Smallest recorded outflow boundary v and the T3 bound it gives.

    The bound's horizon reaches one time unit past the event (or t_end).
    None when the run never reached the outflow phase.
    """
    # imported at call time, so a wrapper set on the diagnostics module applies
    from .diagnostics import contact_time_lower_bound

    outflow = series.column("regime") == "outflow"
    if schedule.u_out is None or not outflow.any():
        return None
    v_min = float(series.column("v_boundary")[outflow].min())
    bound = contact_time_lower_bound(
        series.eta_star,
        schedule.u_out,
        v_min,
        t_star=series.t_star_actual,
        t_end=max(schedule.t_end, (event_time or 0.0) + 1.0),
    )
    return v_min, bound


def _summarize(
    series: RunSeries,
    schedule: BoundarySchedule,
    exit_code: int,
    event_time: Optional[float],
    initial_bdot_correction: float,
) -> dict:
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
        "g_bound_max_ratio": float(series.g_bound_max_ratio) or None,
    }
    if series.g_bound_max_ratio:
        summary["g_bound_ok"] = bool(
            series.g_bound_max_ratio <= 1.0 + TOL_BOUND
        )
    if series.failure_message is not None:
        summary["failure_message"] = series.failure_message
    if rows >= 2:
        summary["energy_budget_residual"] = energy_budget_residual(series)
    contact = contact_bound_of(series, schedule, event_time)
    if contact is not None:
        bound = contact[1]
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
