"""Run orchestration: phase sequencing, diagnostics recording, event handling.

The driver advances the solver step by step, appends one row of monitored
values per accepted step to the columnar ``RunSeries`` (the energy-budget
rates are stored; their time integrals are derived from the columns),
switches regime exactly at t_star, and converts terminal solver events into
a ``RunResult`` with the documented exit codes.  Its snapshots are the
``SimState``s themselves; ``snapshot_of``/``state_from_snapshot`` give the JSON.
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
    final_state: Optional[SimState]
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


@dataclass
class _GTracker:
    """Outflow-start references of the exponential bound, and its running max.

    Anchored at T*: ``v_star``/``eta_star`` for the 1/v bound, and the
    piston and velocity terms of the G exponent, whose spring trapezoid is
    kept incrementally so each step costs O(1); equivalent to recomputing the
    exponent's trapezoid over the full recorded outflow series.
    """

    v_star: np.ndarray
    eta_star: float
    ref_b: float
    ref_b_dot: float
    ref_u_l2: float
    prev_t: float
    prev_spring: float
    spring_integral: float = 0.0
    ratio_max: float = 0.0

    @classmethod
    def start(cls, state: SimState, params: Params) -> "_GTracker":
        return cls(
            v_star=state.grid.v,
            eta_star=state.grid.eta,
            ref_b=state.piston.b,
            ref_b_dot=state.piston.b_dot,
            ref_u_l2=velocity_l2(state),
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
            + math.sqrt(self.eta_star) * (u_l2 + self.ref_u_l2)
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
    if state.regime == "outflow":  # _GTracker.start has anchored g_tracker
        g_value = g_tracker.advance(state, u_l2, params)
        ratio = volume_bound_ratio(
            state, g_tracker.v_star, g_tracker.eta_star, g_value
        )
        g_tracker.ratio_max = max(g_tracker.ratio_max, ratio)

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
    snapshots = [state] if snapshot_every > 0 else []

    exit_code = EXIT_COMPLETED
    event_time: Optional[float] = None
    failure_message: Optional[str] = None
    step_index = 0
    stats: dict = {}
    eps = 1e-12 * max(1.0, schedule.t_end)
    try:
        # one scope per run: a monitor that overflows reads inf instead of
        # printing a numpy warning; the run still ends on the errors below
        with np.errstate(over="ignore"):
            if state.regime == "outflow":
                g_tracker = _GTracker.start(state, params)
            _record(state, schedule, params, series, g_tracker)
            while state.t < schedule.t_end - eps:
                if state.regime == "inflow" and state.t >= schedule.t_star - eps:
                    state = switch_regime(state, schedule)
                    g_tracker = _GTracker.start(state, params)
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

    summary = _summarize(
        series, schedule, exit_code, event_time, initial_bdot_correction,
        g_ratio_max=g_tracker.ratio_max if g_tracker is not None else 0.0,
        failure_message=failure_message, stats=stats,
    )
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
