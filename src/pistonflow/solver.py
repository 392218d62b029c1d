"""Time integration of the fixed-domain gas-piston system.

One step is operator-split: the specific volume is advanced first (explicit
upwind advection plus the staggered velocity divergence), then the velocity
field and the piston are advanced together in a single theta-implicit
tridiagonal solve whose first row is the piston equation.  The total mass
eta evolves by the boundary flux: prescribed during inflow, resolved by a
within-step Picard iteration during outflow where the boundary density is
part of the unknown.  The iteration updates only the boundary cell, in
scalars and with the transport's float operations; the step then transports
every cell once with the converged flux.  The whole-horizon fixed point
resolves the outflow flux instead over a frozen mass trajectory, with the
same split step.  The manufactured-solution oracle (``oracle.run_forced``)
runs it too, through keyword hooks: sources, a pinned piston, a frozen v.

``_advance`` is the adaptive step on plain values (t, v, u, eta, b, b_dot,
dt_next, hint); ``step`` wraps it, and ``run.run_simulation`` loops over it.
It makes the checks the state constructors make on a stepped state, except
those the step guarantees, so no state is built or re-validated per step;
``_state_of`` builds the ``SimState`` of a state that leaves the loop.  The
outflow Picard loop and the dt bound take plain values too.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Literal, Optional, Tuple

import numpy as np

# coefficients_alpha_beta and pressure_q stay importable from this module
# although it does not call them: perfbench/tracer.py wraps them here
from .coords import CoeffPair, coefficients_alpha_beta
from .core import BoundarySchedule, GridState, Params, PistonState, pressure_q
from .core import _check_grid_values, _check_piston_values, _z_edges


def _load_dgtsv():
    """LAPACK ``dgtsv`` from scipy's compiled ``scipy.linalg._flapack``.

    ``scipy.linalg.lapack.dgtsv`` is this very function object, but importing
    it that way runs the ``scipy`` and ``scipy.linalg`` packages, most of the
    start-up time of a run.  The extension is loaded from scipy's install
    directory instead (``find_spec`` does not run the package) and registered
    under its own name, so a later ``import scipy.linalg`` reuses it.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError("pistonflow needs scipy for LAPACK dgtsv")
        directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
        finder = importlib.machinery.FileFinder(
            directory,
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(name)
        if spec is None:
            raise ImportError(f"LAPACK extension _flapack not found in {directory}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dgtsv


dgtsv = _load_dgtsv()


class SolverEvent(Exception):
    """Terminal event of a run; carries the (interpolated) event time."""

    def __init__(self, message: str, time: Optional[float] = None,
                 fraction: Optional[float] = None):
        super().__init__(message)
        self.time = None if time is None else float(time)
        self.fraction = None if fraction is None else float(fraction)


class ContactEvent(SolverEvent):
    """Piston reached the closed end (b fell to the contact threshold)."""


class MassDepletionEvent(SolverEvent):
    """Total mass eta was exhausted through the open end."""


class NumericalFailure(Exception):
    """Unrecoverable numerical breakdown (reported, never silent)."""


class StepRejected(Exception):
    """Internal: the attempted step must be retried with a smaller dt."""


class CflViolation(StepRejected):
    """The advective CFL bound max|beta| * dt <= cfl * dz was violated."""


class VacuumError(StepRejected):
    """A specific-volume sample became nonpositive during the update."""


class PicardNonConvergence(StepRejected):
    """The within-step Picard iteration did not reach tolerance."""


class NonContractionError(NumericalFailure):
    """Outer fixed-point residuals grew; the horizon is too long."""

    def __init__(self, message: str, residual_history: List[float]):
        super().__init__(message)
        self.residual_history = residual_history


class StateError(RuntimeError):
    """An operation was called on a state it is not valid for."""


Regime = Literal["inflow", "outflow"]

#: contact threshold: the piston touches the closed end once b falls to it
B_MIN = 1e-8
#: depletion threshold: the multiplicative decay of eta never reaches 0 in
#: floating point, so depletion fires at this absolute floor
ETA_MIN = 1e-8
#: halvings of dt allowed before a rejected step becomes a NumericalFailure
MAX_HALVINGS = 40


def _instant_tol(instant: float) -> float:
    """How close t must come to a phase instant (t_star, t_end) to have reached it."""
    return 1e-12 * max(1.0, abs(instant))


@dataclass(frozen=True)
class NumericsConfig:
    """Discretization controls for a run."""

    n_cells: int = 128
    dt_initial: float = 1e-3
    cfl_advection: float = 0.5
    picard_tol: float = 1e-10
    picard_max_iter: int = 25
    theta_viscous: float = 1.0
    dt_growth: float = 1.1

    def __post_init__(self) -> None:
        if self.n_cells < 4:
            raise ValueError(f"n_cells must be at least 4, got {self.n_cells}")
        if not 0.0 < self.dt_initial < math.inf:
            raise ValueError("dt_initial must be positive and finite")
        if not 0.0 < self.cfl_advection <= 1.0:
            raise ValueError("cfl_advection must lie in (0, 1]")
        if not 0.0 < self.picard_tol < math.inf:
            raise ValueError("picard_tol must be positive and finite")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be at least 1")
        if not 0.5 <= self.theta_viscous <= 1.0:
            raise ValueError("theta_viscous must lie in [0.5, 1]")
        if not 1.0 <= self.dt_growth < math.inf:
            raise ValueError("dt_growth must be at least 1 and finite")


@dataclass(frozen=True)
class SimState:
    """Complete solver state at one time level.

    The piston-side edge velocity and the piston velocity are the same
    unknown; the constructor enforces the equality.  ``eta_dot_hint`` is the
    flux of the last accepted step and warm-starts the next outflow Picard
    iteration (None before the first outflow step).
    """

    t: float
    grid: GridState
    piston: PistonState
    regime: Regime
    dt_next: float = 1e-3
    eta_dot_hint: Optional[float] = None

    def __post_init__(self) -> None:
        _check_clock(self.t, self.dt_next, self.eta_dot_hint)
        if self.regime not in ("inflow", "outflow"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.grid.u[0] != self.piston.b_dot:
            raise ValueError(
                f"velocity continuity violated: u[0]={self.grid.u[0]} "
                f"!= b_dot={self.piston.b_dot}"
            )


def _check_clock(t: float, dt_next: float, hint: Optional[float]) -> None:
    """``SimState``'s checks of its time values, shared with ``_advance``."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if not 0.0 < dt_next < math.inf:
        raise ValueError(f"dt_next must be positive and finite, got {dt_next}")
    if hint is not None and not math.isfinite(hint):
        raise ValueError(f"eta_dot_hint must be finite, got {hint}")


def _transport(v: np.ndarray, u: np.ndarray, alpha: float, beta: np.ndarray,
               eta_dot: float, dt: float, cfl: float, v_open: Optional[float] = None,
               source: Optional[np.ndarray] = None) -> np.ndarray:
    """Plain-array kernel of ``transport_update``: the new specific volume."""
    dz = 1.0 / v.size
    max_beta = float(np.abs(beta).max())
    if max_beta * dt > cfl * dz * (1.0 + 1e-12):
        raise CflViolation(
            f"advective CFL violated: max|beta|*dt={max_beta * dt:.3e} "
            f"> {cfl}*dz={cfl * dz:.3e}"
        )
    div = alpha * (u[1:] - u[:-1]) / dz
    grad = np.zeros(v.size)
    if eta_dot <= 0.0:
        # beta >= 0: wind blows from the piston side; zero-gradient ghost there
        grad[1:] = (v[1:] - v[:-1]) / dz
    else:
        # beta < 0: wind blows from the open end
        grad[:-1] = (v[1:] - v[:-1]) / dz
        if v_open is not None:
            grad[-1] = (v_open - v[-1]) / (0.5 * dz)
    beta_centers = 0.5 * (beta[:-1] + beta[1:])
    v_new = v + dt * (div - beta_centers * grad)
    if source is not None:
        v_new = v_new + dt * np.asarray(source, dtype=float)
    if not v_new.min() > 0.0:  # NaN fails too, with GridState's ValueError
        if (v_new <= 0.0).any():
            worst = int(np.argmin(v_new))
            raise VacuumError(
                f"specific volume nonpositive after transport update "
                f"(cell {worst}, v={v_new[worst]:.3e})"
            )
        raise ValueError("specific volume must be positive in every cell")
    return v_new


def transport_update(
    grid: GridState,
    coeffs: CoeffPair,
    dt: float,
    *,
    cfl_advection: float = 1.0,
    v_open_end: Optional[float] = None,
    source: Optional[np.ndarray] = None,
) -> GridState:
    """Advance the specific volume one step of v_t + beta v_z = alpha u_z.

    First-order upwind for the advection (the sign of beta is uniform in z,
    set by the sign of eta_dot), compact centered differencing of the edge
    velocities for the divergence.  ``v_open_end`` supplies the prescribed
    boundary value 1/rho_in during inflow; when it is None the open end is
    an outgoing characteristic and the boundary cell is extrapolated.
    ``coeffs.beta`` must be sampled on the cell edges.
    """
    if coeffs.beta.size != grid.n_cells + 1:
        raise ValueError("coeffs.beta must be sampled on the cell edges")
    v_new = _transport(grid.v, grid.u, coeffs.alpha, coeffs.beta, coeffs.eta_dot,
                       dt, cfl_advection, v_open_end, source)
    return GridState(v=v_new, u=grid.u, eta=grid.eta)


def _momentum(v: np.ndarray, u: np.ndarray, alpha: float, beta: np.ndarray,
              eta_dot: float, b: float, b_dot: float, params: Params,
              bc_velocity: float, dt: float, theta: float,
              source_u: Optional[np.ndarray] = None, source_piston: float = 0.0,
              pin_piston_to: Optional[float] = None) -> Tuple[np.ndarray, float, float]:
    """Plain-array kernel of ``momentum_piston_solve``: (u_new, b_new, b_dot_new).

    Calls LAPACK dgtsv as ``solve_banded((1, 1), ...)`` does, finiteness check too.
    """
    n = v.size
    dz = 1.0 / n
    mu, K, l = params.mu, params.stiffness_K, params.damping_l

    q = v ** (-params.gamma)  # v > 0: checked by _transport or GridState
    lam = mu * alpha * alpha / (dz * dz)

    work = np.zeros((4, n + 1))
    # lower[j] couples row j to u[j-1], upper[j] row j to u[j+1]
    diag, lower, upper, rhs = work

    # interior edges j = 1..n-1: cell j sits right of edge j (toward the
    # open end), cell j-1 left of it (toward the piston); du[j] = u[j+1] - u[j]
    inv_v = 1.0 / v
    inv_r, inv_l = inv_v[1:], inv_v[:-1]
    du = u[1:] - u[:-1]
    visc_expl = lam * (du[1:] * inv_r - du[:-1] * inv_l)
    press = -alpha * (q[1:] - q[:-1]) / dz
    if eta_dot <= 0.0:
        adv = beta[1:-1] * du[:-1] / dz
    else:
        adv = beta[1:-1] * du[1:] / dz
    rhs[1:-1] = u[1:-1] + dt * (-adv + (1.0 - theta) * visc_expl + press)
    if source_u is not None:
        rhs[1:-1] += dt * np.asarray(source_u, dtype=float)[1:-1]
    c = dt * theta * lam
    diag[1:-1] = 1.0 + c * (inv_r + inv_l)
    upper[1:-1] = -c * inv_r
    lower[1:-1] = -c * inv_l

    # piston row (edge 0)
    if pin_piston_to is not None:
        diag[0] = 1.0
        rhs[0] = float(pin_piston_to)
    else:
        g = mu * alpha / (dz * v[0])  # traction gradient factor, negative
        diag[0] = 1.0 + dt * l - dt * theta * g
        upper[0] = dt * theta * g
        rhs[0] = b_dot + dt * (q[0] - K * (b - params.b_rest) + source_piston
                               - g * (1.0 - theta) * (u[1] - u[0]))

    # open end row (edge n): Dirichlet
    diag[-1] = 1.0
    rhs[-1] = float(bc_velocity)

    if not np.isfinite(work).all():
        raise ValueError("momentum system: array must not contain infs or NaNs")
    # work is scratch: dgtsv may overwrite all four rows in place
    _, _, _, u_new, info = dgtsv(lower[1:], diag, upper[:-1], rhs, 1, 1, 1, 1)
    if info > 0:  # pragma: no cover - guarded by v > 0
        raise NumericalFailure(f"singular momentum system (dgtsv info={info})")

    b_dot_new = float(u_new[0])
    b_new = b + dt * b_dot_new
    if b_new <= B_MIN:
        frac = (b - B_MIN) / max(b - b_new, 1e-300)
        raise ContactEvent(
            f"piston contact: b fell to {b_new:.3e}", fraction=min(max(frac, 0.0), 1.0)
        )
    return u_new, b_new, b_dot_new


def momentum_piston_solve(
    grid: GridState,
    coeffs: CoeffPair,
    piston: PistonState,
    params: Params,
    bc_open_end_velocity: float,
    dt: float,
    *,
    theta: float = 1.0,
    source_u: Optional[np.ndarray] = None,
    source_piston: float = 0.0,
    pin_piston_to: Optional[float] = None,
) -> Tuple[np.ndarray, PistonState]:
    """One theta-implicit momentum step, monolithically coupled to the piston.

    The edge velocities solve u_t + beta u_z = mu a (a u_z / v)_z - a q(v)_z
    with the viscous term theta-implicit (tridiagonal), the advection
    explicit upwind and the pressure gradient explicit from the current v.
    The piston velocity is the z = 0 edge unknown; its row integrates

        b_dot_new = b_dot + dt * (traction - l * b_dot_new - K * (b - b_rest))

    with the traction q(v) - mu * (a u_z / v) at the piston evaluated at the
    new velocity level, then b_new = b + dt * b_dot_new.  The open end is
    Dirichlet-pinned to ``bc_open_end_velocity``.  ``source_u`` (per edge)
    and ``source_piston`` add manufactured forcings; ``pin_piston_to``
    replaces the piston row by a Dirichlet value for verification runs.
    """
    u_new, b_new, b_dot_new = _momentum(
        grid.v, grid.u, coeffs.alpha, coeffs.beta, coeffs.eta_dot, piston.b,
        piston.b_dot, params, bc_open_end_velocity, dt, theta, source_u,
        source_piston, pin_piston_to)
    return u_new, PistonState(b=b_new, b_dot=b_dot_new)


def eta_update_inflow(
    eta: float, t: float, dt: float, schedule: BoundarySchedule
) -> Tuple[float, float]:
    """Mass gained from prescribed inflow data over one step (midpoint rule)."""
    if t + dt > schedule.t_star + _instant_tol(schedule.t_star):
        raise StateError(
            f"inflow eta update beyond t_star: t+dt={t + dt} > {schedule.t_star}"
        )
    tm = t + 0.5 * dt
    eta_dot = float(schedule.u_in(tm)) * float(schedule.rho_in(tm))
    return eta + dt * eta_dot, eta_dot


def _outflow_boundary_volume(v_b: float, grad: float, du: float, z_left: float,
                             dz: float, eta_mid: float, ratio: float, dt: float
                             ) -> float:
    """``_transport(...)[-1]`` for eta_dot <= 0, in scalars.

    With the wind from the piston side, cell n-1 sees only cells n-2, n-1 and
    edges n-1, n: ``grad`` = (v[-1] - v[-2]) / dz, ``du`` = u[-1] - u[-2],
    ``z_left`` = z_edges[-2] and ``ratio`` = eta_dot / eta_mid.  The float
    operations are those of ``coefficients_alpha_beta`` and ``_transport``,
    in the same order, so the result is bit-identical.
    """
    alpha = -1.0 / eta_mid
    beta_l = -z_left * ratio
    beta_b = -1.0 * ratio  # z_edges[-1] == 1.0
    div = alpha * du / dz
    return v_b + dt * (div - 0.5 * (beta_l + beta_b) * grad)


def eta_update_outflow_picard(
    v: np.ndarray,
    u: np.ndarray,
    eta: float,
    t: float,
    dt: float,
    schedule: BoundarySchedule,
    cfg: NumericsConfig,
    residual_history: Optional[List[float]] = None,
    initial_guess: Optional[float] = None,
) -> Tuple[float, float, int]:
    """Resolve the implicit outflow mass flux eta_dot = u_out / v(boundary).

    ``v``, ``u`` and ``eta`` are the grid samples and total mass at t.  The
    boundary specific volume reacts to the coefficients, which depend on
    eta_dot; the loop iterates flux -> boundary-cell transport -> boundary
    value -> flux until the flux change drops below picard_tol.  With
    eta_dot <= 0 the wind blows from the piston side, so the new boundary
    value depends only on the last two cells and edges: each iteration
    computes it in scalars, with the float operations of the full transport,
    and checks the CFL bound and that cell.  The other cells are checked once,
    by the step's full transport with the converged flux.
    ``initial_guess`` (typically the previous step's converged flux)
    warm-starts the loop; ``residual_history``, when given, collects the
    |change| per iteration.  Returns (eta_new, eta_dot, iterations).  Raises
    StepRejected on non-convergence (the caller halves dt) and
    MassDepletionEvent if the step would exhaust the total mass.
    """
    tm = t + 0.5 * dt
    u_out = float(schedule.u_out(tm))
    n = v.size
    v_b = float(v[-1])
    eta_dot = u_out / v_b if initial_guess is None else float(initial_guess)
    if eta_dot > 0.0:
        eta_dot = 0.0  # an inflow-phase hint is not admissible here

    # loop invariants of the update of cell n-1
    dz = 1.0 / n
    z_left = float(_z_edges(n)[-2])
    du = float(u[-1]) - float(u[-2])
    grad = (v_b - float(v[-2])) / dz
    cfl = cfg.cfl_advection
    cfl_limit = cfl * dz * (1.0 + 1e-12)

    def _depletion_check(eta_new: float, eta_dot_used: float) -> None:
        if eta_new <= ETA_MIN:
            frac = (eta - ETA_MIN) / max(eta - eta_new, 1e-300)
            raise MassDepletionEvent(
                f"total mass exhausted (eta_dot={eta_dot_used:.3e})",
                fraction=min(max(frac, 0.0), 1.0),
            )

    for iteration in range(1, cfg.picard_max_iter + 1):
        eta_new = eta + dt * eta_dot
        _depletion_check(eta_new, eta_dot)
        eta_mid = 0.5 * (eta + eta_new)
        if not eta_mid > 0.0:
            raise ValueError(f"domain collapse: eta must be positive, got {eta_mid}")
        ratio = eta_dot / eta_mid
        max_beta = abs(ratio)  # |beta| is largest at z = 1
        if max_beta * dt > cfl_limit:
            raise CflViolation(
                f"advective CFL violated: max|beta|*dt={max_beta * dt:.3e} "
                f"> {cfl}*dz={cfl * dz:.3e}"
            )
        v_new_b = _outflow_boundary_volume(v_b, grad, du, z_left, dz, eta_mid,
                                           ratio, dt)
        if not v_new_b > 0.0:
            if v_new_b <= 0.0:
                raise VacuumError(
                    f"specific volume nonpositive after transport update "
                    f"(cell {n - 1}, v={v_new_b:.3e})"
                )
            raise ValueError("specific volume must be positive in every cell")
        eta_dot_next = u_out / v_new_b
        change = abs(eta_dot_next - eta_dot)
        if residual_history is not None:
            residual_history.append(change)
        if change < cfg.picard_tol:
            eta_new = eta + dt * eta_dot_next
            _depletion_check(eta_new, eta_dot_next)
            return eta_new, eta_dot_next, iteration
        eta_dot = eta_dot_next
    raise PicardNonConvergence(
        f"outflow Picard iteration did not converge in {cfg.picard_max_iter} "
        f"iterations at t={t:.6g} (dt={dt:.3e})"
    )


def dt_stability_bound(
    v: np.ndarray, eta: float, eta_dot_estimate: float, params: Params,
    cfg: NumericsConfig,
) -> float:
    """Largest dt allowed by the explicit advective and acoustic terms.

    The viscous term is implicit and imposes no bound.  The acoustic speed in
    the normalized coordinate is |alpha| * sqrt(gamma) * v**(-(gamma+1)/2);
    the advective speed is at most |eta_dot| / eta.
    """
    speed = abs(eta_dot_estimate) / eta
    gamma = params.gamma
    # largest characteristic speed sqrt(-q'(v)) over the grid
    speed += float(np.sqrt(gamma) * (v ** (-0.5 * (gamma + 1.0))).max()) / eta
    if speed <= 0.0:
        return math.inf
    return cfg.cfl_advection * (1.0 / v.size) / speed  # GridState.dz


def _split_step(v: np.ndarray, u: np.ndarray, b: float, b_dot: float,
                eta_mid: float, eta_dot: float, dt: float, params: Params,
                cfg: NumericsConfig, bc_velocity: float, v_open: Optional[float] = None,
                *, source_v: Optional[np.ndarray] = None,
                source_u: Optional[np.ndarray] = None, source_piston: float = 0.0,
                pin_piston_to: Optional[float] = None,
                v_frozen: Optional[np.ndarray] = None,
                ) -> Tuple[np.ndarray, np.ndarray, float, float]:
    """The operator-split step on plain arrays, mass update already decided.

    Coefficients at the midpoint mass ``eta_mid`` (as ``coefficients_alpha_beta``
    forms them), transport of v, then the monolithic momentum/piston solve on
    the advected volumes: (v, u, b, b_dot) after it.  Called by ``step``, the
    frozen-mass solve and ``oracle.run_forced``, which alone uses the hooks:
    ``source_v`` (transport), ``source_u`` and ``source_piston`` (momentum and
    piston rows), ``pin_piston_to`` (Dirichlet piston row) and ``v_frozen``
    (the new v, in place of the transport).
    """
    alpha = -1.0 / eta_mid
    beta = -_z_edges(v.size) * (eta_dot / eta_mid)
    if v_frozen is None:
        v_new = _transport(v, u, alpha, beta, eta_dot, dt, cfg.cfl_advection, v_open,
                           source_v)
    else:
        v_new = v_frozen
    u_new, b_new, b_dot_new = _momentum(v_new, u, alpha, beta, eta_dot, b, b_dot,
                                        params, bc_velocity, dt, cfg.theta_viscous,
                                        source_u, source_piston, pin_piston_to)
    return v_new, u_new, b_new, b_dot_new


def _advance(t: float, v: np.ndarray, u: np.ndarray, eta: float, b: float,
             b_dot: float, outflow: bool, dt_next: float, hint: Optional[float],
             schedule: BoundarySchedule, params: Params, cfg: NumericsConfig,
             stats: Optional[dict] = None,
             ) -> Tuple[float, np.ndarray, np.ndarray, float, float, float, float,
                        Optional[float]]:
    """``step`` on plain values: (t, v, u, eta, b, b_dot, dt_next, hint) after it.

    ``outflow`` names the phase and ``hint`` is ``SimState.eta_dot_hint``.
    The result gets the checks ``GridState``, ``PistonState`` and ``SimState``
    make, through the same helpers, except those that hold by construction:
    the layout, v > 0 (``_transport`` checks it), u[0] == b_dot and the
    regime.  The returned ``v`` and ``u`` are fresh arrays.  Its
    callers run it under ``np.errstate(invalid="ignore")``: a non-finite
    momentum system raises its ``ValueError`` without a numpy warning first.
    """
    horizon = schedule.t_end if outflow else schedule.t_star
    if t >= horizon - _instant_tol(horizon):
        raise StateError(f"no time left before t={horizon} (state.t={t})")
    resolution = 1e-14 * max(1.0, abs(t))

    if outflow:
        flux_est = float(schedule.u_out(t)) / v[-1]
    else:
        flux_est = float(schedule.u_in(t)) * float(schedule.rho_in(t))
    dt_bound = dt_stability_bound(v, eta, flux_est, params, cfg)
    if dt_bound < resolution:
        raise NumericalFailure(
            f"stability bound dt={dt_bound:.3e} at t={t:.6g} is below the time "
            f"resolution {resolution:.3e}"
        )
    dt_base = min(dt_next, dt_bound)
    dt = min(dt_base, horizon - t)
    rejected = False
    for _ in range(MAX_HALVINGS + 1):
        try:
            if outflow:
                eta_new, eta_dot, iters = eta_update_outflow_picard(
                    v, u, eta, t, dt, schedule, cfg, initial_guess=hint
                )
                if stats is not None:
                    stats["picard_iterations_max"] = max(
                        stats.get("picard_iterations_max", 0), iters
                    )
                v_open, bc_velocity = None, float(schedule.u_out(t + dt))
            else:
                eta_new, eta_dot = eta_update_inflow(eta, t, dt, schedule)
                v_open = 1.0 / float(schedule.rho_in(t + 0.5 * dt))
                bc_velocity = float(schedule.u_in(t + dt))
            v_new, u_new, b_new, b_dot_new = _split_step(
                v, u, b, b_dot, 0.5 * (eta + eta_new), eta_dot, dt, params,
                cfg, bc_velocity, v_open,
            )
        except (ContactEvent, MassDepletionEvent) as event:
            raise type(event)(str(event), time=t + dt * event.fraction) from None
        except StepRejected:
            rejected = True
            if stats is not None:
                stats["rejections"] = stats.get("rejections", 0) + 1
            dt = 0.5 * dt
            continue
        break
    else:
        raise NumericalFailure(
            f"step at t={t:.6g} rejected after {MAX_HALVINGS} halvings (dt={dt:.3e})"
        )

    # grow again from the size that worked; a snap to the phase end
    # is not a stability constraint
    dt_next = cfg.dt_growth * (dt if rejected else dt_base)
    hint = eta_dot if outflow else None
    t_new = t + dt
    # the state checks, in the order the constructors make them
    _check_grid_values(v_new, u_new, eta_new)
    _check_piston_values(b_new, b_dot_new)
    _check_clock(t_new, dt_next, hint)
    return t_new, v_new, u_new, eta_new, b_new, b_dot_new, dt_next, hint


def _state_of(regime: Regime, t: float, v: np.ndarray, u: np.ndarray, eta: float,
              b: float, b_dot: float, dt_next: float,
              hint: Optional[float]) -> SimState:
    """The ``SimState`` of values ``_advance`` returned, built without re-checking.

    ``v`` and ``u`` become read-only, as ``GridState``'s copies are.  ``u`` is
    copied: ``_momentum`` returns a row of its (4, n+1) work array, which a
    kept state would otherwise hold whole.  A ``progress`` callback gets
    every state, so this runs once per step there; at n = 48 it takes 3.0 µs
    against 11.4 µs for the regular constructors, which copy ``v`` too and
    re-check (timeit, one Xeon core).
    """
    u = u.copy()
    v.flags.writeable = False
    u.flags.writeable = False
    grid = object.__new__(GridState)
    vars(grid).update(v=v, u=u, eta=eta)
    piston = object.__new__(PistonState)
    vars(piston).update(b=b, b_dot=b_dot)
    state = object.__new__(SimState)
    vars(state).update(t=t, grid=grid, piston=piston, regime=regime,
                       dt_next=dt_next, eta_dot_hint=hint)
    return state


def step(
    state: SimState,
    schedule: BoundarySchedule,
    params: Params,
    cfg: NumericsConfig,
    stats: Optional[dict] = None,
) -> SimState:
    """Advance one adaptive step, never crossing the end of the state's phase.

    The phase ends at t_star (inflow) or t_end (outflow); a state within
    ``_instant_tol`` of it, where the driver stops, raises ``StateError``.
    dt starts from ``state.dt_next`` capped by the stability bound, halves on
    rejection (CFL violation, vacuum, Picard failure), and the accepted value
    grows by ``cfg.dt_growth`` for the next step.  Contact and depletion
    events propagate with interpolated absolute times.  A stability bound too
    small to move t, below 1e-14 * max(1, |t|), raises ``NumericalFailure``.
    ``stats``, when given, counts rejections and Picard iterations.  A thin
    wrapper over ``_advance``, which checks the new state.
    """
    grid, piston = state.grid, state.piston
    with np.errstate(invalid="ignore"):
        values = _advance(
            state.t, grid.v, grid.u, grid.eta, piston.b, piston.b_dot,
            state.regime == "outflow", state.dt_next, state.eta_dot_hint,
            schedule, params, cfg, stats,
        )
    return _state_of(state.regime, *values)


def whole_horizon_fixed_point(
    initial: SimState,
    schedule: BoundarySchedule,
    params: Params,
    cfg: NumericsConfig,
    horizon: float,
    *,
    max_outer: int = 40,
) -> Tuple[np.ndarray, List[float]]:
    """Outer fixed-point iteration for the outflow mass trajectory.

    A guess trajectory eta^k (piecewise linear, eta(T*) = eta0, slopes in
    [-m, 0] with m = 10 * eta0) is frozen, the flow is solved over
    the horizon with the induced coefficients, and the mapped trajectory

        S(eta^k)(t) = eta0 + integral of u_out / v(boundary)

    becomes the next iterate.  Iteration stops when the discrete C1 norm of
    the change drops below ``cfg.picard_tol``.  Returns the converged
    trajectory as a 2-column array (t, eta) and the residual history.
    Raises NonContractionError when the residual grows three times in a row.
    """
    if initial.regime != "outflow":
        raise StateError("whole-horizon fixed point requires the outflow regime")
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    t0 = initial.t
    eta0 = initial.grid.eta
    m = 10.0 * eta0

    flux0 = float(schedule.u_out(t0)) / initial.grid.v[-1]
    dt_cap = dt_stability_bound(initial.grid.v, eta0, flux0, params, cfg)
    n_steps = max(2, int(round(horizon / cfg.dt_initial)),
                  int(math.ceil(horizon / dt_cap)))
    dt = horizon / n_steps
    times = t0 + dt * np.arange(n_steps + 1)

    eta_traj = np.full(n_steps + 1, eta0)
    slopes = np.zeros(n_steps)
    residuals: List[float] = []
    growth_streak = 0

    for _ in range(max_outer):
        v_boundary = _solve_with_frozen_eta(
            initial, schedule, params, cfg, times, eta_traj, slopes
        )
        slopes_next = np.empty(n_steps)
        for i in range(n_steps):
            raw = float(schedule.u_out(times[i] + 0.5 * dt)) / v_boundary[i]
            slopes_next[i] = min(0.0, max(-m, raw))
        eta_next = eta0 + np.concatenate([[0.0], np.cumsum(dt * slopes_next)])
        residual = float(
            np.max(np.abs(eta_next - eta_traj))
            + np.max(np.abs(slopes_next - slopes))
        )
        residuals.append(residual)
        eta_traj, slopes = eta_next, slopes_next
        if residual < cfg.picard_tol:
            return np.column_stack([times, eta_traj]), residuals
        if len(residuals) >= 2 and residual > residuals[-2]:
            growth_streak += 1
            if growth_streak >= 3:
                raise NonContractionError(
                    "fixed-point residual grew over 3 consecutive iterations "
                    "(horizon too long): " + ", ".join(f"{r:.3e}" for r in residuals),
                    residuals,
                )
        else:
            growth_streak = 0
    raise NonContractionError(
        f"fixed point not converged after {max_outer} outer iterations "
        f"(last residual {residuals[-1]:.3e})",
        residuals,
    )


def _solve_with_frozen_eta(
    initial: SimState,
    schedule: BoundarySchedule,
    params: Params,
    cfg: NumericsConfig,
    times: np.ndarray,
    eta_traj: np.ndarray,
    slopes: np.ndarray,
) -> np.ndarray:
    """Run the flow over the horizon with a frozen mass trajectory.

    Returns the boundary specific volume seen during each step (the value
    the operator S integrates against).
    """
    v, u, eta = initial.grid.v, initial.grid.u, initial.grid.eta
    b, b_dot = initial.piston.b, initial.piston.b_dot
    n_steps = times.size - 1
    dt = float(times[1] - times[0])
    v_boundary = np.empty(n_steps)
    for i in range(n_steps):
        eta_new = float(eta_traj[i + 1])
        if eta_new <= ETA_MIN:
            raise MassDepletionEvent(
                "frozen mass trajectory reaches zero inside the horizon",
                time=float(times[i + 1]),
            )
        bc_velocity = float(schedule.u_out(float(times[i + 1])))
        v, u, b, b_dot = _split_step(
            v, u, b, b_dot, 0.5 * (eta + eta_new), float(slopes[i]), dt, params,
            cfg, bc_velocity,
        )
        eta = eta_new
        v_boundary[i] = v[-1]
    return v_boundary
