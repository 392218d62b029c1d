"""Runtime monitors for every conserved or bounded quantity of the model.

All quadratures follow one convention: midpoint in the mass coordinate,
trapezoid in time.  The functions here are pure; the per-step accumulation
lives in the run driver, which stores its results in ``DiagRecord`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .coords import reconstruct_eulerian
from .core import Params, pressure_potential_Q
from .solver import SimState

#: slack factor for the pointwise 1/v exponential bound (discretization error
#: on an analytically exact inequality)
TOL_BOUND = 0.05

#: CSV column order of the emitted time series (stable interface)
CSV_COLUMNS = (
    "t", "b", "b_dot", "eta", "mass_eulerian", "energy",
    "dissipation_cum", "outflux_pressure_cum", "min_v", "max_v", "G_exponent",
)


@dataclass(frozen=True)
class DiagRecord:
    """Per-step diagnostics snapshot.

    The first eleven fields are the emitted CSV columns; the remaining ones
    are internal accumulators needed by the energy budget and the 1/v bound.
    """

    t: float
    b: float
    b_dot: float
    eta: float
    mass_eulerian: float
    energy: float
    dissipation_cum: float
    outflux_pressure_cum: float
    min_v: float
    max_v: float
    G_exponent: float
    regime: str = "inflow"
    u_l2: float = 0.0
    damping_cum: float = 0.0
    boundary_work_cum: float = 0.0
    b_recon: float = 0.0
    v_boundary: float = 0.0


@dataclass
class RunSeries:
    """Recorded diagnostics of one run plus run-level monitor state."""

    records: List[DiagRecord] = field(default_factory=list)
    v_star: Optional[np.ndarray] = None
    eta_star: Optional[float] = None
    t_star_actual: Optional[float] = None
    g_bound_max_ratio: float = 0.0
    b_drift_max: float = 0.0
    flux_accumulated: float = 0.0
    failure_message: Optional[str] = None

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def total_mass_eulerian(state: SimState) -> float:
    """Cross-check of the mass by trapezoid over the reconstructed pipe."""
    fld = reconstruct_eulerian(state.grid)
    return float(np.trapezoid(fld.rho, fld.x))


def velocity_l2(state: SimState) -> float:
    """Discrete L2 norm of the velocity in the mass coordinate."""
    u_c = state.grid.u_centers()
    return float(np.sqrt(np.sum(u_c * u_c) * state.grid.dy))


def energy(state: SimState, params: Params) -> float:
    """Total energy: kinetic + compression potential + piston terms.

    Midpoint quadrature of u^2/2 - Q(v) over the mass coordinate plus
    b_dot^2/2 + (K/2)(b - b_rest)^2.
    """
    grid = state.grid
    u_c = grid.u_centers()
    q_pot = pressure_potential_Q(grid.v, params.gamma)
    fluid = float(np.sum(0.5 * u_c * u_c - q_pot) * grid.dy)
    piston = 0.5 * state.piston.b_dot ** 2
    spring = 0.5 * params.stiffness_K * (state.piston.b - params.b_rest) ** 2
    return fluid + piston + spring


def energy_budget_residual(series: Sequence[DiagRecord]) -> float:
    """Largest normalized defect of the discrete energy budget.

    The budget reads, for every recorded time,

        E(t) + dissipation + l * int(b_dot^2) + outflux_pressure
            = E(0) + boundary work,

    where the boundary work collects the stress-times-velocity and kinetic
    flux terms recorded at the open end.  For a closed pipe the right side
    is E(0) and the residual measures pure discretization error.
    """
    if len(series) < 2:
        raise ValueError("energy budget needs at least 2 records")
    e = np.array([r.energy for r in series])
    diss = np.array([r.dissipation_cum for r in series])
    damp = np.array([r.damping_cum for r in series])
    pout = np.array([r.outflux_pressure_cum for r in series])
    work = np.array([r.boundary_work_cum for r in series])
    residual = e + diss + damp + pout - e[0] - work
    scale = max(abs(e[0]), 1e-300)
    return float(np.max(np.abs(residual)) / scale)


def volume_bound_ratio(
    state: SimState, v_star: np.ndarray, eta_star: float, g_exponent: float
) -> float:
    """Worst ratio of 1/v against its exponential bound, material-matched.

    The normalized coordinate stretches as eta shrinks, so the reference
    profile is sampled at the mass labels of the current cells:
    z' = z * eta(t) / eta(T*).
    """
    grid = state.grid
    n_star = v_star.size
    z_centers_star = (np.arange(n_star) + 0.5) / n_star
    z_matched = grid.z_centers * (grid.eta / eta_star)
    v_ref = np.interp(z_matched, z_centers_star, v_star)
    ratio = (1.0 / grid.v) / ((1.0 / v_ref) * math.exp(g_exponent))
    return float(np.max(ratio))


def contact_time_lower_bound(
    eta0: float,
    u_out: Callable[[float], float],
    v_min_estimate: float,
    *,
    t_star: float = 0.0,
    t_end: float,
) -> float:
    """Earliest time the outflow could exhaust the initial mass.

    Solves  integral from t_star to T of (-u_out) / v_min_estimate = eta0
    by cumulative trapezoid bracketing plus bisection.  Returns +inf when
    the available outflux over [t_star, t_end] cannot deplete eta0.
    """
    if not eta0 > 0.0:
        raise ValueError(f"eta0 must be positive, got {eta0}")
    if not v_min_estimate > 0.0:
        raise ValueError(f"v_min_estimate must be positive, got {v_min_estimate}")
    if not t_end > t_star:
        raise ValueError("t_end must exceed t_star")

    ts = np.linspace(t_star, t_end, 4097)
    flux = np.array([-float(u_out(t)) for t in ts]) / v_min_estimate
    if np.any(flux < -1e-12):
        raise ValueError("u_out must be nonpositive")
    flux = np.maximum(flux, 0.0)
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (flux[1:] + flux[:-1]) * np.diff(ts))]
    )
    if cum[-1] < eta0:
        return math.inf
    idx = int(np.searchsorted(cum, eta0))
    lo, hi = float(ts[idx - 1]), float(ts[idx])
    base = float(cum[idx - 1])

    def depleted(t_mid: float) -> float:
        sub = np.linspace(lo, t_mid, 65)
        f = np.maximum(np.array([-float(u_out(s)) for s in sub]), 0.0)
        return base + float(np.trapezoid(f, sub)) / v_min_estimate - eta0

    a, fb = lo, depleted(hi)
    b = hi
    if fb < 0.0:  # roundoff at the bracket edge
        return b
    for _ in range(100):
        mid = 0.5 * (a + b)
        if depleted(mid) >= 0.0:
            b = mid
        else:
            a = mid
        if b - a < 1e-13 * max(1.0, abs(t_end)):
            break
    return 0.5 * (a + b)
