"""Runtime monitors for every conserved or bounded quantity of the model.

All quadratures follow one convention: midpoint in the mass coordinate,
trapezoid in time.  The functions here are pure and take one state.  The
run driver's record (``run._Record``) computes the same values for a block
of states at once, with the same elementwise operations in the same order,
and appends them to a columnar ``RunSeries``.  The record takes the
references of ``volume_bound_ratio`` and of the G exponent (v*, eta* and
the piston and velocity terms at T*) from the first outflow state it
records, the anchor row.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Dict, MutableSequence

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

#: columns stored per recorded state.  Each ``<term>_cum`` column is derived:
#: the trapezoid in time of the stored ``<term>_rate`` column.
STORED_COLUMNS = (
    "t", "b", "b_dot", "eta", "mass_eulerian", "energy", "min_v", "max_v",
    "G_exponent", "regime", "u_l2", "b_recon", "v_boundary",
    "dissipation_rate", "damping_rate", "outflux_pressure_rate",
    "boundary_work_rate",
)


class RunSeries:
    """Recorded diagnostics of one run: one column per quantity, nothing else
    (the outflow-start anchor is the first ``outflow`` row)."""

    def __init__(self) -> None:
        # float64 buffers: a row costs 8 bytes per number, not a float object
        self._columns: Dict[str, MutableSequence] = {
            name: array("d") for name in STORED_COLUMNS
        } | {"regime": []}

    def __len__(self) -> int:
        return len(self._columns["t"])

    def extend(self, **columns) -> None:
        """Add recorded states; ``columns`` gives every stored column, one
        value per state."""
        for name, column in self._columns.items():
            column.extend(columns[name])

    def column(self, name: str) -> np.ndarray:
        """One column as an array, stored or derived (``*_cum``)."""
        if not name.endswith("_cum"):
            return np.array(self._columns[name])
        t = np.array(self._columns["t"])
        rate = np.array(self._columns[name[: -len("_cum")] + "_rate"])
        # summed from 0.0 in row order: the same bits as a running total
        steps = 0.5 * np.diff(t) * (rate[:-1] + rate[1:])
        return np.cumsum(np.concatenate(([0.0], steps)))[: t.size]


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


def energy_budget_residual(series: RunSeries) -> float:
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
    e = series.column("energy")
    residual = (
        e + series.column("dissipation_cum") + series.column("damping_cum")
        + series.column("outflux_pressure_cum") - e[0]
        - series.column("boundary_work_cum")
    )
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
