"""Coordinate systems and the maps between them.

Three frames appear: the physical pipe (0, b), the mass coordinate
(-eta, 0) with the piston at 0, and the normalized interval [0, 1] where
z = y / (-eta) puts the piston at z = 0 and the open end at z = 1.  The
time-dependent coefficients entering the fixed-domain equations are
alpha = -1/eta and beta = -z * eta_dot / eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import GridState, _frozen_array


@dataclass(frozen=True)
class EulerianField:
    """Density and velocity sampled on x in [0, b], x[0] = 0, x[-1] = b."""

    x: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    b: Optional[float] = None

    def __post_init__(self) -> None:
        x = _frozen_array(self.x, "x")
        rho = _frozen_array(self.rho, "rho")
        u = _frozen_array(self.u, "u")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "u", u)
        if x.size < 2:
            raise ValueError("at least 2 sample points are required")
        if not (rho.size == x.size and u.size == x.size):
            raise ValueError("x, rho and u must have matching lengths")
        if x[0] != 0.0:
            raise ValueError(f"x must start at 0, got x[0]={x[0]}")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("x must be strictly increasing")
        if np.any(rho <= 0.0):
            raise ValueError("density must be strictly positive everywhere")
        if self.b is None:
            object.__setattr__(self, "b", float(x[-1]))
        elif abs(self.b - x[-1]) > 1e-12 * max(1.0, abs(self.b)):
            raise ValueError(f"b={self.b} does not match x[-1]={x[-1]}")


@dataclass(frozen=True)
class CoeffPair:
    """Fixed-domain coefficients alpha (scalar) and beta (per z sample).

    ``eta_dot`` is kept alongside: its sign sets the upwind direction.
    """

    alpha: float
    beta: np.ndarray
    eta_dot: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _frozen_array(self.beta, "beta"))
        if not self.alpha < 0.0:
            raise ValueError(f"alpha must be negative, got {self.alpha}")


def mass_coordinate_of(field: EulerianField) -> Tuple[np.ndarray, float]:
    """Mass coordinate chi(x) = -integral of rho from x to b, and total mass.

    Composite trapezoid; chi increases strictly from -eta at the open end to
    exactly 0 at the piston.
    """
    x, rho = field.x, field.rho
    if x.size < 2:
        raise ValueError("at least 2 sample points are required")
    increments = 0.5 * (rho[1:] + rho[:-1]) * np.diff(x)
    cum = np.concatenate([[0.0], np.cumsum(increments)])
    eta = float(cum[-1])
    chi = cum - eta
    if np.any(np.diff(chi) <= 0.0):
        raise ValueError("chi is not strictly increasing (nonpositive density?)")
    return chi, eta


def lagrangian_init_from_eulerian(field: EulerianField, n_cells: int) -> GridState:
    """Sample an Eulerian state onto the staggered normalized grid.

    Cell centers receive v = 1/rho at the matching mass coordinate, edges
    receive the velocity; the inverse map chi^-1 is monotone piecewise-linear
    interpolation, so the round trip with reconstruct_eulerian is second-order
    accurate for smooth data.
    """
    if n_cells < 4:
        raise ValueError(f"n_cells must be at least 4, got {n_cells}")
    chi, eta = mass_coordinate_of(field)
    z_edges = np.linspace(0.0, 1.0, n_cells + 1)
    z_centers = 0.5 * (z_edges[:-1] + z_edges[1:])
    # piston (z=0) sits at y=0 <-> x=b, open end (z=1) at y=-eta <-> x=0
    y_edges = -eta * z_edges
    y_centers = -eta * z_centers
    x_centers = np.interp(y_centers, chi, field.x)
    x_edges = np.interp(y_edges, chi, field.x)
    v = 1.0 / np.interp(x_centers, field.x, field.rho)
    u = np.interp(x_edges, field.x, field.u)
    return GridState(v=v, u=u, eta=eta)


def coefficients_alpha_beta(eta: float, eta_dot: float, z_samples) -> CoeffPair:
    """Coefficients alpha = -1/eta and beta = -z * eta_dot / eta."""
    if not eta > 0.0:
        raise ValueError(f"domain collapse: eta must be positive, got {eta}")
    z = np.asarray(z_samples, dtype=float)
    return CoeffPair(
        alpha=-1.0 / eta,
        beta=-z * (eta_dot / eta),
        eta_dot=float(eta_dot),
    )


def reconstruct_eulerian(state: GridState) -> EulerianField:
    """Rebuild the physical-space field from a grid state.

    Positions follow from accumulating the cell volumes v * dy starting at
    the open end, which is anchored at x = 0; the resulting domain length
    (the sum of all cell volumes) is the reconstruction's own estimate of the
    piston position and is compared against the piston's b by the
    b-consistency monitor.  Density at the edges is 1 over the interpolated
    specific volume.
    """
    n = state.n_cells
    widths = state.v * state.dy
    # open end first: x increases opposite to z
    x = np.concatenate([[0.0], np.cumsum(widths[::-1])])
    v_edges = np.empty(n + 1)
    v_edges[1:-1] = 0.5 * (state.v[:-1] + state.v[1:])
    v_edges[0] = max(1.5 * state.v[0] - 0.5 * state.v[1], 0.5 * state.v[0])
    v_edges[-1] = max(1.5 * state.v[-1] - 0.5 * state.v[-2], 0.5 * state.v[-1])
    rho = 1.0 / v_edges[::-1]
    u = state.u[::-1]
    return EulerianField(x=x, rho=rho, u=u, b=float(x[-1]))
