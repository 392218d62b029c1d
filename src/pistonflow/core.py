"""Constitutive laws, physical parameters, and the shared state types.

Everything here is a plain value object or a pure function; units are
nondimensional throughout and the piston mass is fixed to 1.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

TimeFunction = Callable[[float], float]

#: number of sample points used to validate boundary schedules
_SCHEDULE_SAMPLES = 513


@functools.lru_cache(maxsize=64)
def _z_edges(n_cells: int) -> np.ndarray:
    """Read-only cell-edge coordinates of the normalized grid (shared)."""
    z = np.linspace(0.0, 1.0, n_cells + 1)
    z.flags.writeable = False
    return z


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _check_grid_values(v: np.ndarray, u: np.ndarray, eta: float) -> None:
    """``GridState``'s value checks past the layout and v > 0, shared with
    ``solver._advance``; the bare ufunc reductions skip the per-call cost of
    the ``.max()``/``.all()`` method wrappers."""
    if not (np.maximum.reduce(v) < math.inf
            and np.logical_and.reduce(np.isfinite(u))):
        raise ValueError("v and u must be finite in every cell and edge")
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")


def _check_piston_values(b: float, b_dot: float) -> None:
    """``PistonState``'s checks, shared with ``solver._advance``."""
    if not b > 0.0:
        raise ValueError(f"piston position must be positive, got {b}")
    if not (math.isfinite(b) and math.isfinite(b_dot)):
        raise ValueError(f"piston state must be finite, got {b}, {b_dot}")


@dataclass(frozen=True)
class Params:
    """Physical constants: viscosity, adiabatic exponent, spring and damper.

    ``b_rest`` is the rest position of the spring and may be any finite real;
    everything else must be strictly positive and finite (and ``gamma`` > 1).
    """

    mu: float = 1.0
    gamma: float = 1.4
    stiffness_K: float = 1.0
    damping_l: float = 0.5
    b_rest: float = 1.0

    def __post_init__(self) -> None:
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be > 1 and finite, got {self.gamma}")
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be > 0 and finite, got {self.mu}")
        if not 0.0 < self.stiffness_K < math.inf:
            raise ValueError(
                f"stiffness_K must be > 0 and finite, got {self.stiffness_K}"
            )
        if not 0.0 < self.damping_l < math.inf:
            raise ValueError(f"damping_l must be > 0 and finite, got {self.damping_l}")
        if not math.isfinite(self.b_rest):
            raise ValueError(f"b_rest must be finite, got {self.b_rest}")


@dataclass(frozen=True)
class GridState:
    """Staggered samples of (v, u) on the normalized domain [0, 1].

    ``v`` holds specific volume at the ``n_cells`` cell centers, ``u`` holds
    velocity at the ``n_cells + 1`` cell edges.  Edge 0 is the piston side
    (z = 0) and the last edge is the open end (z = 1).  ``eta`` is the total
    mass, so one cell covers ``eta / n_cells`` in the mass coordinate.
    """

    v: np.ndarray
    u: np.ndarray
    eta: float

    def __post_init__(self) -> None:
        v = _frozen_array(self.v, "v")
        u = _frozen_array(self.u, "u")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "eta", float(self.eta))
        if u.size != v.size + 1:
            raise ValueError(
                f"staggered layout requires len(u) == len(v) + 1, "
                f"got len(u)={u.size}, len(v)={v.size}"
            )
        if not (v.size and v.min() > 0.0):  # NaN fails too
            raise ValueError("specific volume must be positive in every cell")
        _check_grid_values(v, u, self.eta)

    @property
    def n_cells(self) -> int:
        return self.v.size

    @property
    def dz(self) -> float:
        return 1.0 / self.n_cells

    @property
    def dy(self) -> float:
        """Mass-coordinate cell width."""
        return self.eta / self.n_cells

    @property
    def z_edges(self) -> np.ndarray:
        return _z_edges(self.n_cells)

    @property
    def z_centers(self) -> np.ndarray:
        e = self.z_edges
        return 0.5 * (e[:-1] + e[1:])

    def u_centers(self) -> np.ndarray:
        return 0.5 * (self.u[:-1] + self.u[1:])


@dataclass(frozen=True)
class PistonState:
    """Piston position and velocity.  The position must stay positive."""

    b: float
    b_dot: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "b_dot", float(self.b_dot))
        _check_piston_values(self.b, self.b_dot)


@dataclass(frozen=True)
class BoundarySchedule:
    """Open-end boundary data: inflow on [0, t_star), outflow on [t_star, t_end].

    ``u_in`` and ``rho_in`` are required whenever the inflow phase is nonempty
    (t_star > 0), ``u_out`` whenever the outflow phase is nonempty
    (t_star < t_end).  Finiteness and sign are checked by dense sampling:
    every sample must be finite, rho_in strictly positive and u_out
    nonpositive; u_in may touch zero (a closed pipe), which only triggers a
    warning.
    """

    t_star: float
    t_end: float
    u_in: Optional[TimeFunction] = None
    rho_in: Optional[TimeFunction] = None
    u_out: Optional[TimeFunction] = None

    def __post_init__(self) -> None:
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not 0.0 <= self.t_star <= self.t_end:
            raise ValueError(
                f"t_star must lie in [0, t_end], got t_star={self.t_star}, "
                f"t_end={self.t_end}"
            )
        if self.t_star > 0.0:
            if self.u_in is None or self.rho_in is None:
                raise ValueError("u_in and rho_in are required when t_star > 0")
            ts = np.linspace(0.0, self.t_star, _SCHEDULE_SAMPLES)
            uin = np.array([float(self.u_in(t)) for t in ts])
            rin = np.array([float(self.rho_in(t)) for t in ts])
            for name, samples in (("u_in", uin), ("rho_in", rin)):
                if not np.isfinite(samples).all():
                    raise ValueError(f"{name} must be finite on [0, t_star)")
            if np.any(uin < 0.0):
                raise ValueError("u_in must be nonnegative on [0, t_star)")
            if np.any(uin == 0.0):
                warnings.warn(
                    "u_in touches zero; strict positivity of the inflow "
                    "velocity is relaxed to >= 0",
                    stacklevel=2,
                )
            if np.any(rin <= 0.0):
                raise ValueError("rho_in must be strictly positive on [0, t_star)")
        if self.t_star < self.t_end:
            if self.u_out is None:
                raise ValueError("u_out is required when t_star < t_end")
            ts = np.linspace(self.t_star, self.t_end, _SCHEDULE_SAMPLES)
            uout = np.array([float(self.u_out(t)) for t in ts])
            if not np.isfinite(uout).all():
                raise ValueError("u_out must be finite on [t_star, t_end]")
            if np.any(uout > 0.0):
                raise ValueError("u_out must be nonpositive on [t_star, t_end]")


def _require_positive_volume(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if (arr <= 0.0).any():
        raise ValueError("specific volume must be positive")
    return arr


def pressure_q(v, gamma: float):
    """Pressure as a function of specific volume, q(v) = v**(-gamma)."""
    arr = _require_positive_volume(v)
    return arr ** (-gamma)


def pressure_potential_Q(v, gamma: float):
    """Potential of the pressure law, Q(v) = v**(1-gamma) / (1-gamma).

    Always negative for gamma > 1; its derivative in v equals pressure_q.
    """
    if not gamma > 1.0:
        raise ValueError(f"gamma must be > 1, got {gamma}")
    arr = _require_positive_volume(v)
    return arr ** (1.0 - gamma) / (1.0 - gamma)
