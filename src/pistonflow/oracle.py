"""Independent verification machinery: manufactured solutions and scalar oracles.

Manufactured cases are defined directly in normalized (t, z) variables with
the mass trajectory prescribed, so they exercise the discretization without
the flux feedback loop (that loop is cross-checked separately against the
whole-horizon fixed point).  The closed-form source terms were derived with
a computer-algebra step (see tools/derive_forcings.py) and are guarded here
by a numerical residual check: all derivatives entering the residual are
recomputed by complex-step and high-order finite differences, so a
transcription slip in any forcing shows up immediately.  ``run_forced``
drives the production split step, ``solver._split_step``, with the
manufactured sources, so the convergence studies check the step that runs
use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

# coefficients_alpha_beta, transport_update and momentum_piston_solve stay
# importable from this module although it does not call them:
# perfbench/tracer.py wraps them here
from .coords import coefficients_alpha_beta
from .core import Params
from .solver import (
    NumericsConfig,
    _instant_tol,
    _split_step,
    momentum_piston_solve,
    transport_update,
)

_RESIDUAL_TOL = 1e-10
_FD_STEP = 1e-3  # outer step of the second-derivative stencil


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form exact solution plus the forcings that make it exact.

    All field callables must accept complex arguments (the residual
    evaluator differentiates them by complex step).  The z-fields ``v``,
    ``u``, ``f_v`` and ``f_u`` must also be vectorized over z: ``run_forced``
    samples each of them once per step on the whole grid, and construction
    rejects a field whose value on a z array does not broadcast to that
    array's shape.  A field that ignores z may return a scalar.
    ``pin_piston`` runs the verification with the piston edge Dirichlet-pinned
    to the exact velocity, isolating the interior operators.
    """

    name: str
    params: Params
    v: Callable
    u: Callable
    b: Callable
    b_dot: Callable
    eta: Callable
    f_v: Callable
    f_u: Callable
    f_b: Callable
    pin_piston: bool = False
    freeze_v: bool = False

    def __post_init__(self) -> None:
        zs = np.linspace(0.0, 1.0, 5)
        for name in ("v", "u", "f_v", "f_u"):
            try:
                _on_grid(getattr(self, name), 0.0, zs)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"field {name!r} is not vectorized over z: {exc}"
                ) from exc
        ts = np.linspace(0.0, 1.0, 17)
        mismatch = max(
            abs(complex(self.u(t, 0.0)).real - float(self.b_dot(t))) for t in ts
        )
        if mismatch > 1e-10:
            raise ValueError(
                f"piston compatibility violated: max |u(t,0) - db/dt| = "
                f"{mismatch:.3e}"
            )


def _on_grid(f: Callable, t: float, z: np.ndarray) -> np.ndarray:
    """Real part of the z-field ``f(t, z)`` on the points ``z``, as a new array.

    A field that ignores z returns a scalar; it is broadcast to ``z``.
    """
    return np.broadcast_to(np.real(f(t, z)), z.shape).astype(float)


def _d_complex(f: Callable[[float], complex], x: float, h: float = 1e-30) -> float:
    """First derivative by complex step (exact to roundoff for analytic f)."""
    return complex(f(x + 1j * h)).imag / h


def _d2_z(f: Callable, t: float, z: float, h: float = _FD_STEP) -> float:
    """Second derivative in z: 4th-order stencil over complex-step gradients.

    Each first derivative is exact to roundoff, so the usual cancellation
    floor of real second differences is avoided.
    """

    def u_z(zz: float) -> float:
        return _d_complex(lambda s: f(t, s), zz)

    return (-u_z(z + 2 * h) + 8 * u_z(z + h) - 8 * u_z(z - h) + u_z(z - 2 * h)) / (
        12 * h
    )


def manufactured_residual(
    case: ManufacturedCase, t: float, z: float
) -> Tuple[float, float, float]:
    """PDE residuals of the exact fields with the forcings subtracted.

    All three components must vanish to roughly 1e-10 for a correctly
    transcribed case; every derivative here is numerical, independent of the
    closed forms baked into the forcings.
    """
    p = case.params
    eta = float(case.eta(t))
    eta_dot = _d_complex(case.eta, t)
    alpha = -1.0 / eta
    beta = -z * eta_dot / eta

    v = complex(case.v(t, z)).real
    v_t = _d_complex(lambda s: case.v(s, z), t)
    v_z = _d_complex(lambda s: case.v(t, s), z)
    u_t = _d_complex(lambda s: case.u(s, z), t)
    u_z = _d_complex(lambda s: case.u(t, s), z)
    u_zz = _d2_z(case.u, t, z)

    r_v = v_t + beta * v_z - alpha * u_z - complex(case.f_v(t, z)).real

    visc = p.mu * alpha * alpha * (u_zz / v - u_z * v_z / (v * v))
    press = alpha * (-p.gamma) * v ** (-p.gamma - 1.0) * v_z
    r_u = u_t + beta * u_z - visc + press - complex(case.f_u(t, z)).real

    b = float(case.b(t))
    b_dot = float(case.b_dot(t))
    b_ddot = _d_complex(case.b_dot, t)
    v0 = complex(case.v(t, 0.0)).real
    uz0 = _d_complex(lambda s: case.u(t, s), 0.0)
    traction = v0 ** (-p.gamma) - p.mu * alpha * uz0 / v0
    r_b = (
        b_ddot
        + p.damping_l * b_dot
        + p.stiffness_K * (b - p.b_rest)
        - traction
        - float(case.f_b(t))
    )
    return float(r_v), float(r_u), float(r_b)


def check_case(case: ManufacturedCase, n_points: int = 100,
               t_max: float = 1.0) -> float:
    """Largest residual magnitude over a deterministic (t, z) sample."""
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(n_points):
        t = float(rng.uniform(0.05, t_max))
        z = float(rng.uniform(0.05, 0.95))
        worst = max(worst, *(abs(r) for r in manufactured_residual(case, t, z)))
    if worst > _RESIDUAL_TOL:
        raise ValueError(
            f"case {case.name!r} fails the residual guard: max residual "
            f"{worst:.3e} > {_RESIDUAL_TOL:.0e}"
        )
    return worst


def equilibrium_case() -> ManufacturedCase:
    """Stationary state: uniform v = 1, zero velocity, piston balancing pressure."""
    p = Params()
    b_eq = p.b_rest + 1.0 / p.stiffness_K  # q(1) = 1
    return ManufacturedCase(
        name="equilibrium",
        params=p,
        v=lambda t, z: 1.0 + 0.0 * (t + z),
        u=lambda t, z: 0.0 * (t + z),
        b=lambda t: b_eq + 0.0 * t,
        b_dot=lambda t: 0.0 * t,
        eta=lambda t: 1.0 + 0.0 * t,
        f_v=lambda t, z: 0.0 * (t + z),
        f_u=lambda t, z: 0.0 * (t + z),
        f_b=lambda t: 0.0 * t,
    )


def smooth_case() -> ManufacturedCase:
    """Standard smooth case: shrinking mass, oscillating piston, sheared v.

    v = 1 + c_v t z,  u = a sin(t) (1 - z) + c_u t z (1 - z),
    b = b0 + a (1 - cos t),  eta = eta0 - s t.
    """
    p = Params(mu=0.5, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=1.0)
    eta0, s = 1.0, 0.2
    c_v, a, c_u = 0.1, -0.1, 0.1
    b0 = 1.0

    def v(t, z):
        return 1.0 + c_v * t * z

    def u(t, z):
        return a * np.sin(t) * (1.0 - z) + c_u * t * z * (1.0 - z)

    def f_v(t, z):
        eta = eta0 - s * t
        u_z = -a * np.sin(t) + c_u * t * (1.0 - 2.0 * z)
        return c_v * z + (z * s / eta) * (c_v * t) + u_z / eta

    def f_u(t, z):
        eta = eta0 - s * t
        vv = 1.0 + c_v * t * z
        u_t = a * np.cos(t) * (1.0 - z) + c_u * z * (1.0 - z)
        u_z = -a * np.sin(t) + c_u * t * (1.0 - 2.0 * z)
        u_zz = -2.0 * c_u * t
        v_z = c_v * t
        adv = (z * s / eta) * u_z
        visc = (p.mu / (eta * eta)) * (u_zz / vv - u_z * v_z / (vv * vv))
        press = (p.gamma * c_v * t / eta) * vv ** (-p.gamma - 1.0)
        return u_t + adv - visc + press

    def f_b(t):
        eta = eta0 - s * t
        b = b0 + a * (1.0 - np.cos(t))
        return (
            a * np.cos(t)
            + p.damping_l * a * np.sin(t)
            + p.stiffness_K * (b - p.b_rest)
            - 1.0
            + p.mu * (a * np.sin(t) - c_u * t) / eta
        )

    return ManufacturedCase(
        name="smooth",
        params=p,
        v=v,
        u=u,
        b=lambda t: b0 + a * (1.0 - np.cos(t)),
        b_dot=lambda t: a * np.sin(t),
        eta=lambda t: eta0 - s * t,
        f_v=f_v,
        f_u=f_u,
        f_b=f_b,
    )


def diffusion_case() -> ManufacturedCase:
    """Pure-diffusion sub-case: constant v, decaying sine velocity, pinned ends.

    With eta = 1 and v = 1 the momentum equation reduces to u_t = mu u_zz and
    the exact solution sin(pi z) exp(-mu pi^2 t) needs no momentum forcing;
    the transport forcing keeps v constant against the velocity divergence.
    """
    mu = 1.0
    p = Params(mu=mu, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=1.0)
    b0 = p.b_rest + 1.0 / p.stiffness_K  # q(1) = 1 balances the spring

    def u(t, z):
        return np.sin(np.pi * z) * np.exp(-mu * np.pi ** 2 * t)

    def f_v(t, z):
        return np.pi * np.cos(np.pi * z) * np.exp(-mu * np.pi ** 2 * t)

    def f_b(t):
        return -mu * np.pi * np.exp(-mu * np.pi ** 2 * t) + 0.0 * t

    return ManufacturedCase(
        name="diffusion",
        params=p,
        v=lambda t, z: 1.0 + 0.0 * (t + z),
        u=u,
        b=lambda t: b0 + 0.0 * t,
        b_dot=lambda t: 0.0 * t,
        eta=lambda t: 1.0 + 0.0 * t,
        f_v=f_v,
        f_u=lambda t, z: 0.0 * (t + z),
        f_b=f_b,
        pin_piston=True,
        freeze_v=True,  # isolates the theta-implicit viscous operator
    )


def run_forced(
    case: ManufacturedCase,
    n_cells: int,
    dt: float,
    t_end: float,
    theta: float = 1.0,
) -> Tuple[float, float]:
    """Integrate the forced system; return max-over-time L2 errors of v and u.

    Each step is ``solver._split_step`` at the exact midpoint mass.  ``n_cells``,
    ``dt`` and ``theta`` are checked as a ``NumericsConfig``'s.
    """
    cfg = NumericsConfig(n_cells=n_cells, dt_initial=dt, cfl_advection=1.0,
                         theta_viscous=theta)
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    p = case.params
    z_edges = np.linspace(0.0, 1.0, n_cells + 1)
    z_centers = 0.5 * (z_edges[:-1] + z_edges[1:])
    dz = 1.0 / n_cells

    v = _on_grid(case.v, 0.0, z_centers)
    u = _on_grid(case.u, 0.0, z_edges)
    u[0] = b_dot = float(case.b_dot(0.0))
    b = float(case.b(0.0))

    err_v = 0.0
    err_u = 0.0
    t = 0.0
    while t < t_end - _instant_tol(t_end):
        dt_step = min(dt, t_end - t)
        tm = t + 0.5 * dt_step
        t_new = t + dt_step
        eta_mid = float(case.eta(tm))
        if not eta_mid > 0.0:
            raise ValueError(f"domain collapse: eta must be positive, got {eta_mid}")
        eta_dot = _d_complex(case.eta, tm)
        v_open = complex(case.v(tm, 1.0)).real if eta_dot > 0.0 else None
        pin = float(case.b_dot(t_new)) if case.pin_piston else None
        v, u, b, b_dot = _split_step(
            v, u, b, b_dot, eta_mid, eta_dot, dt_step, p, cfg,
            complex(case.u(t_new, 1.0)).real, v_open,
            source_v=_on_grid(case.f_v, tm, z_centers),
            source_u=_on_grid(case.f_u, tm, z_edges),
            source_piston=float(case.f_b(tm)),
            pin_piston_to=pin,
            v_frozen=_on_grid(case.v, t_new, z_centers) if case.freeze_v else None,
        )
        if case.pin_piston:
            b, b_dot = float(case.b(t_new)), pin
        t = t_new
        v_exact = _on_grid(case.v, t, z_centers)
        u_exact = _on_grid(case.u, t, z_edges)
        err_v = max(err_v, float(np.sqrt(np.sum((v - v_exact) ** 2) * dz)))
        err_u = max(err_u, float(np.sqrt(np.sum((u - u_exact) ** 2) * dz)))
    return err_v, err_u


@dataclass
class ConvergenceResult:
    rows: List[Tuple[int, float, float, float]] = field(default_factory=list)
    order_v: float = 0.0
    order_u: float = 0.0

    def as_csv(self) -> str:
        def pair_order(i: int) -> str:
            prev = max(self.rows[i - 1][2], self.rows[i - 1][3])
            cur = max(self.rows[i][2], self.rows[i][3])
            if cur <= 0.0 or prev <= 0.0:
                return "exact"
            return f"{math.log2(prev / cur):.3f}"

        lines = ["n_cells,dt,err_v,err_u,order"]
        orders = [""] + [pair_order(i) for i in range(1, len(self.rows))]
        for (n, dt, ev, eu), o in zip(self.rows, orders):
            lines.append(f"{n},{dt!r},{ev!r},{eu!r},{o}")
        return "\n".join(lines) + "\n"


def convergence_order(
    case: ManufacturedCase,
    resolutions: Sequence[int],
    *,
    t_end: float = 0.5,
    dt0: Optional[float] = None,
    theta: float = 1.0,
) -> ConvergenceResult:
    """Self-convergence study against the exact fields.

    Each resolution doubles n_cells and halves dt; the fitted slope of
    log2(error) against log2(n) is the observed order.  Raises when the
    errors fail to decrease monotonically.
    """
    if len(resolutions) < 3:
        raise ValueError("at least 3 resolutions are required")
    check_case(case, n_points=40, t_max=max(t_end, 0.2))
    n0 = resolutions[0]
    if dt0 is None:
        dt0 = 0.25 / n0
    result = ConvergenceResult()
    for n in resolutions:
        dt = dt0 * n0 / n
        ev, eu = run_forced(case, n, dt, t_end, theta=theta)
        result.rows.append((n, dt, ev, eu))
    logn = np.log2([r[0] for r in result.rows])

    def fitted_order(column: int, name: str) -> float:
        errs = np.array([r[column] for r in result.rows])
        if np.all(errs < 1e-14):
            return math.inf  # field reproduced exactly (frozen or trivial)
        if np.any(np.diff(errs) >= 0.0):
            table = "\n".join(str(r) for r in result.rows)
            raise RuntimeError(f"non-monotone convergence errors ({name}):\n{table}")
        return float(-np.polyfit(logn, np.log2(errs), 1)[0])

    result.order_v = fitted_order(2, "v")
    result.order_u = fitted_order(3, "u")
    return result


def piston_ode_oracle(
    params: Params,
    forcing: Callable[[float], float],
    b0: float,
    b1: float,
    dt: float,
    t_end: float,
) -> np.ndarray:
    """Scalar damped oscillator integrated exactly like the piston row.

    Explicit in b and in the forcing, implicit in b_dot:
    b_dot_new = (b_dot + dt (forcing(t) - K (b - b_rest))) / (1 + dt l),
    then b_new = b + dt b_dot_new.  Returns a (steps+1, 3) array of
    (t, b, b_dot) for cross-validation of the coupled solver.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n_steps = int(round(t_end / dt))
    out = np.empty((n_steps + 1, 3))
    b, b_dot = float(b0), float(b1)
    out[0] = (0.0, b, b_dot)
    for i in range(n_steps):
        t = i * dt
        b_dot = (b_dot + dt * (float(forcing(t))
                               - params.stiffness_K * (b - params.b_rest))) / (
            1.0 + dt * params.damping_l
        )
        b = b + dt * b_dot
        out[i + 1] = (t + dt, b, b_dot)
    return out
