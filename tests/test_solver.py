"""Solver operations: transport, momentum+piston, mass updates, stepping."""

import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from pistonflow import (
    BoundarySchedule,
    GridState,
    MassDepletionEvent,
    NumericsConfig,
    Params,
    PistonState,
    SimState,
    StateError,
)
from pistonflow.coords import coefficients_alpha_beta
from pistonflow.core import _z_edges, pressure_q
from pistonflow.solver import (
    ETA_MIN,
    CflViolation,
    PicardNonConvergence,
    StepRejected,
    VacuumError,
    _outflow_boundary_volume,
    _transport,
    dt_stability_bound,
    eta_update_inflow,
    eta_update_outflow_picard,
    momentum_piston_solve,
    step,
    transport_update,
    whole_horizon_fixed_point,
)


def closed_schedule(t_end=10.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return BoundarySchedule(
            t_star=t_end, t_end=t_end, u_in=lambda t: 0.0, rho_in=lambda t: 1.0
        )


def uniform_grid(n, v=1.0, u=0.0, eta=1.0):
    return GridState(v=np.full(n, float(v)), u=np.full(n + 1, float(u)), eta=eta)


def equilibrium_state(n=16, v_bar=1.0, eta=2.0, params=None):
    """Stationary state: q(v_bar) balances the spring exactly."""
    p = params or Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5,
                         b_rest=1.0)
    b = p.b_rest + float(pressure_q(v_bar, p.gamma)) / p.stiffness_K
    grid = uniform_grid(n, v=v_bar, eta=eta)
    return SimState(
        t=0.0, grid=grid, piston=PistonState(b=b, b_dot=0.0),
        regime="inflow", dt_next=1e-3,
    ), p


def vector_picard(grid, t, dt, schedule, cfg, residual_history=None,
                  initial_guess=None):
    """Reference: the outflow Picard loop as it was before it went scalar.

    Each iteration builds the coefficients, transports every cell and reads
    only the boundary cell.
    """
    tm = t + 0.5 * dt
    u_out = float(schedule.u_out(tm))
    v, u, eta = grid.v, grid.u, grid.eta
    z_edges = grid.z_edges
    eta_dot = u_out / v[-1] if initial_guess is None else float(initial_guess)
    if eta_dot > 0.0:
        eta_dot = 0.0

    def _depletion_check(eta_new, eta_dot_used):
        if eta_new <= ETA_MIN:
            frac = (eta - ETA_MIN) / max(eta - eta_new, 1e-300)
            raise MassDepletionEvent(
                f"total mass exhausted (eta_dot={eta_dot_used:.3e})",
                fraction=min(max(frac, 0.0), 1.0),
            )

    for iteration in range(1, cfg.picard_max_iter + 1):
        eta_new = eta + dt * eta_dot
        _depletion_check(eta_new, eta_dot)
        coeffs = coefficients_alpha_beta(0.5 * (eta + eta_new), eta_dot, z_edges)
        provisional = _transport(
            v, u, coeffs.alpha, coeffs.beta, eta_dot, dt, cfg.cfl_advection
        )
        eta_dot_next = u_out / provisional[-1]
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


def picard_outcome(picard, *args, **kwargs):
    """Returns, residual history or exception of one call, floats as bits."""
    history = []
    try:
        result = picard(*args, residual_history=history, **kwargs)
    except (ValueError, StepRejected, MassDepletionEvent) as exc:
        fraction = getattr(exc, "fraction", None)
        return type(exc), str(exc), None if fraction is None else fraction.hex()
    eta_new, eta_dot, iters = result
    return (float(eta_new).hex(), float(eta_dot).hex(), iters,
            [float(r).hex() for r in history])


def random_outflow_case(n, flux, seed):
    """A seeded random outflow state (v, u, eta), a step dt and a flux.

    ``flux`` is "zero", "negative-zero", "small", or "near-cfl" (|beta| at
    the open end 0.999 of the advective CFL bound 0.5 * dz / dt).
    """
    rng = np.random.default_rng([n, seed])
    dz = 1.0 / n
    v = 0.5 + rng.random(n)
    u = 0.1 * rng.standard_normal(n + 1)
    eta = 0.5 + 1.5 * rng.random()
    dt = 0.2 * dz * (0.5 + rng.random())
    if flux == "near-cfl":
        ratio = -0.999 * 0.5 * dz / dt
        eta_dot = ratio * eta / (1.0 - 0.5 * dt * ratio)
    else:
        eta_dot = {"zero": 0.0, "negative-zero": -0.0, "small": -1e-3 * eta}[flux]
    return v, u, eta, dt, eta_dot


OUTFLOW_SIZES = [4, 48, 1024, 4096]
OUTFLOW_FLUXES = ["zero", "negative-zero", "small", "near-cfl"]


class TestTransport:
    def test_zero_divergence_zero_advection(self):
        g = uniform_grid(16, v=1.3, u=0.7)
        c = coefficients_alpha_beta(1.0, 0.0, g.z_edges)
        out = transport_update(g, c, 0.01)
        assert np.array_equal(out.v, g.v)

    def test_uniform_compression(self):
        # u(z) = z at the edges, alpha = -1: every cell loses dt exactly
        n = 16
        g = GridState(v=np.ones(n), u=np.linspace(0.0, 1.0, n + 1), eta=1.0)
        c = coefficients_alpha_beta(1.0, 0.0, g.z_edges)
        out = transport_update(g, c, 0.01)
        assert np.allclose(out.v, 1.0 - 0.01, atol=1e-15)

    def test_cfl_violation_raises(self):
        g = uniform_grid(16)
        c = coefficients_alpha_beta(1.0, -2.0, g.z_edges)  # max|beta| = 2
        with pytest.raises(CflViolation):
            transport_update(g, c, dt=0.5, cfl_advection=0.5)

    def test_vacuum_raises(self):
        n = 8
        g = GridState(v=0.01 * np.ones(n), u=np.linspace(0.0, 1.0, n + 1), eta=1.0)
        c = coefficients_alpha_beta(1.0, 0.0, g.z_edges)
        with pytest.raises(VacuumError):
            transport_update(g, c, dt=0.05)

    def test_inflow_boundary_value_used(self):
        # forward upwind (eta_dot > 0) pulls the prescribed value into the
        # last cell; with uniform interior the only change is at the boundary
        n = 16
        g = uniform_grid(n, v=1.0, u=0.0)
        c = coefficients_alpha_beta(1.0, 0.5, g.z_edges)
        out = transport_update(g, c, dt=0.01, v_open_end=2.0)
        assert np.allclose(out.v[:-1], 1.0, atol=1e-15)
        beta_last = -(1.0 - 0.5 * g.dz) * 0.5  # beta at the last cell center
        expected = 1.0 + 0.01 * (-beta_last) * (2.0 - 1.0) / (0.5 * g.dz)
        assert out.v[-1] == pytest.approx(expected, rel=1e-12)

    def test_non_finite_result_raises_value_error(self):
        g = uniform_grid(16)
        c = coefficients_alpha_beta(1.0, 0.5, g.z_edges)
        with pytest.raises(ValueError, match="positive"):
            transport_update(g, c, dt=0.01, v_open_end=float("nan"))


class TestMomentumPiston:
    def test_non_finite_system_raises_value_error(self):
        state, p = equilibrium_state()
        c = coefficients_alpha_beta(state.grid.eta, 0.0, state.grid.z_edges)
        with pytest.raises(ValueError, match="infs or NaNs"):
            momentum_piston_solve(
                state.grid, c, state.piston, p,
                bc_open_end_velocity=float("nan"), dt=1e-2,
            )

    def test_equilibrium_fixed_point(self):
        state, p = equilibrium_state()
        c = coefficients_alpha_beta(state.grid.eta, 0.0, state.grid.z_edges)
        u_new, piston = momentum_piston_solve(
            state.grid, c, state.piston, p, bc_open_end_velocity=0.0, dt=1e-2
        )
        assert np.max(np.abs(u_new)) < 1e-12
        assert piston.b == state.piston.b
        assert piston.b_dot == 0.0

    def test_against_independent_dense_solver(self):
        # same discretization assembled densely and solved by numpy
        rng = np.random.default_rng(3)
        n = 24
        v = 0.8 + 0.4 * rng.random(n)
        u = np.sin(np.linspace(0.0, np.pi, n + 1)) + 0.1 * rng.random(n + 1)
        eta, dt, bc = 1.7, 4e-3, 0.0
        p = Params(mu=50.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=1.0)
        grid = GridState(v=v, u=u, eta=eta)
        piston = PistonState(b=2.0, b_dot=float(u[0]))
        c = coefficients_alpha_beta(eta, 0.0, grid.z_edges)
        u_new, _ = momentum_piston_solve(grid, c, piston, p, bc, dt, theta=1.0)

        dz = grid.dz
        alpha = c.alpha
        q = v ** (-p.gamma)
        lam = p.mu * alpha * alpha / dz**2
        A = np.zeros((n + 1, n + 1))
        rhs = np.zeros(n + 1)
        g = p.mu * alpha / (dz * v[0])
        A[0, 0] = 1.0 + dt * p.damping_l - dt * g
        A[0, 1] = dt * g
        rhs[0] = piston.b_dot + dt * (
            q[0] - p.stiffness_K * (piston.b - p.b_rest)
        )
        for j in range(1, n):
            A[j, j - 1] = -dt * lam / v[j - 1]
            A[j, j] = 1.0 + dt * lam * (1.0 / v[j] + 1.0 / v[j - 1])
            A[j, j + 1] = -dt * lam / v[j]
            rhs[j] = u[j] - dt * alpha * (q[j] - q[j - 1]) / dz
        A[n, n] = 1.0
        rhs[n] = bc
        expected = np.linalg.solve(A, rhs)
        assert np.allclose(u_new, expected, atol=1e-12)

    def test_large_mu_flattens_velocity(self):
        n = 32
        g = GridState(
            v=np.ones(n), u=np.sin(np.pi * np.linspace(0, 1, n + 1)), eta=1.0
        )
        p = Params(mu=1e6, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=1.0)
        c = coefficients_alpha_beta(1.0, 0.0, g.z_edges)
        u_new, _ = momentum_piston_solve(
            g, c, PistonState(b=1.0, b_dot=0.0), p, 0.0, dt=1e-2,
            pin_piston_to=0.0,
        )
        assert np.max(np.abs(u_new)) < 1e-3

    def test_one_step_matches_scalar_oscillator(self):
        # negligible viscosity decouples the piston row from the fluid; one
        # step must reproduce the explicit-in-b, implicit-in-b_dot update
        from pistonflow.oracle import piston_ode_oracle

        p = Params(mu=1e-30, gamma=1.4, stiffness_K=4.0, damping_l=0.5,
                   b_rest=1.0)
        v_bar, eta, dt = 1.2, 1.5, 2e-3
        grid = uniform_grid(20, v=v_bar, u=0.0, eta=eta)
        piston = PistonState(b=1.7, b_dot=0.3)
        grid = GridState(v=grid.v, u=np.where(
            np.arange(21) == 0, 0.3, 0.0), eta=eta)
        c = coefficients_alpha_beta(eta, 0.0, grid.z_edges)
        _, piston_new = momentum_piston_solve(grid, c, piston, p, 0.0, dt)
        forcing = float(pressure_q(v_bar, p.gamma))
        oracle = piston_ode_oracle(p, lambda t: forcing, b0=1.7, b1=0.3,
                                   dt=dt, t_end=dt)
        assert piston_new.b_dot == pytest.approx(oracle[1, 2], abs=1e-14)
        assert piston_new.b == pytest.approx(oracle[1, 1], abs=1e-14)


class TestEtaInflow:
    def test_closed_end(self):
        s = closed_schedule()
        eta_new, eta_dot = eta_update_inflow(2.0, 0.0, 0.1, s)
        assert eta_new == 2.0 and eta_dot == 0.0

    def test_constant_flux(self):
        s = BoundarySchedule(t_star=1.0, t_end=1.0, u_in=lambda t: 1.0,
                             rho_in=lambda t: 2.0)
        eta_new, eta_dot = eta_update_inflow(1.0, 0.0, 0.1, s)
        assert eta_new == pytest.approx(1.2, abs=1e-15)
        assert eta_dot == 2.0

    @pytest.mark.filterwarnings("ignore:u_in touches zero")
    def test_linear_flux_accumulates_exactly(self):
        # u_in = t, rho_in = 1: midpoint rule is exact for a linear integrand
        s = BoundarySchedule(t_star=1.0, t_end=1.0, u_in=lambda t: t,
                             rho_in=lambda t: 1.0)
        eta, t, dt = 1.0, 0.0, 0.01
        while t < 1.0 - 1e-12:
            eta, _ = eta_update_inflow(eta, t, dt, s)
            t += dt
        assert eta == pytest.approx(1.5, abs=1e-12)


class TestEtaOutflowPicard:
    def test_zero_outflow_one_iteration(self):
        g = uniform_grid(16)
        s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: 0.0)
        eta_new, eta_dot, iters = eta_update_outflow_picard(
            g, 0.0, 1e-2, s, NumericsConfig(n_cells=16)
        )
        assert eta_new == 1.0 and eta_dot == 0.0 and iters == 1

    def test_no_feedback_exact_flux(self):
        # uniform v and uniform u: the provisional boundary value stays 1
        g = uniform_grid(16, v=1.0, u=-0.5)
        s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: -0.5)
        eta_new, eta_dot, iters = eta_update_outflow_picard(
            g, 0.0, 1e-2, s, NumericsConfig(n_cells=16)
        )
        assert eta_dot == -0.5
        assert eta_new == pytest.approx(1.0 - 0.5e-2, abs=1e-15)
        assert iters == 1

    def test_geometric_contraction(self):
        # perturbed state: successive flux corrections shrink geometrically
        n = 32
        z_c = (np.arange(n) + 0.5) / n
        v = 1.0 + 0.2 * np.sin(2 * np.pi * z_c)
        u = -0.4 * np.linspace(0.0, 1.0, n + 1) ** 2
        g = GridState(v=v, u=u, eta=1.0)
        s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: -0.4)
        residuals = []
        eta_new, eta_dot, iters = eta_update_outflow_picard(
            g, 0.0, 5e-3, s, NumericsConfig(n_cells=n, picard_tol=1e-14),
            residual_history=residuals,
        )
        assert iters >= 2
        ratios = [residuals[i + 1] / residuals[i]
                  for i in range(len(residuals) - 1) if residuals[i] > 0]
        assert all(r < 1.0 for r in ratios)

    def test_geometric_contraction_count_pinned(self):
        # test_geometric_contraction's case, pinned bit for bit: a change to
        # the Picard or transport arithmetic moves the count or the values
        n = 32
        z_c = (np.arange(n) + 0.5) / n
        g = GridState(v=1.0 + 0.2 * np.sin(2 * np.pi * z_c),
                      u=-0.4 * np.linspace(0.0, 1.0, n + 1) ** 2, eta=1.0)
        s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: -0.4)
        eta_new, eta_dot, iters = eta_update_outflow_picard(
            g, 0.0, 5e-3, s, NumericsConfig(n_cells=n, picard_tol=1e-14)
        )
        assert iters == 6
        assert (eta_new, eta_dot) == (0.9979630668646462, -0.4073866270707662)

    def test_depletion_event(self):
        g = uniform_grid(8, v=1.0, u=-1.0, eta=0.005)
        s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: -1.0)
        with pytest.raises(MassDepletionEvent):
            eta_update_outflow_picard(g, 0.0, 1e-2, s, NumericsConfig(n_cells=8))

    @pytest.mark.parametrize("flux", OUTFLOW_FLUXES)
    @pytest.mark.parametrize("n", OUTFLOW_SIZES)
    def test_boundary_volume_is_the_transports_last_cell(self, n, flux):
        dz = 1.0 / n
        z = _z_edges(n)
        for seed in range(64):
            v, u, eta, dt, eta_dot = random_outflow_case(n, flux, seed)
            eta_mid = 0.5 * (eta + (eta + dt * eta_dot))
            c = coefficients_alpha_beta(eta_mid, eta_dot, z)
            expected = _transport(v, u, c.alpha, c.beta, eta_dot, dt, 0.5)[-1]
            got = _outflow_boundary_volume(
                float(v[-1]), (float(v[-1]) - float(v[-2])) / dz,
                float(u[-1]) - float(u[-2]), float(z[-2]), dz, eta_mid,
                eta_dot / eta_mid, dt,
            )
            assert got.hex() == float(expected).hex()

    @pytest.mark.parametrize("flux", OUTFLOW_FLUXES)
    @pytest.mark.parametrize("n", OUTFLOW_SIZES)
    def test_matches_the_vector_reference(self, n, flux):
        cfg = NumericsConfig(n_cells=n)
        for seed in range(4):
            v, u, eta, dt, eta_dot = random_outflow_case(n, flux, seed)
            grid = GridState(v=v, u=u, eta=eta)
            u_out = eta_dot * float(v[-1])
            s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: u_out)
            for guess in (None, eta_dot, 0.9 * eta_dot - 1e-6, 0.5):
                for step_dt in (dt, 0.5 * dt):
                    expected = picard_outcome(vector_picard, grid, 0.0, step_dt, s,
                                              cfg, initial_guess=guess)
                    got = picard_outcome(eta_update_outflow_picard, grid, 0.0,
                                         step_dt, s, cfg, initial_guess=guess)
                    assert got == expected, (seed, guess, step_dt)

    def test_cfl_violation_rejects_with_the_same_message(self):
        g = uniform_grid(8, v=1.0, u=-1.0)
        s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: -1.0)
        cfg = NumericsConfig(n_cells=8)
        got = picard_outcome(eta_update_outflow_picard, g, 0.0, 0.1, s, cfg)
        assert got[0] is CflViolation
        assert got == picard_outcome(vector_picard, g, 0.0, 0.1, s, cfg)

    def test_boundary_vacuum_rejects_naming_the_last_cell(self):
        # a strong expansion at the open end empties the boundary cell
        n = 8
        u = np.zeros(n + 1)
        u[-1] = 10.0
        g = GridState(v=np.full(n, 0.5), u=u, eta=1.0)
        s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: -0.1)
        cfg = NumericsConfig(n_cells=n)
        got = picard_outcome(eta_update_outflow_picard, g, 0.0, 1e-2, s, cfg)
        assert got[0] is VacuumError
        assert "(cell 7, v=-" in got[1]
        assert got == picard_outcome(vector_picard, g, 0.0, 1e-2, s, cfg)

    def test_nan_flux_is_a_domain_collapse(self):
        # u_out is NaN only at the step midpoint, which the schedule's
        # sampling misses
        s = BoundarySchedule(t_star=0.0, t_end=1.0,
                             u_out=lambda t: float("nan") if t == 5e-3 else -0.1)
        g = uniform_grid(8)
        cfg = NumericsConfig(n_cells=8)
        got = picard_outcome(eta_update_outflow_picard, g, 0.0, 1e-2, s, cfg)
        assert got == (ValueError, "domain collapse: eta must be positive, got nan",
                       None)
        assert got == picard_outcome(vector_picard, g, 0.0, 1e-2, s, cfg)


class TestStep:
    def test_equilibrium_is_discrete_steady_state(self):
        state, p = equilibrium_state(n=32)
        s = closed_schedule(t_end=1e6)  # dt grows to the CFL cap; leave room
        cfg = NumericsConfig(n_cells=32, dt_initial=1e-3)
        ref = state
        for _ in range(1000):
            state = step(state, s, p, cfg)
        assert np.array_equal(state.grid.v, ref.grid.v)
        assert np.array_equal(state.grid.u, ref.grid.u)
        assert state.piston.b == ref.piston.b
        assert state.piston.b_dot == 0.0
        assert state.grid.eta == ref.grid.eta

    def test_closed_end_mass_constant(self):
        state, p = equilibrium_state(n=16)
        # perturb the piston so the fluid actually moves
        state = SimState(
            t=0.0, grid=state.grid,
            piston=PistonState(b=state.piston.b + 0.05, b_dot=0.0),
            regime="inflow", dt_next=1e-3,
        )
        s = closed_schedule(t_end=2.0)
        cfg = NumericsConfig(n_cells=16, dt_initial=1e-3)
        eta0 = state.grid.eta
        while state.t < 2.0 - 1e-12:
            state = step(state, s, p, cfg)
            assert abs(state.grid.eta - eta0) < 1e-13

    def test_perturbed_piston_converges_to_coupled_root(self):
        # equilibrium with the mass held fixed: K (b - b_rest) = q(b / eta)
        p = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=1.0, b_rest=1.0)
        n, eta = 64, 2.0
        root = brentq(
            lambda b: p.stiffness_K * (b - p.b_rest)
            - float(pressure_q(b / eta, p.gamma)),
            1.5, 3.0, xtol=1e-12,
        )
        grid = uniform_grid(n, v=1.08, eta=eta)
        state = SimState(
            t=0.0, grid=grid, piston=PistonState(b=2.16, b_dot=0.0),
            regime="inflow", dt_next=1e-3,
        )
        s = closed_schedule(t_end=40.0)
        cfg = NumericsConfig(n_cells=n, dt_initial=1e-3)
        while state.t < 40.0 - 1e-12:
            state = step(state, s, p, cfg)
        assert abs(state.piston.b_dot) < 1e-6
        assert state.piston.b == pytest.approx(root, abs=2e-3)

    def test_interior_vacuum_under_the_converged_flux_halves_dt(self):
        # a jump of u across cell 3 empties it at the stability bound; the
        # Picard iteration reads only the boundary cell and converges, so
        # the step's full transport is what rejects the step
        n = 8
        v = np.ones(n)
        v[3] = 0.5
        u = np.zeros(n + 1)
        u[4:] = 3.0
        grid = GridState(v=v, u=u, eta=1.0)
        p = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=0.0)
        s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: -0.2)
        cfg = NumericsConfig(n_cells=n)
        state = SimState(t=0.0, grid=grid, piston=PistonState(b=1.0, b_dot=0.0),
                         regime="outflow", dt_next=1.0)
        dt = dt_stability_bound(grid, -0.2, p, cfg)
        eta_new, eta_dot, _ = eta_update_outflow_picard(grid, 0.0, dt, s, cfg)
        c = coefficients_alpha_beta(0.5 * (1.0 + eta_new), eta_dot, grid.z_edges)
        with pytest.raises(VacuumError, match=r"\(cell 3,"):
            _transport(v, u, c.alpha, c.beta, eta_dot, dt, cfg.cfl_advection)
        stats = {}
        new = step(state, s, p, cfg, stats)
        assert stats["rejections"] == 1
        assert new.t == 0.5 * dt
        assert new.grid.v.min() > 0.0

    def test_velocity_continuity_every_step(self):
        state, p = equilibrium_state(n=16)
        state = SimState(
            t=0.0, grid=state.grid,
            piston=PistonState(b=state.piston.b + 0.1, b_dot=0.0),
            regime="inflow", dt_next=1e-3,
        )
        s = closed_schedule(t_end=0.5)
        cfg = NumericsConfig(n_cells=16, dt_initial=1e-3)
        while state.t < 0.5 - 1e-12:
            state = step(state, s, p, cfg)
            assert state.grid.u[0] == state.piston.b_dot

    def test_no_time_left_exactly_where_the_driver_stops(self):
        # run_simulation steps while t < t_end - 1e-12 max(1, t_end)
        state, p = equilibrium_state(n=16)
        s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: 0.0)
        cfg = NumericsConfig(n_cells=16)

        def outflow_at(t):
            return SimState(t=t, grid=state.grid, piston=state.piston,
                            regime="outflow", dt_next=1e-3)

        with pytest.raises(StateError, match="no time left"):
            step(outflow_at(1.0 - 5e-13), s, p, cfg)
        new = step(outflow_at(1.0 - 1e-9), s, p, cfg)
        assert new.t == pytest.approx(1.0, abs=1e-15)


class TestSwitchRegime:
    @pytest.mark.filterwarnings("ignore:u_in touches zero")
    def test_compatible_data_keeps_diagnostics_continuous(self):
        # u_in ramps to 0 at t_star and u_out ramps from 0: the switch pair
        # of records carries identical state, and the cumulative budget
        # terms do not jump
        from pistonflow.run import run_simulation

        p = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5,
                   b_rest=0.0)
        t_star = 0.25
        s = BoundarySchedule(
            t_star=t_star, t_end=0.5,
            u_in=lambda t: 0.3 * max(0.0, 1.0 - t / t_star),
            rho_in=lambda t: 1.0,
            u_out=lambda t: -0.3 * max(0.0, (t - t_star) / t_star),
        )
        cfg = NumericsConfig(n_cells=32, dt_initial=2e-3, dt_growth=1.0)
        grid = uniform_grid(32, v=1.0, eta=1.0)
        state = SimState(t=0.0, grid=grid, piston=PistonState(b=1.0, b_dot=0.0),
                         regime="inflow", dt_next=2e-3)
        result = run_simulation(p, cfg, s, state)
        assert result.status == "completed"
        series = result.series
        regime = series.column("regime")
        pairs = np.flatnonzero((regime[:-1] == "inflow") & (regime[1:] == "outflow"))
        assert len(pairs) == 1
        before, after = pairs[0], pairs[0] + 1
        assert series.column("t")[after] == series.column("t")[before]
        for col in ("b", "b_dot", "eta", "energy", "min_v", "max_v",
                    "dissipation_cum", "boundary_work_cum"):
            values = series.column(col)
            assert values[after] == values[before], col


class TestWholeHorizonFixedPoint:
    def _outflow_state(self, n=32):
        grid = uniform_grid(n, v=1.0, eta=1.0)
        p = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=0.0)
        return SimState(
            t=0.0, grid=grid, piston=PistonState(b=1.0, b_dot=0.0),
            regime="outflow", dt_next=1e-3,
        ), p

    def test_zero_outflow_converges_immediately(self):
        state, p = self._outflow_state()
        s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: 0.0)
        cfg = NumericsConfig(n_cells=32, dt_initial=1e-3)
        traj, residuals = whole_horizon_fixed_point(state, s, p, cfg, 0.05)
        assert len(residuals) == 1
        assert np.all(traj[:, 1] == 1.0)

    def test_requires_outflow_regime(self):
        state, p = equilibrium_state()
        s = BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: 0.0)
        with pytest.raises(StateError):
            whole_horizon_fixed_point(
                state, s, p, NumericsConfig(n_cells=16), 0.05
            )

    def test_long_horizon_raises_terminal_event(self):
        # violating the short-horizon precondition must fail loudly: either
        # the frozen-mass run crashes the piston or the mapped trajectory
        # runs out of mass
        from pistonflow import ContactEvent

        state, p = self._outflow_state(n=16)
        s = BoundarySchedule(t_star=0.0, t_end=2.0, u_out=lambda t: -5.0)
        cfg = NumericsConfig(n_cells=16, dt_initial=1e-2)
        with pytest.raises((MassDepletionEvent, ContactEvent)):
            whole_horizon_fixed_point(state, s, p, cfg, 1.5)
