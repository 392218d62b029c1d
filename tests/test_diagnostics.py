"""Monitored quantities: mass, energy, budget, exponential bound, T3."""

import math
import warnings

import numpy as np
import pytest

from pistonflow import (
    BoundarySchedule,
    GridState,
    NumericsConfig,
    Params,
    PistonState,
    SimState,
    StateError,
    contact_time_lower_bound,
    energy,
    energy_budget_residual,
    total_mass_eulerian,
)
from pistonflow.diagnostics import STORED_COLUMNS, RunSeries, velocity_l2
from pistonflow.run import _summarize, run_simulation


def make_state(v, u, eta, b, b_dot=0.0, regime="inflow", dt_next=1e-3):
    u = np.array(u, dtype=float)
    u[0] = b_dot  # velocity continuity at the piston edge
    grid = GridState(v=np.asarray(v, dtype=float), u=u, eta=eta)
    return SimState(t=0.0, grid=grid, piston=PistonState(b=b, b_dot=b_dot),
                    regime=regime, dt_next=dt_next)


def series_of(rows):
    """A RunSeries of hand-written rows; columns a row omits are 0.0."""
    series = RunSeries()
    for row in rows:
        series.append(**{**dict.fromkeys(STORED_COLUMNS, 0.0), **row})
    return series


def exponent_G(series, state, params, rows=None):
    """Exponent of the pointwise lower bound on the specific volume.

    The from-series oracle for the runner's incremental G column, evaluated
    from the outflow history in the first ``rows`` recorded rows (all by
    default) and the current state:

        G(t) = (b_dot(t) - b_dot(T*) + l (b(t) - b(T*))
               + int_{T*}^t K (b - b_rest) ds
               + sqrt(eta(T*)) (||u(t)||_2 + ||u(T*)||_2)) / mu
    """
    if state.regime != "outflow":
        raise StateError("exponent_G is defined in the outflow regime only")
    outflow = series.column("regime")[:rows] == "outflow"
    u_now = velocity_l2(state)
    if not outflow.any():
        # the state itself is the outflow anchor (t = T*)
        return 2.0 * math.sqrt(state.grid.eta) * u_now / params.mu
    t, b, b_dot, eta, u_l2 = (series.column(name)[:rows][outflow]
                              for name in ("t", "b", "b_dot", "eta", "u_l2"))
    times = np.array(list(t) + [state.t])
    spring = np.array(
        [params.stiffness_K * (b_r - params.b_rest) for b_r in b]
        + [params.stiffness_K * (state.piston.b - params.b_rest)]
    )
    spring_integral = float(np.trapezoid(spring, times))
    return (
        state.piston.b_dot - b_dot[0]
        + params.damping_l * (state.piston.b - b[0])
        + spring_integral
        + math.sqrt(eta[0]) * (u_now + u_l2[0])
    ) / params.mu


def closed_run(n=64, t_end=2.0, v0=1.05, b0=2.1, eta=2.0, dt_factor=0.25):
    p = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=1.0)
    dz = 1.0 / n
    c_l = math.sqrt(p.gamma) * v0 ** (-0.5 * (p.gamma + 1.0)) / eta
    dt = dt_factor * dz / c_l
    cfg = NumericsConfig(n_cells=n, dt_initial=dt, dt_growth=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sched = BoundarySchedule(t_star=t_end, t_end=t_end,
                                 u_in=lambda t: 0.0, rho_in=lambda t: 1.0)
    state = make_state(v0 * np.ones(n), np.zeros(n + 1), eta, b0, dt_next=dt)
    return run_simulation(p, cfg, sched, state), p, sched


class TestMass:
    def test_uniform(self):
        st = make_state(np.ones(16), np.zeros(17), 1.0, 1.0)
        assert total_mass_eulerian(st) == pytest.approx(1.0, abs=1e-12)

    def test_closed_run_conserves(self):
        result, _, _ = closed_run(n=32, t_end=1.0)
        etas = result.series.column("eta")
        assert np.max(np.abs(etas - etas[0])) < 1e-13

    def test_eulerian_crosscheck_second_order(self):
        errs = []
        for n in (32, 64, 128):
            z_c = (np.arange(n) + 0.5) / n
            v = 1.0 + 0.3 * np.sin(2 * np.pi * z_c)
            st = make_state(v, np.zeros(n + 1), 1.0, 1.0)
            errs.append(abs(total_mass_eulerian(st) - 1.0))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.7)


class TestEnergy:
    def test_closed_form_rest_state(self):
        p = Params(mu=1.0, gamma=2.0, stiffness_K=1.0, damping_l=0.5, b_rest=1.0)
        st = make_state(np.ones(32), np.zeros(33), 1.0, 1.0)
        assert energy(st, p) == pytest.approx(1.0, abs=1e-13)

    def test_kinetic_term(self):
        # a uniform unit velocity adds exactly eta/2 of fluid kinetic energy
        # (the piston must move with the gas, adding its own 1/2)
        p = Params(mu=1.0, gamma=2.0, stiffness_K=1.0, damping_l=0.5, b_rest=1.0)
        rest = make_state(np.ones(32), np.zeros(33), 1.0, 1.0)
        moving = make_state(np.ones(32), np.ones(33), 1.0, 1.0, b_dot=1.0)
        e_rest, e_moving = energy(rest, p), energy(moving, p)
        fluid_kinetic = e_moving - e_rest - 0.5 * 1.0**2
        assert fluid_kinetic == pytest.approx(0.5, abs=1e-13)
        assert e_rest + 0.5 == pytest.approx(1.5, abs=1e-13)

    def test_nonuniform_quadrature_against_log_integral(self):
        # -Q(v) = 1/v for gamma = 2; with v = 1 + z the fluid term is log 2
        p = Params(mu=1.0, gamma=2.0, stiffness_K=1.0, damping_l=0.5, b_rest=1.0)
        n = 512
        z_c = (np.arange(n) + 0.5) / n
        st = make_state(1.0 + z_c, np.zeros(n + 1), 1.0, 1.0)
        assert energy(st, p) == pytest.approx(math.log(2.0), abs=1e-5)

    def test_piston_terms(self):
        p = Params(mu=1.0, gamma=2.0, stiffness_K=4.0, damping_l=0.5, b_rest=1.0)
        st = make_state(np.ones(8), 0.3 * np.ones(9), 1.0, 1.5, b_dot=0.3)
        fluid = 1.0 + 0.5 * 0.3**2
        expected = fluid + 0.5 * 0.3**2 + 0.5 * 4.0 * 0.25
        assert energy(st, p) == pytest.approx(expected, abs=1e-13)

    def test_always_positive(self):
        p = Params()
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 16
            u = rng.standard_normal(n + 1)
            st = make_state(0.2 + rng.random(n), u, 0.5 + rng.random(),
                            0.1 + rng.random(), b_dot=float(u[0]))
            assert energy(st, p) > 0.0


class TestEnergyBudget:
    def test_equilibrium_residual_vanishes(self):
        result, _, _ = closed_run(n=32, t_end=1.0, v0=1.0, b0=2.0)
        assert result.summary["energy_budget_residual"] < 1e-10

    def test_closed_pipe_monotone_and_small(self):
        result, p, sched = closed_run(n=128, t_end=2.0)
        e = result.series.column("energy")
        assert np.all(np.diff(e) <= 1e-8 * e[0])
        assert result.summary["energy_budget_residual"] < 1e-3

    def test_residual_shrinks_first_order(self):
        residuals = [
            closed_run(n=n, t_end=1.0)[0].summary["energy_budget_residual"]
            for n in (64, 128, 256)
        ]
        orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
        assert np.all(orders > 0.8)

    def test_outflow_budget_residual_first_order(self):
        # compatible initial data (u ramps to the boundary value); the
        # boundary work terms then leave a residual shrinking at order 1
        p = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5,
                   b_rest=0.0)
        sched = BoundarySchedule(t_star=0.0, t_end=0.5, u_out=lambda t: -0.3)
        residuals = []
        for n in (32, 64, 128):
            dt = 0.32 / n
            cfg = NumericsConfig(n_cells=n, dt_initial=dt, dt_growth=1.0)
            u0 = -0.3 * np.linspace(0.0, 1.0, n + 1)
            grid = GridState(v=np.ones(n), u=u0, eta=1.0)
            st = SimState(t=0.0, grid=grid, piston=PistonState(b=1.0, b_dot=0.0),
                          regime="outflow", dt_next=dt)
            r = run_simulation(p, cfg, sched, st)
            residuals.append(r.summary["energy_budget_residual"])
        orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
        assert np.all(orders > 0.9)
        assert residuals[-1] < 1e-3

    @pytest.mark.filterwarnings("ignore:u_in touches zero")
    def test_inflow_budget_residual_first_order(self):
        # prescribed-inflow boundary work (stress, kinetic and potential
        # influx) must close the budget under refinement as well
        p = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5,
                   b_rest=0.0)
        residuals = []
        for n in (32, 64, 128):
            dt = 0.32 / n
            cfg = NumericsConfig(n_cells=n, dt_initial=dt, dt_growth=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sched = BoundarySchedule(t_star=0.5, t_end=0.5,
                                         u_in=lambda t: 0.3,
                                         rho_in=lambda t: 1.0)
            u0 = 0.3 * np.linspace(0.0, 1.0, n + 1)
            grid = GridState(v=np.ones(n), u=u0, eta=1.0)
            st = SimState(t=0.0, grid=grid, piston=PistonState(b=1.0, b_dot=0.0),
                          regime="inflow", dt_next=dt)
            r = run_simulation(p, cfg, sched, st)
            assert r.series.column("eta")[-1] == pytest.approx(1.15, abs=1e-12)
            residuals.append(r.summary["energy_budget_residual"])
        orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
        assert np.all(orders > 0.9)

    def test_outflux_pressure_monotone_during_outflow(self):
        p = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5,
                   b_rest=0.0)
        sched = BoundarySchedule(t_star=0.0, t_end=0.3, u_out=lambda t: -0.2)
        cfg = NumericsConfig(n_cells=32, dt_initial=2e-3, dt_growth=1.0)
        grid = GridState(v=np.ones(32), u=np.zeros(33), eta=1.0)
        st = SimState(t=0.0, grid=grid, piston=PistonState(b=1.0, b_dot=0.0),
                      regime="outflow", dt_next=2e-3)
        r = run_simulation(p, cfg, sched, st)
        pout = r.series.column("outflux_pressure_cum")
        assert np.all(np.diff(pout) >= 0.0)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            energy_budget_residual(RunSeries())

    def test_hand_built_series_with_anchor_row(self):
        # a resumed run at t* = 0.5: its last inflow row, the zero-duration
        # outflow anchor, and one outflow step of length 0.5
        series = series_of([
            dict(t=0.5, regime="inflow", energy=10.0, b=1.0, b_recon=1.0,
                 eta=1.0, v_boundary=1.0, dissipation_rate=4.0, damping_rate=2.0,
                 outflux_pressure_rate=8.0, boundary_work_rate=1.0),
            dict(t=0.5, regime="outflow", energy=10.0, b=1.0, b_recon=1.0,
                 eta=1.0, v_boundary=1.0, dissipation_rate=1.0, damping_rate=0.5,
                 outflux_pressure_rate=-1.0, boundary_work_rate=3.0),
            dict(t=1.0, regime="outflow", energy=9.0, b=0.75, b_recon=1.0,
                 eta=0.7, v_boundary=1.0, dissipation_rate=3.0, damping_rate=1.5,
                 outflux_pressure_rate=1.0, boundary_work_rate=5.0),
        ])
        # trapezoids: the anchor interval adds nothing, the step 0.25 * (a + b)
        assert series.column("dissipation_cum").tolist() == [0.0, 0.0, 1.0]
        assert series.column("damping_cum").tolist() == [0.0, 0.0, 0.5]
        assert series.column("outflux_pressure_cum").tolist() == [0.0, 0.0, 0.0]
        assert series.column("boundary_work_cum").tolist() == [0.0, 0.0, 2.0]
        # |9 + 1 + 0.5 + 0 - 10 - 2| / 10
        assert energy_budget_residual(series) == 0.15
        summary = _summarize(series, BoundarySchedule(t_star=0.0, t_end=1.0,
                                                      u_out=lambda t: 0.0),
                             0, None, 0.0)
        assert summary["b_consistency_max_drift"] == 0.25
        # eta moves only in the last step, so the step sum is exact
        assert summary["mass_flux_identity_error"] == 0.0
        assert summary["energy_budget_residual"] == 0.15
        assert summary["steps"] == 2

    def test_accumulators_monotone(self):
        result, _, _ = closed_run(n=32, t_end=1.0)
        diss = result.series.column("dissipation_cum")
        assert np.all(np.diff(diss) >= 0.0)


class TestExponentG:
    def test_inflow_regime_rejected(self):
        st = make_state(np.ones(8), np.zeros(9), 1.0, 1.0, regime="inflow")
        with pytest.raises(StateError):
            exponent_G(RunSeries(), st, Params())

    def test_anchor_value(self):
        # at the outflow start: G = 2 sqrt(eta) ||u||_2 / mu
        n = 16
        st = make_state(np.ones(n), np.ones(n + 1), 4.0, 1.0, b_dot=1.0,
                        regime="outflow")
        p = Params(mu=2.0)
        u_l2 = math.sqrt(1.0 * 4.0)  # |u| = 1, mass eta = 4
        assert exponent_G(RunSeries(), st, p) == pytest.approx(2.0 * 2.0 * u_l2 / 2.0,
                                                      abs=1e-12)

    def test_stationary_spring_term_grows_linearly(self):
        # piston held at b with K(b - b_rest) = q(v): G(t) = q * t / mu
        p = Params(mu=2.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=1.0)
        n = 8
        rows = series_of([
            dict(t=0.0, b=2.0, b_dot=0.0, eta=1.0, regime="outflow", u_l2=0.0),
            dict(t=1.0, b=2.0, b_dot=0.0, eta=1.0, regime="outflow", u_l2=0.0),
        ])
        st = make_state(np.ones(n), np.zeros(n + 1), 1.0, 2.0, regime="outflow")
        st = SimState(t=2.0, grid=st.grid, piston=st.piston, regime="outflow",
                      dt_next=1e-3)
        g = exponent_G(rows, st, p)
        assert g == pytest.approx(1.0 * 2.0 / p.mu, abs=1e-12)


class TestRunnerGColumn:
    def test_public_exponent_matches_recorded_column(self):
        # the runner tracks G incrementally; the from-series evaluation must
        # agree at every recorded time
        p = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5,
                   b_rest=0.0)
        sched = BoundarySchedule(t_star=0.0, t_end=0.3, u_out=lambda t: -0.2)
        cfg = NumericsConfig(n_cells=32, dt_initial=2e-3, dt_growth=1.0)
        grid = GridState(v=np.ones(32), u=np.zeros(33), eta=1.0)
        st = SimState(t=0.0, grid=grid, piston=PistonState(b=1.0, b_dot=0.0),
                      regime="outflow", dt_next=2e-3)
        result = run_simulation(p, cfg, sched, st)
        g_column = result.series.column("G_exponent")
        # replay the deterministic trajectory and compare exponent_G against
        # the recorded column after each step
        from pistonflow.solver import step as solver_step

        state = st
        for idx in range(1, min(20, len(result.series))):
            state = solver_step(state, sched, p, cfg)
            g_public = exponent_G(result.series, state, p, rows=idx)
            assert g_public == pytest.approx(g_column[idx],
                                             rel=1e-10, abs=1e-12)


class TestContactTimeLowerBound:
    def test_constant_outflow_closed_form(self):
        t3 = contact_time_lower_bound(
            1.0, lambda t: -0.5, 0.5, t_star=0.0, t_end=5.0
        )
        assert t3 == pytest.approx(1.0, abs=1e-9)

    def test_zero_outflow_unbounded(self):
        t3 = contact_time_lower_bound(
            1.0, lambda t: 0.0, 1.0, t_star=0.0, t_end=5.0
        )
        assert math.isinf(t3)

    def test_linear_outflow_antiderivative(self):
        # u_out = -t, v_min = 1, eta0 = 0.5: integral t^2/2 hits 0.5 at t = 1
        t3 = contact_time_lower_bound(
            0.5, lambda t: -t, 1.0, t_star=0.0, t_end=5.0
        )
        assert t3 == pytest.approx(1.0, abs=1e-10)

    def test_offset_start(self):
        t3 = contact_time_lower_bound(
            1.0, lambda t: -0.5, 0.5, t_star=2.0, t_end=10.0
        )
        assert t3 == pytest.approx(3.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            contact_time_lower_bound(1.0, lambda t: -1.0, 0.0, t_star=0.0,
                                     t_end=1.0)
        with pytest.raises(ValueError):
            contact_time_lower_bound(0.0, lambda t: -1.0, 1.0, t_star=0.0,
                                     t_end=1.0)
        with pytest.raises(ValueError, match="nonpositive"):
            contact_time_lower_bound(1.0, lambda t: 1.0, 1.0, t_star=0.0,
                                     t_end=1.0)

    def test_monotone_in_outflow_strength(self):
        bounds = [
            contact_time_lower_bound(1.0, lambda t, u=u: -u, 1.0,
                                     t_star=0.0, t_end=50.0)
            for u in (0.1, 0.2, 0.5, 1.0)
        ]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
