"""Verification machinery: manufactured cases, convergence, piston oracle."""

import dataclasses
import math

import numpy as np
import pytest

from pistonflow.core import Params
from pistonflow.oracle import (
    ManufacturedCase,
    _on_grid,
    check_case,
    convergence_order,
    diffusion_case,
    equilibrium_case,
    manufactured_residual,
    piston_ode_oracle,
    run_forced,
    smooth_case,
)


class TestResidualGuards:
    def test_equilibrium_case_exact(self):
        r_v, r_u, r_b = manufactured_residual(equilibrium_case(), 0.3, 0.4)
        assert r_v == 0.0 and abs(r_u) < 1e-14 and abs(r_b) < 1e-14

    @pytest.mark.parametrize("factory", [equilibrium_case, smooth_case,
                                         diffusion_case])
    def test_preset_guards(self, factory):
        assert check_case(factory()) < 1e-10

    def test_incompatible_piston_rejected(self):
        with pytest.raises(ValueError, match="compatibility"):
            ManufacturedCase(
                name="bad",
                params=Params(),
                v=lambda t, z: 1.0 + 0.0 * (t + z),
                u=lambda t, z: 1.0 + 0.0 * (t + z),  # u(t,0) = 1
                b=lambda t: 1.0 + 0.0 * t,
                b_dot=lambda t: 0.0 * t,             # but db/dt = 0
                eta=lambda t: 1.0 + 0.0 * t,
                f_v=lambda t, z: 0.0 * (t + z),
                f_u=lambda t, z: 0.0 * (t + z),
                f_b=lambda t: 0.0 * t,
            )

    def test_field_not_vectorized_over_z_rejected(self):
        with pytest.raises(ValueError, match="'f_v' is not vectorized"):
            dataclasses.replace(
                equilibrium_case(), f_v=lambda t, z: 0.0 * math.sin(t + z)
            )

    @pytest.mark.parametrize("factory", [equilibrium_case, smooth_case,
                                         diffusion_case])
    def test_grid_sampling_matches_pointwise_loop(self, factory):
        # numpy's array power may differ from its scalar power by 1 ulp
        eps = np.finfo(float).eps
        case = factory()
        z = np.linspace(0.0, 1.0, 65)
        for name in ("v", "u", "f_v", "f_u"):
            f = getattr(case, name)
            for t in (0.0, 0.137, 0.5):
                loop = np.array([complex(f(t, zi)).real for zi in z])
                np.testing.assert_allclose(_on_grid(f, t, z), loop,
                                           rtol=4 * eps, atol=4 * eps)

    def test_z_independent_scalar_field_accepted(self):
        for case, fields in (
            (equilibrium_case(), dict(u=lambda t, z: 0.0 * t,
                                      f_v=lambda t, z: 0.0 * t)),
            (diffusion_case(), dict(v=lambda t, z: 1.0 + 0.0 * t,
                                    f_u=lambda t, z: 0.0 * t)),
        ):
            scalar = dataclasses.replace(case, **fields)
            assert (run_forced(scalar, 16, 1e-2, 0.2)
                    == run_forced(case, 16, 1e-2, 0.2))

    def test_corrupted_forcing_caught(self):
        good = smooth_case()
        import dataclasses

        bad = dataclasses.replace(
            good, f_v=lambda t, z: good.f_v(t, z) + 1e-6
        )
        with pytest.raises(ValueError, match="residual guard"):
            check_case(bad)


class TestForcedRuns:
    def test_equilibrium_errors_machine_precision(self):
        err_v, err_u = run_forced(equilibrium_case(), 16, 1e-2, 0.2)
        assert err_v < 1e-13 and err_u < 1e-13

    def test_smooth_overall_order_at_least_one(self):
        res = convergence_order(smooth_case(), [32, 64, 128, 256],
                                t_end=0.5, dt0=0.005)
        assert res.order_v >= 1.0
        assert res.order_u >= 1.0

    def test_diffusion_spatial_order_near_two(self):
        res = convergence_order(diffusion_case(), [16, 32, 64, 128],
                                t_end=0.1, dt0=0.005, theta=0.5)
        assert res.order_u >= 1.8
        assert math.isinf(res.order_v)  # v frozen at the exact profile

    def test_requires_three_resolutions(self):
        with pytest.raises(ValueError):
            convergence_order(smooth_case(), [32, 64])

    def test_csv_emission(self):
        res = convergence_order(smooth_case(), [16, 32, 64], t_end=0.2, dt0=0.005)
        text = res.as_csv()
        assert text.splitlines()[0] == "n_cells,dt,err_v,err_u,order"
        assert len(text.splitlines()) == 1 + len(res.rows)


class TestPistonOracle:
    def test_static_balance(self):
        p = Params(mu=1.0, gamma=1.4, stiffness_K=2.0, damping_l=0.5, b_rest=1.0)
        force = p.stiffness_K * (1.7 - p.b_rest)
        traj = piston_ode_oracle(p, lambda t: force, b0=1.7, b1=0.0,
                                 dt=1e-2, t_end=1.0)
        assert np.allclose(traj[:, 1], 1.7, atol=1e-12)
        assert np.allclose(traj[:, 2], 0.0, atol=1e-12)

    @staticmethod
    def measured_period(dt):
        # undamped (subnormal damping satisfies the positivity requirement)
        p = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=5e-324,
                   b_rest=0.0)
        traj = piston_ode_oracle(p, lambda t: 0.0, b0=1.0, b1=0.0,
                                 dt=dt, t_end=30.0)
        b = traj[:, 1]
        t = traj[:, 0]
        down = np.where((b[:-1] > 0.0) & (b[1:] <= 0.0))[0]
        crossings = [
            t[i] + (t[i + 1] - t[i]) * b[i] / (b[i] - b[i + 1]) for i in down
        ]
        gaps = np.diff(crossings)
        return float(np.mean(gaps))

    def test_harmonic_period_approaches_two_pi(self):
        err_coarse = abs(self.measured_period(8e-3) - 2.0 * math.pi)
        err_fine = abs(self.measured_period(1e-3) - 2.0 * math.pi)
        assert err_fine < 1e-3
        assert err_fine < err_coarse

    @staticmethod
    def damped_closed_form(t, b0, b1, K, l, b_rest):
        omega = math.sqrt(K - 0.25 * l * l)
        c1 = b0 - b_rest
        c2 = (b1 + 0.5 * l * c1) / omega
        return b_rest + math.exp(-0.5 * l * t) * (
            c1 * math.cos(omega * t) + c2 * math.sin(omega * t)
        )

    def test_underdamped_first_order_accuracy(self):
        p = Params(mu=1.0, gamma=1.4, stiffness_K=4.0, damping_l=0.5, b_rest=1.0)

        def max_err(dt):
            traj = piston_ode_oracle(p, lambda t: 0.0, b0=1.5, b1=0.0,
                                     dt=dt, t_end=5.0)
            exact = np.array([
                self.damped_closed_form(t, 1.5, 0.0, 4.0, 0.5, 1.0)
                for t in traj[:, 0]
            ])
            return float(np.max(np.abs(traj[:, 1] - exact)))

        e1, e2 = max_err(4e-3), max_err(1e-3)
        assert e2 < 5e-3
        assert e1 / e2 > 3.0  # first order: 4x dt -> ~4x error
