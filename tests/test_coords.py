"""Coordinate maps: mass coordinate, normalized grid, reconstruction."""

import numpy as np
import pytest

from pistonflow import EulerianField, GridState
from pistonflow.coords import (
    coefficients_alpha_beta,
    lagrangian_init_from_eulerian,
    mass_coordinate_of,
    reconstruct_eulerian,
)


def uniform_field(rho_value, b, n=801, u_value=0.0):
    x = np.linspace(0.0, b, n)
    return EulerianField(
        x=x, rho=np.full(n, rho_value), u=np.full(n, u_value), b=b
    )


def linear_density_field(b=1.0, n=2049):
    x = np.linspace(0.0, b, n)
    return EulerianField(x=x, rho=1.0 + x, u=np.sin(np.pi * x / b), b=b)


class TestMassCoordinate:
    def test_unit_density(self):
        chi, eta = mass_coordinate_of(uniform_field(1.0, 2.0))
        assert eta == pytest.approx(2.0, abs=1e-13)
        assert np.allclose(chi, uniform_field(1.0, 2.0).x - 2.0, atol=1e-13)

    def test_constant_density(self):
        chi, eta = mass_coordinate_of(uniform_field(2.0, 3.0))
        assert eta == pytest.approx(6.0, abs=1e-12)
        assert chi[0] == pytest.approx(-6.0, abs=1e-12)

    def test_linear_density_against_antiderivative(self):
        # rho = 1 + x on [0, 1]: chi(x) = (x + x^2/2) - 3/2, exactly
        # integrated by the trapezoid rule up to roundoff for linear rho
        field = linear_density_field()
        chi, eta = mass_coordinate_of(field)
        assert eta == pytest.approx(1.5, abs=1e-12)
        i_half = np.searchsorted(field.x, 0.5)
        assert field.x[i_half] == pytest.approx(0.5, abs=1e-15)
        assert chi[i_half] == pytest.approx(-0.875, abs=1e-12)

    def test_endpoints_exact(self):
        chi, eta = mass_coordinate_of(linear_density_field())
        assert chi[-1] == 0.0
        assert chi[0] == -eta

    def test_strictly_increasing(self):
        chi, _ = mass_coordinate_of(linear_density_field())
        assert np.all(np.diff(chi) > 0.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            EulerianField(x=np.array([0.0]), rho=np.array([1.0]), u=np.array([0.0]))


class TestLagrangianInit:
    def test_unit_state(self):
        g = lagrangian_init_from_eulerian(uniform_field(1.0, 1.0), 16)
        assert np.allclose(g.v, 1.0, atol=1e-13)
        assert np.allclose(g.u, 0.0)
        assert g.eta == pytest.approx(1.0, abs=1e-13)

    def test_constant_state(self):
        g = lagrangian_init_from_eulerian(uniform_field(2.0, 3.0), 16)
        assert np.allclose(g.v, 0.5, atol=1e-13)
        assert g.eta == pytest.approx(6.0, abs=1e-12)

    def test_orientation_piston_at_z0(self):
        # velocity varies linearly in x; edge 0 must carry the piston value u(b)
        b = 2.0
        x = np.linspace(0.0, b, 2001)
        field = EulerianField(x=x, rho=np.ones_like(x), u=x.copy(), b=b)
        g = lagrangian_init_from_eulerian(field, 32)
        assert g.u[0] == pytest.approx(b, abs=1e-12)   # piston end x = b
        assert g.u[-1] == pytest.approx(0.0, abs=1e-12)  # open end x = 0

    def test_min_cells(self):
        with pytest.raises(ValueError):
            lagrangian_init_from_eulerian(uniform_field(1.0, 1.0), 3)

    @staticmethod
    def roundtrip_error(n_cells):
        field = linear_density_field()
        g = lagrangian_init_from_eulerian(field, n_cells)
        rec = reconstruct_eulerian(g)
        interior = slice(1, -1)
        rho_back = np.interp(field.x[interior], rec.x, rec.rho)
        return float(np.max(np.abs(rho_back - field.rho[interior])))

    def test_roundtrip_converges_second_order(self):
        errs = [self.roundtrip_error(n) for n in (64, 128, 256)]
        assert errs[2] < 1e-3
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.8)


class TestCoefficients:
    def test_frozen_mass(self):
        c = coefficients_alpha_beta(2.0, 0.0, np.linspace(0, 1, 5))
        assert c.alpha == -0.5
        assert np.all(c.beta == 0.0)

    def test_direct_substitution(self):
        c = coefficients_alpha_beta(2.0, -0.5, np.array([0.5]))
        assert c.alpha == -0.5
        assert c.beta[0] == pytest.approx(0.125, abs=1e-15)
        c2 = coefficients_alpha_beta(1.0, 1.0, np.array([1.0]))
        assert c2.alpha == -1.0
        assert c2.beta[0] == -1.0

    def test_exact_invariants(self):
        z = np.linspace(0.0, 1.0, 9)
        c = coefficients_alpha_beta(3.0, -0.7, z)
        assert c.alpha == -1.0 / 3.0
        assert c.beta[0] == 0.0
        assert c.beta[-1] == -(-0.7) / 3.0
        # linear in z: second differences vanish
        assert np.allclose(np.diff(c.beta, 2), 0.0, atol=1e-16)

    def test_domain_collapse(self):
        with pytest.raises(ValueError, match="collapse"):
            coefficients_alpha_beta(0.0, 0.0, np.array([0.0]))


class TestReconstruct:
    def test_uniform(self):
        g = GridState(v=np.ones(16), u=np.zeros(17), eta=1.0)
        rec = reconstruct_eulerian(g)
        assert rec.b == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(rec.rho, 1.0, atol=1e-13)

    def test_constant(self):
        g = GridState(v=0.5 * np.ones(16), u=np.zeros(17), eta=6.0)
        rec = reconstruct_eulerian(g)
        assert rec.b == pytest.approx(3.0, abs=1e-14)
        assert np.allclose(rec.rho, 2.0, atol=1e-13)

    def test_linear_profile_length(self):
        n = 256
        z_c = (np.arange(n) + 0.5) / n
        g = GridState(v=1.0 + z_c, u=np.zeros(n + 1), eta=1.0)
        rec = reconstruct_eulerian(g)
        # midpoint quadrature integrates the linear profile exactly
        assert rec.b == pytest.approx(1.5, abs=1e-12)

    def test_length_matches_volume_sum_exactly(self):
        rng = np.random.default_rng(7)
        v = 0.5 + rng.random(32)
        g = GridState(v=v, u=np.zeros(33), eta=2.0)
        rec = reconstruct_eulerian(g)
        assert rec.b == float(np.cumsum((v * g.dy)[::-1])[-1])

    def test_field_invariants(self):
        g = GridState(v=np.linspace(0.5, 1.5, 16), u=np.zeros(17), eta=1.0)
        rec = reconstruct_eulerian(g)
        assert rec.x[0] == 0.0
        assert np.all(np.diff(rec.x) > 0.0)
        assert np.all(rec.rho > 0.0)
