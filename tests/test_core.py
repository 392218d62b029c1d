"""Constitutive laws and state-type invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pistonflow import (
    BoundarySchedule,
    GridState,
    NumericsConfig,
    Params,
    PistonState,
    SimState,
)
from pistonflow.core import pressure_potential_Q, pressure_q

# frozen with mpmath (30 digits): 2**-1.4
TWO_POW_MINUS_1_4 = 0.378929141627599520586814950327


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestPressureQ:
    def test_identity_case(self):
        assert pressure_q(1.0, 1.4) == 1.0

    def test_exact_power_of_two(self):
        assert pressure_q(0.5, 2.0) == 4.0

    def test_high_precision_value(self):
        assert pressure_q(2.0, 1.4) == pytest.approx(TWO_POW_MINUS_1_4, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pressure_q(0.0, 1.4)
        with pytest.raises(ValueError):
            pressure_q(-1.0, 1.4)

    @settings(max_examples=60, deadline=None)
    @given(
        v1=st.floats(0.1, 10.0),
        v2=st.floats(0.1, 10.0),
        gamma=st.floats(1.01, 5.0),
    )
    def test_positive_and_strictly_decreasing(self, v1, v2, gamma):
        q1, q2 = pressure_q(v1, gamma), pressure_q(v2, gamma)
        assert q1 > 0.0 and q2 > 0.0
        if v1 < v2:
            assert q1 > q2
        elif v1 > v2:
            assert q1 < q2


class TestPressurePotentialQ:
    def test_plug_in_gamma_two(self):
        assert pressure_potential_Q(1.0, 2.0) == -1.0
        assert pressure_potential_Q(2.0, 2.0) == -0.5

    def test_always_negative(self):
        v = np.linspace(0.1, 10.0, 50)
        assert np.all(pressure_potential_Q(v, 1.4) < 0.0)

    def test_derivative_matches_pressure(self):
        d = central_diff(lambda v: pressure_potential_Q(v, 1.4), 1.3)
        assert d == pytest.approx(pressure_q(1.3, 1.4), abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(v=st.floats(0.1, 10.0), gamma=st.floats(1.1, 4.0))
    def test_derivative_property(self, v, gamma):
        d = central_diff(lambda x: pressure_potential_Q(x, gamma), v)
        assert d == pytest.approx(float(pressure_q(v, gamma)), rel=1e-7, abs=1e-7)

    def test_requires_gamma_above_one(self):
        with pytest.raises(ValueError):
            pressure_potential_Q(1.0, 1.0)


class TestParams:
    def test_defaults_valid(self):
        p = Params()
        assert p.gamma > 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 1.0},
            {"gamma": 0.9},
            {"mu": 0.0},
            {"mu": -1.0},
            {"stiffness_K": 0.0},
            {"damping_l": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Params(**kwargs)

    def test_b_rest_may_be_nonpositive(self):
        Params(b_rest=0.0)
        Params(b_rest=-0.5)


class TestGridState:
    def test_valid(self):
        g = GridState(v=np.ones(8), u=np.zeros(9), eta=2.0)
        assert g.n_cells == 8
        assert g.dz == pytest.approx(0.125)
        assert g.dy == pytest.approx(0.25)

    def test_staggering_enforced(self):
        with pytest.raises(ValueError, match="staggered"):
            GridState(v=np.ones(8), u=np.zeros(8), eta=1.0)

    def test_positive_volume_enforced(self):
        v = np.ones(8)
        v[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            GridState(v=v, u=np.zeros(9), eta=1.0)

    def test_positive_eta_enforced(self):
        with pytest.raises(ValueError, match="eta"):
            GridState(v=np.ones(8), u=np.zeros(9), eta=0.0)

    def test_arrays_frozen(self):
        g = GridState(v=np.ones(8), u=np.zeros(9), eta=1.0)
        with pytest.raises(ValueError):
            g.v[0] = 2.0


class TestPistonState:
    def test_positive_b_enforced(self):
        with pytest.raises(ValueError):
            PistonState(b=0.0)
        with pytest.raises(ValueError):
            PistonState(b=-1.0)


def _grid(v=1.0, u=0.0, eta=1.0):
    vs = np.ones(8)
    us = np.zeros(9)
    vs[3] = v
    us[4] = u
    return GridState(v=vs, u=us, eta=eta)


def _sim_state(dt_next=1e-3, t=0.0):
    return SimState(t=t, grid=_grid(), piston=PistonState(b=1.0),
                    regime="inflow", dt_next=dt_next)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("build", [
    lambda: Params(b_rest=NAN),
    lambda: Params(mu=INF),
    lambda: Params(stiffness_K=INF),
    lambda: Params(gamma=INF),
    lambda: PistonState(b=INF),
    lambda: PistonState(b=1.0, b_dot=NAN),
    lambda: _grid(eta=INF),
    lambda: _grid(u=NAN),
    lambda: _grid(v=INF),
    lambda: NumericsConfig(dt_initial=INF),
    lambda: NumericsConfig(dt_growth=INF),
    lambda: NumericsConfig(picard_tol=INF),
    lambda: _sim_state(dt_next=INF),
    lambda: _sim_state(t=NAN),
    lambda: _sim_state(t=INF),
    lambda: _sim_state(t=-INF),
    lambda: BoundarySchedule(t_star=1.0, t_end=1.0, u_in=lambda t: NAN,
                             rho_in=lambda t: 1.0),
    lambda: BoundarySchedule(t_star=1.0, t_end=1.0, u_in=lambda t: 1.0,
                             rho_in=lambda t: INF),
    lambda: BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: NAN),
    lambda: BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: -INF),
], ids=[
    "Params.b_rest=nan", "Params.mu=inf", "Params.stiffness_K=inf",
    "Params.gamma=inf", "PistonState.b=inf", "PistonState.b_dot=nan",
    "GridState.eta=inf", "GridState.u=nan", "GridState.v=inf",
    "NumericsConfig.dt_initial=inf", "NumericsConfig.dt_growth=inf",
    "NumericsConfig.picard_tol=inf", "SimState.dt_next=inf",
    "SimState.t=nan", "SimState.t=inf", "SimState.t=-inf",
    "BoundarySchedule.u_in=nan", "BoundarySchedule.rho_in=inf",
    "BoundarySchedule.u_out=nan", "BoundarySchedule.u_out=-inf",
])
def test_constructors_reject_non_finite_values(build):
    with pytest.raises(ValueError, match="finite"):
        build()


class TestBoundarySchedule:
    def test_two_phase(self):
        s = BoundarySchedule(
            t_star=0.5,
            t_end=1.0,
            u_in=lambda t: 1.0,
            rho_in=lambda t: 1.0,
            u_out=lambda t: -0.5,
        )
        assert s.t_star == 0.5

    def test_u_in_touching_zero_warns(self):
        with pytest.warns(UserWarning, match="u_in"):
            BoundarySchedule(
                t_star=1.0, t_end=1.0, u_in=lambda t: 0.0, rho_in=lambda t: 1.0
            )

    def test_negative_u_in_rejected(self):
        with pytest.raises(ValueError, match="u_in"):
            BoundarySchedule(
                t_star=1.0, t_end=1.0, u_in=lambda t: -0.1, rho_in=lambda t: 1.0
            )

    def test_nonpositive_rho_in_rejected(self):
        with pytest.raises(ValueError, match="rho_in"):
            BoundarySchedule(
                t_star=1.0, t_end=1.0, u_in=lambda t: 1.0, rho_in=lambda t: 0.0
            )

    def test_positive_u_out_rejected(self):
        with pytest.raises(ValueError, match="u_out"):
            BoundarySchedule(t_star=0.0, t_end=1.0, u_out=lambda t: 0.1)

    def test_t_star_bounds(self):
        with pytest.raises(ValueError):
            BoundarySchedule(t_star=-0.1, t_end=1.0, u_out=lambda t: 0.0)
        with pytest.raises(ValueError):
            BoundarySchedule(t_star=2.0, t_end=1.0, u_out=lambda t: 0.0)

    def test_missing_functions_rejected(self):
        with pytest.raises(ValueError, match="u_out"):
            BoundarySchedule(t_star=0.0, t_end=1.0)
        with pytest.raises(ValueError, match="u_in"):
            BoundarySchedule(t_star=0.5, t_end=1.0, u_out=lambda t: 0.0)
