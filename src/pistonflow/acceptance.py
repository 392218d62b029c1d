"""Acceptance criteria: executable checks behind `pistonflow verify`.

Each criterion function returns a ``CriterionCheck`` with the measured
numbers in ``detail``; the pytest acceptance module asserts on these and the
CLI prints them.  Scenario runs shared between criteria are cached.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .core import BoundarySchedule, GridState, Params, PistonState
from .diagnostics import contact_time_lower_bound
from .oracle import convergence_order, diffusion_case, smooth_case
from .run import RunResult, run_simulation
from .solver import (
    NumericsConfig,
    SimState,
    step,
    whole_horizon_fixed_point,
)


@dataclass(frozen=True)
class CriterionCheck:
    name: str
    passed: bool
    detail: str


def _uniform_state(n: int, v: float, eta: float, b: float, regime: str,
                   dt: float) -> SimState:
    grid = GridState(v=v * np.ones(n), u=np.zeros(n + 1), eta=eta)
    return SimState(
        t=0.0, grid=grid, piston=PistonState(b=b, b_dot=0.0),
        regime=regime, dt_next=dt,  # type: ignore[arg-type]
    )


def _closed_schedule(t_end: float) -> BoundarySchedule:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return BoundarySchedule(
            t_star=t_end, t_end=t_end, u_in=lambda t: 0.0, rho_in=lambda t: 1.0
        )


def _acoustic_dt(n: int, v: float, eta: float, gamma: float = 1.4,
                 factor: float = 0.25) -> float:
    c = math.sqrt(gamma) * v ** (-0.5 * (gamma + 1.0)) / eta
    return factor / (n * c)


@functools.lru_cache(maxsize=None)
def closed_perturbed_run(n: int, t_end: float = 2.0) -> RunResult:
    """Closed pipe, piston displaced 0.1 beyond equilibrium, dt scaled by dz."""
    params = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5,
                    b_rest=1.0)
    v0, eta, b0 = 1.05, 2.0, 2.1
    dt = _acoustic_dt(n, v0, eta)
    cfg = NumericsConfig(n_cells=n, dt_initial=dt, dt_growth=1.0)
    state = _uniform_state(n, v0, eta, b0, "inflow", dt)
    return run_simulation(params, cfg, _closed_schedule(t_end), state)


@functools.lru_cache(maxsize=None)
def outflow_mild_run() -> RunResult:
    params = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5,
                    b_rest=0.0)
    sched = BoundarySchedule(t_star=0.0, t_end=0.5, u_out=lambda t: -0.2)
    cfg = NumericsConfig(n_cells=64, dt_initial=1e-3, dt_growth=1.0)
    state = _uniform_state(64, 1.0, 1.0, 1.0, "outflow", 1e-3)
    return run_simulation(params, cfg, sched, state)


def _standard_scenarios() -> List[Tuple[str, Params, NumericsConfig,
                                        BoundarySchedule, SimState]]:
    """The monitored scenario family exercised by criteria 8 and 9.

    All suite runs use fixed verification steps (dt_growth = 1.0).
    """
    out = []
    p_eq = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=0.0)
    out.append((
        "outflow_mild", p_eq, NumericsConfig(n_cells=64, dt_initial=1e-3, dt_growth=1.0),
        BoundarySchedule(t_star=0.0, t_end=0.5, u_out=lambda t: -0.1),
        _uniform_state(64, 1.0, 1.0, 1.0, "outflow", 1e-3),
    ))
    p_push = Params(mu=1.0, gamma=1.4, stiffness_K=2.0, damping_l=0.5,
                    b_rest=0.0)
    out.append((
        "outflow_compressive", p_push, NumericsConfig(n_cells=64, dt_initial=1e-3, dt_growth=1.0),
        BoundarySchedule(t_star=0.0, t_end=0.6, u_out=lambda t: -0.3),
        _uniform_state(64, 1.0, 1.0, 1.0, "outflow", 1e-3),
    ))
    out.append((
        "two_phase", p_eq, NumericsConfig(n_cells=64, dt_initial=1e-3, dt_growth=1.0),
        BoundarySchedule(t_star=0.3, t_end=0.8, u_in=lambda t: 0.3,
                         rho_in=lambda t: 1.2, u_out=lambda t: -0.3),
        _uniform_state(64, 1.0, 1.0, 1.0, "inflow", 1e-3),
    ))
    out.append((
        "two_phase_jump", p_eq, NumericsConfig(n_cells=64, dt_initial=1e-3, dt_growth=1.0),
        BoundarySchedule(t_star=0.25, t_end=0.5, u_in=lambda t: 1.0,
                         rho_in=lambda t: 1.0, u_out=lambda t: -1.0),
        _uniform_state(64, 1.0, 1.0, 1.0, "inflow", 1e-3),
    ))
    p_dep = Params(mu=0.5, gamma=1.4, stiffness_K=4.0, damping_l=1.0,
                   b_rest=0.0)
    out.append((
        "depletion", p_dep, NumericsConfig(n_cells=48, dt_initial=2e-3, dt_growth=1.0),
        BoundarySchedule(t_star=0.0, t_end=30.0, u_out=lambda t: -0.6),
        _uniform_state(48, 1.0, 0.25, 0.25, "outflow", 2e-3),
    ))
    return out


@functools.lru_cache(maxsize=None)
def standard_scenario_runs() -> Dict[str, RunResult]:
    return {
        name: run_simulation(params, cfg, sched, state)
        for name, params, cfg, sched, state in _standard_scenarios()
    }


def _fit_order(values) -> float:
    values = np.asarray(values, dtype=float)
    levels = np.arange(values.size)
    return float(-np.polyfit(levels, np.log2(values), 1)[0])


# --- criteria -------------------------------------------------------------

def criterion_1_equilibrium() -> CriterionCheck:
    n, steps = 128, 10_000
    params = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5,
                    b_rest=1.0)
    cfg = NumericsConfig(n_cells=n, dt_initial=1e-3, dt_growth=1.0)
    sched = _closed_schedule(1e9)
    state = _uniform_state(n, 1.0, 2.0, 2.0, "inflow", 1e-3)
    drift = 0.0
    for _ in range(steps):
        state = step(state, sched, params, cfg)
        drift = max(
            drift,
            float(np.max(np.abs(state.grid.v - 1.0))),
            float(np.max(np.abs(state.grid.u))),
            abs(state.grid.eta - 2.0),
            abs(state.piston.b - 2.0),
            abs(state.piston.b_dot),
        )
    return CriterionCheck(
        "1 equilibrium preservation", drift < 1e-10,
        f"max field drift over {steps} steps at n={n}: {drift:.3e} (< 1e-10)",
    )


def criterion_2_mass() -> CriterionCheck:
    closed = closed_perturbed_run(128)
    etas = closed.series.column("eta")
    closed_drift = float(np.max(np.abs(etas - etas[0])))

    out = outflow_mild_run()
    etas_out = out.series.column("eta")
    strictly_decreasing = bool(np.all(np.diff(etas_out) < 0.0))
    flux_err = out.summary["mass_flux_identity_error"]
    passed = closed_drift < 1e-13 and strictly_decreasing and flux_err < 1e-12
    return CriterionCheck(
        "2 mass conservation and flux identity", passed,
        f"closed drift {closed_drift:.2e} (< 1e-13), outflow strictly "
        f"non-increasing: {strictly_decreasing}, flux identity error "
        f"{flux_err:.2e} (< 1e-12)",
    )


def criterion_3_b_consistency() -> CriterionCheck:
    drifts = [closed_perturbed_run(n).summary["b_consistency_max_drift"]
              for n in (64, 128, 256)]
    order = _fit_order(drifts)
    return CriterionCheck(
        "3 b-consistency convergence", order >= 1.0,
        f"max |b - sum(v dy)| at n=64/128/256: "
        + "/".join(f"{d:.3e}" for d in drifts)
        + f", observed order {order:.3f} (>= 1.0)",
    )


def criterion_4_energy() -> CriterionCheck:
    run256 = closed_perturbed_run(256)
    e = run256.series.column("energy")
    max_increase = float(np.max(np.diff(e)))
    monotone = max_increase <= 1e-8 * e[0]
    residuals = [closed_perturbed_run(n).summary["energy_budget_residual"]
                 for n in (64, 128, 256)]
    order = _fit_order(residuals)
    passed = monotone and residuals[-1] < 1e-3 and order >= 1.0
    return CriterionCheck(
        "4 energy decay and budget", passed,
        f"max per-step E increase {max_increase:.2e} (<= {1e-8 * e[0]:.2e}), "
        f"budget residual n=256: {residuals[-1]:.2e} (< 1e-3), order "
        f"{order:.3f} (>= 1.0)",
    )


def criterion_5_manufactured() -> CriterionCheck:
    res = convergence_order(smooth_case(), [32, 64, 128, 256], t_end=0.5,
                            dt0=0.005)
    res_diff = convergence_order(diffusion_case(), [16, 32, 64, 128],
                                 t_end=0.1, dt0=0.005, theta=0.5)
    passed = (res.order_v >= 1.0 and res.order_u >= 1.0
              and res_diff.order_u >= 1.8)
    detail = (
        f"smooth orders v={res.order_v:.3f}, u={res.order_u:.3f} (>= 1.0); "
        f"pure-diffusion theta=0.5 spatial order {res_diff.order_u:.3f} (>= 1.8)"
        + "\n  smooth case table:\n    "
        + "\n    ".join(res.as_csv().strip().splitlines())
        + "\n  diffusion case table:\n    "
        + "\n    ".join(res_diff.as_csv().strip().splitlines())
    )
    return CriterionCheck("5 manufactured-solution convergence", passed, detail)


def criterion_6_fixed_point() -> CriterionCheck:
    params = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5,
                    b_rest=0.0)
    sched = BoundarySchedule(t_star=0.0, t_end=0.05, u_out=lambda t: -0.1)
    cfg = NumericsConfig(n_cells=64, dt_initial=1e-3, dt_growth=1.0,
                         picard_tol=1e-10)
    state = _uniform_state(64, 1.0, 1.0, 1.0, "outflow", 1e-3)
    traj, residuals = whole_horizon_fixed_point(state, sched, params, cfg,
                                                0.05, max_outer=30)
    ratios = [residuals[i + 1] / residuals[i]
              for i in range(len(residuals) - 1) if residuals[i] > 0]
    contracting = all(r < 1.0 for r in ratios)
    converged = len(residuals) <= 30 and residuals[-1] < 1e-10

    per_step = run_simulation(params, cfg, sched, state)
    ts = per_step.series.column("t")
    etas = per_step.series.column("eta")
    eta_fp = np.interp(ts, traj[:, 0], traj[:, 1])
    agreement = float(np.max(np.abs(eta_fp - etas)))
    max_flux = float(np.max(np.abs(np.diff(etas) / np.diff(ts))))
    tol = 2.0 * 1e-3 * max(max_flux, 1e-300)
    passed = contracting and converged and agreement <= tol
    history = ", ".join(f"{r:.3e}" for r in residuals)
    return CriterionCheck(
        "6 fixed-point contraction and cross-validation", passed,
        f"{len(residuals)} outer iterations (<= 30), residual ratios all < 1: "
        f"{contracting}, per-step vs whole-horizon eta gap {agreement:.2e} "
        f"(<= {tol:.2e})\n  residual history: {history}",
    )


def criterion_7_contact_bound() -> CriterionCheck:
    params = Params(mu=0.5, gamma=1.4, stiffness_K=4.0, damping_l=1.0,
                    b_rest=0.0)
    ok_all = True
    margins = []
    for k in range(10):
        u0 = 0.15 + 0.1 * k
        sched = BoundarySchedule(t_star=0.0, t_end=30.0,
                                 u_out=lambda t, u=u0: -u)
        cfg = NumericsConfig(n_cells=48, dt_initial=2e-3)
        state = _uniform_state(48, 1.0, 0.25, 0.25, "outflow", 2e-3)
        result = run_simulation(params, cfg, sched, state)
        event = result.event_time
        bound = result.summary.get("contact_time_lower_bound")
        happened = result.status in ("contact", "depleted")
        ok = happened and isinstance(bound, float) and event >= bound - 1e-9
        ok_all = ok_all and ok
        if ok:
            margins.append(event / bound)
    closed_form = contact_time_lower_bound(
        1.0, lambda t: -0.5, 0.5, t_star=0.0, t_end=10.0
    )
    exact_ok = abs(closed_form - 1.0) < 1e-9
    return CriterionCheck(
        "7 contact-time lower bound", ok_all and exact_ok,
        f"10-run sweep: every event >= bound ({ok_all}), event/bound range "
        f"[{min(margins):.2f}, {max(margins):.2f}]; closed form T3 = "
        f"{closed_form:.12f} (== 1.0)",
    )


def criterion_8_volume_bound() -> CriterionCheck:
    ratios = {
        name: result.summary["g_bound_max_ratio"]
        for name, result in standard_scenario_runs().items()
        if result.summary["g_bound_max_ratio"] is not None
    }
    worst = max(ratios.values())
    return CriterionCheck(
        "8 1/v exponential bound", worst <= 1.05,
        "max (1/v) / ((1/v*) exp(G)) per scenario: "
        + ", ".join(f"{k}={v:.4f}" for k, v in ratios.items())
        + f"; worst {worst:.4f} (<= 1.05)",
    )


def criterion_9_picard_robustness() -> CriterionCheck:
    iters = {
        name: result.summary["picard_iterations_max"]
        for name, result in standard_scenario_runs().items()
        if result.summary["picard_iterations_max"] > 0
    }
    standard_ok = max(iters.values()) <= 5

    stiff_params = Params(mu=0.05, gamma=1.4, stiffness_K=1.0, damping_l=0.5,
                          b_rest=0.0)
    stiff_sched = BoundarySchedule(t_star=0.0, t_end=2.0, u_out=lambda t: -2.0)
    cfg = NumericsConfig(n_cells=64, dt_initial=2e-3)
    state = _uniform_state(64, 1.0, 1.0, 1.0, "outflow", 2e-3)
    stiff = run_simulation(stiff_params, cfg, stiff_sched, state)
    stiff_ok = stiff.status in ("completed", "contact", "depleted")
    passed = standard_ok and stiff_ok
    return CriterionCheck(
        "9 Picard robustness", passed,
        f"standard scenarios max iterations {max(iters.values())} (<= 5); "
        f"stiff case (u_out=-2, mu=0.05): status {stiff.status} with "
        f"{stiff.summary['step_rejections']} step rejections, never silent",
    )


def criterion_10_determinism() -> CriterionCheck:
    from .cli import main

    config_text = (
        "[params]\nb_rest = 0.0\n"
        "[numerics]\nn_cells = 32\ndt_initial = 2e-3\n"
        "[initial]\nb0 = 1.0\nrho0 = constant:1.0\n"
        "[schedule]\nt_star = 0.0\nt_end = 0.3\nu_out = constant:-0.2\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "scenario.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(config_text)
        blobs = []
        for sub in ("a", "b"):
            out = os.path.join(tmp, sub)
            # the runs' status lines would interleave with the verify report
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", "--config", ini, "--out", out])
            with open(os.path.join(out, "series.csv"), "rb") as fh:
                blobs.append(fh.read())
        identical = blobs[0] == blobs[1] and code == 0
    return CriterionCheck(
        "10 determinism", identical,
        f"two runs of the same config: byte-identical series "
        f"({len(blobs[0])} bytes each)",
    )


#: the criteria each ``pistonflow verify`` suite runs, in order
SUITES: Dict[str, List[Callable[[], CriterionCheck]]] = {
    "equilibrium": [criterion_1_equilibrium],
    "manufactured": [criterion_5_manufactured],
    "fixed_point": [criterion_6_fixed_point, criterion_9_picard_robustness],
    "budget": [criterion_2_mass, criterion_3_b_consistency, criterion_4_energy],
    "all": [
        criterion_1_equilibrium,
        criterion_2_mass,
        criterion_3_b_consistency,
        criterion_4_energy,
        criterion_5_manufactured,
        criterion_6_fixed_point,
        criterion_7_contact_bound,
        criterion_8_volume_bound,
        criterion_9_picard_robustness,
        criterion_10_determinism,
    ],
}
