"""Seeded scenario generation for the four workloads.

This module does not import pistonflow: the set-up probe times that import
itself, and the scenarios must exist before it.  The program only ever sees
the INI text (or, for ``verify``, the plain numbers) generated here.

Scenario values are drawn by stratified sampling: a pass of k operations
takes one value from each of k equal slices of the stated range, at a seeded
position inside the slice.  Every pass therefore covers the whole range, and
the work in a pass barely depends on the seed, which keeps pass walls
comparable between runs with different seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

WORKLOADS = ("cli_sweep", "depletion_sweep", "fine_grid", "verify")


@dataclass(frozen=True)
class Op:
    """One operation of a workload pass: a scenario run, invocation or study."""

    kind: str
    label: str
    ini: Optional[str] = None
    u_out: Optional[float] = None


def _stratified(rng: random.Random, k: int, lo: float, hi: float) -> List[float]:
    width = (hi - lo) / k
    return [round(lo + (i + rng.random()) * width, 4) for i in range(k)]


def scenario_ini(
    *,
    n_cells: int,
    u_in: Optional[float],
    u_out: float,
    mu: float = 1.0,
    stiffness_K: float = 1.0,
    damping_l: float = 0.5,
    b_rest: float = 1.0,
    dt_initial: float = 1e-3,
    b0: float = 2.0,
    t_star: float = 0.5,
    t_end: float = 1.0,
) -> str:
    """INI text with every key spelled out, so default changes cannot leak in.

    The defaults are the README scenario.
    """
    lines = [
        "[params]",
        f"mu = {mu!r}",
        "gamma = 1.4",
        f"stiffness_K = {stiffness_K!r}",
        f"damping_l = {damping_l!r}",
        f"b_rest = {b_rest!r}",
        "",
        "[numerics]",
        f"n_cells = {n_cells}",
        f"dt_initial = {dt_initial!r}",
        "cfl_advection = 0.5",
        "picard_tol = 1e-10",
        "picard_max_iter = 25",
        "theta_viscous = 1.0",
        "dt_growth = 1.1",
        "",
        "[initial]",
        "rho0 = constant:1.0",
        "u0 = constant:0.0",
        f"b0 = {b0!r}",
        "b1 = 0.0",
        "",
        "[schedule]",
        f"t_star = {t_star!r}",
        f"t_end = {t_end!r}",
    ]
    if u_in is not None:
        lines += [f"u_in = constant:{u_in!r}", "rho_in = constant:1.0"]
    lines.append(f"u_out = constant:{u_out!r}")
    return "\n".join(lines) + "\n"


def _cli_sweep(rng: random.Random) -> List[Op]:
    k = 8
    u_in = _stratified(rng, k, 0.05, 0.3)
    u_out = _stratified(rng, k, 0.05, 0.3)
    rng.shuffle(u_out)
    return [
        Op("cli", f"u_in={a} u_out={-b}",
           ini=scenario_ini(n_cells=128, u_in=a, u_out=-b))
        for a, b in zip(u_in, u_out)
    ]


def _depletion_sweep(rng: random.Random) -> List[Op]:
    # criterion 7's family: every run ends in contact or depletion
    return [
        Op("inproc", f"u_out={-u}", ini=scenario_ini(
            n_cells=48, u_in=None, u_out=-u, mu=0.5, stiffness_K=4.0,
            damping_l=1.0, b_rest=0.0, dt_initial=2e-3, b0=0.25,
            t_star=0.0, t_end=30.0,
        ))
        for u in _stratified(rng, 3, 0.55, 1.05)
    ]


def _fine_grid(rng: random.Random) -> List[Op]:
    # an antithetic pair: the step count grows with |u|, so a low draw is
    # paired with its mirror in the range and the pass total stays level
    lo, hi = 0.05, 0.3
    a = round(lo + rng.random() * (hi - lo) / 2, 4)
    b = round(lo + rng.random() * (hi - lo) / 2, 4)
    pairs = [(a, b), (round(lo + hi - a, 4), round(lo + hi - b, 4))]
    return [
        Op("inproc", f"u_in={x} u_out={-y}",
           ini=scenario_ini(n_cells=4096, u_in=x, u_out=-y))
        for x, y in pairs
    ]


def _verify(rng: random.Random) -> List[Op]:
    u_out = round(-(0.08 + 0.04 * rng.random()), 4)
    return [
        Op("smooth_study", "criterion 5 smooth case"),
        Op("diffusion_study", "criterion 5 diffusion case"),
        Op("fixed_point", f"criterion 6 u_out={u_out}", u_out=u_out),
    ]


def make_pass(workload: str, seed: int) -> List[Op]:
    """The operations of one pass; the same seed gives the same operations."""
    builders = {
        "cli_sweep": _cli_sweep,
        "depletion_sweep": _depletion_sweep,
        "fine_grid": _fine_grid,
        "verify": _verify,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r} (valid: {', '.join(WORKLOADS)})")
    return builders[workload](random.Random(f"{workload}:{seed}"))
