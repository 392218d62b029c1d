"""Command-line entry point: run scenarios, estimate contact, verify.

Exit status contract (stable interface for sweep scripts):
0 completed, 2 piston contact, 3 mass depletion, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Iterable, Iterator, List, Optional

import numpy as np

from .config import ConfigError, ScenarioConfig, load_config
from .coords import EulerianField
from .diagnostics import CSV_COLUMNS
from .run import (
    EXIT_FAILURE,
    RunResult,
    build_initial_state,
    contact_bound_of,
    run_simulation,
    snapshot_of,
)

_INIT_SAMPLES_PER_CELL = 4


def _initial_field(config: ScenarioConfig, n_cells: int) -> EulerianField:
    b0 = config.initial.b0
    xs = np.linspace(0.0, b0, _INIT_SAMPLES_PER_CELL * n_cells + 1)
    rho = np.array([float(config.initial.rho0(x)) for x in xs])
    u = np.array([float(config.initial.u0(x)) for x in xs])
    return EulerianField(x=xs, rho=rho, u=u, b=b0)


def simulate_scenario(config: ScenarioConfig) -> RunResult:
    """Library-level equivalent of the ``run`` subcommand (no file output)."""
    field = _initial_field(config, config.numerics.n_cells)
    state, correction = build_initial_state(
        field, config.initial.b1, config.schedule, config.numerics
    )
    return run_simulation(
        config.params,
        config.numerics,
        config.schedule,
        state,
        snapshot_every=config.outputs.snapshot_every,
        initial_bdot_correction=correction,
    )


def render_series_csv(result: RunResult) -> str:
    """Deterministic CSV text of the recorded series (fixed column order)."""
    columns = [result.series.column(name).tolist() for name in CSV_COLUMNS]
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(map(repr, row)) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def render_summary_json(result: RunResult) -> str:
    return json.dumps(result.summary, indent=2, sort_keys=True) + "\n"


def _output_files(result: RunResult, config: ScenarioConfig) -> Iterator[tuple]:
    """Every output file of a run, one ``(name, text)`` at a time."""
    yield config.outputs.series, render_series_csv(result)
    yield config.outputs.summary, render_summary_json(result)
    for index, state in enumerate(result.snapshots):
        yield f"snapshot_{index:06d}.json", json.dumps(snapshot_of(state)) + "\n"


def _write_outputs(files: Iterable[tuple], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    numerics = config.numerics
    try:
        if args.cells is not None:
            numerics = dataclasses.replace(numerics, n_cells=args.cells)
        if args.dt is not None:
            numerics = dataclasses.replace(numerics, dt_initial=args.dt)
    except ValueError as exc:
        raise ConfigError(f"command-line override: {exc}") from exc
    outputs = config.outputs
    if args.out is not None:
        outputs = dataclasses.replace(outputs, directory=args.out)
    return dataclasses.replace(config, numerics=numerics, outputs=outputs)


def _internal_error_exits_four(command):
    """Turn an exception the command does not handle into one line and exit 4."""

    @functools.wraps(command)
    def guarded(args) -> int:
        try:
            return command(args)
        except Exception as exc:
            message = " ".join(str(exc).split())
            print(f"internal error: {type(exc).__name__}: {message}",
                  file=sys.stderr)
            return EXIT_FAILURE

    return guarded


@_internal_error_exits_four
def cmd_run(args) -> int:
    try:
        config = _apply_overrides(load_config(args.config), args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    result = simulate_scenario(config)
    if args.seed_free:
        again = simulate_scenario(config)
        if list(_output_files(result, config)) != list(_output_files(again, config)):
            print("determinism check failed: reruns differ", file=sys.stderr)
            return EXIT_FAILURE
    _write_outputs(_output_files(result, config), config.outputs.directory)
    summary = result.summary
    print(f"status: {summary['status']}")
    if result.event_time is not None:
        print(f"event time: {result.event_time!r}")
    for key in (
        "energy_budget_residual",
        "b_consistency_max_drift",
        "contact_time_lower_bound",
        "g_bound_max_ratio",
        "g_bound_ok",
        "step_rejections",
    ):
        if summary.get(key) is not None:
            print(f"{key}: {summary[key]!r}")
    return result.exit_code


@_internal_error_exits_four
def cmd_estimate_contact(args) -> int:
    try:
        config = _apply_overrides(load_config(args.config), args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if config.schedule.u_out is None:
        print("estimate-contact needs a nonempty outflow phase", file=sys.stderr)
        return EXIT_FAILURE
    coarse_cells = max(16, config.numerics.n_cells // 4)
    coarse = dataclasses.replace(
        config, numerics=dataclasses.replace(config.numerics, n_cells=coarse_cells)
    )
    result = simulate_scenario(coarse)
    contact = contact_bound_of(result.series, config.schedule, result.event_time)
    if contact is None:
        if result.exit_code == EXIT_FAILURE:  # failed at or before T*
            print(f"coarse simulation failed: {result.summary['failure_message']}")
        else:
            print("run never reached the outflow phase", file=sys.stderr)
        return EXIT_FAILURE
    eta_star, v_min, bound = contact
    print(f"eta at outflow start: {eta_star!r}")
    print(f"boundary specific volume lower bound: {v_min!r}")
    if math.isfinite(bound):
        print(f"contact/depletion cannot happen before t = {bound!r}")
    else:
        print("no depletion within the horizon (bound unbounded)")
    if result.event_time is not None:
        print(f"coarse simulation event: {result.status} at t = {result.event_time!r}")
    elif result.exit_code == EXIT_FAILURE:
        print(f"coarse simulation failed: {result.summary['failure_message']}")
    else:
        print(f"coarse simulation completed without contact (t_end = "
              f"{config.schedule.t_end!r})")
    return result.exit_code


def cmd_verify(args) -> int:
    from . import acceptance

    suites = {
        "equilibrium": acceptance.suite_equilibrium,
        "manufactured": acceptance.suite_manufactured,
        "fixed_point": acceptance.suite_fixed_point,
        "budget": acceptance.suite_budget,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    failed: List[str] = []
    for name in names:
        for check in suites[name]():
            status = "PASS" if check.passed else "FAIL"
            print(f"[{status}] {check.name}: {check.detail}")
            if not check.passed:
                failed.append(check.name)
    if failed:
        print(f"failed criteria: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pistonflow",
        description="1D viscous gas in a pipe closed by a spring-damper piston",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its artifacts")
    run_p.add_argument("--config", required=True, help="scenario file (INI)")
    run_p.add_argument("--out", help="output directory override")
    run_p.add_argument("--cells", type=int, help="n_cells override")
    run_p.add_argument("--dt", type=float, help="dt_initial override")
    run_p.add_argument(
        "--seed-free",
        action="store_true",
        help="assert determinism by running twice and comparing outputs",
    )
    run_p.set_defaults(func=cmd_run)

    est_p = sub.add_parser(
        "estimate-contact",
        help="lower bound on the contact/depletion time vs a coarse run",
    )
    est_p.add_argument("--config", required=True)
    est_p.add_argument("--out", help="output directory override")
    est_p.add_argument("--cells", type=int, help="n_cells override")
    est_p.add_argument("--dt", type=float, help="dt_initial override")
    est_p.set_defaults(func=cmd_estimate_contact, seed_free=False)

    ver_p = sub.add_parser("verify", help="run an acceptance suite")
    ver_p.add_argument(
        "suite",
        choices=["equilibrium", "manufactured", "fixed_point", "budget", "all"],
    )
    ver_p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
