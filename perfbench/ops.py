"""Running and checking one operation through pistonflow's public functions.

Every check uses the tolerances of ``pistonflow.acceptance`` (copied, never
looser).  The CLI operation runs ``python -m pistonflow.cli run`` as a child
process exactly as a sweep script would; the other operations call the
package in this process.  Module attributes are looked up at call time
(``pf_run.run_simulation``), so the traced pass sees these calls too.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

import numpy as np

import pistonflow.cli as pf_cli
import pistonflow.config as pf_config
import pistonflow.oracle as pf_oracle
import pistonflow.run as pf_run
import pistonflow.solver as pf_solver
from pistonflow.coords import EulerianField
from pistonflow.core import BoundarySchedule, GridState, Params, PistonState

from environment import PERFBENCH, ROOT, child_env
from scenarios import Op

# captured before any traced pass patches the module, so rendering the
# digest of an in-process run never shows up in the trace
_render_series_csv = pf_cli.render_series_csv

Root = Callable[[], ContextManager]

#: time between calibration samples inside an in-process run
CALIBRATION_PERIOD_NS = 500_000_000

#: samples of the initial profiles per cell, as the CLI uses
_INIT_SAMPLES_PER_CELL = 4


@dataclass
class OpResult:
    label: str
    key: str
    wall_ns: int
    ok: bool
    reason: str = ""
    steps: int = 0
    rejections: int = 0
    solve_ns: int = 0
    digest: str = ""
    series_bytes: int = 0
    maxrss_kb: int = 0
    intervals_ns: List[int] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: (segment wall, calibration kernel wall at its end) for each sample
    #: taken inside the operation; the last segment ends with the operation
    segments: List[Tuple[int, float]] = field(default_factory=list)
    #: raw wall -> wall at the reference machine speed (see machine.py)
    scale: float = 1.0


def op_key(op: Op) -> str:
    text = op.ini if op.ini is not None else f"{op.kind}:{op.u_out!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def initial_state(config):
    """Initial state of a parsed scenario, built as the ``run`` command does."""
    b0 = config.initial.b0
    n = config.numerics.n_cells
    xs = np.linspace(0.0, b0, _INIT_SAMPLES_PER_CELL * n + 1)
    rho = np.array([float(config.initial.rho0(x)) for x in xs])
    u = np.array([float(config.initial.u0(x)) for x in xs])
    field_in = EulerianField(x=xs, rho=rho, u=u, b=b0)
    return pf_run.build_initial_state(
        field_in, config.initial.b1, config.schedule, config.numerics
    )


def fixed_point_problem(u_out: float):
    """Criterion 6's scenario with the seeded outflow velocity."""
    params = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=0.0)
    sched = BoundarySchedule(t_star=0.0, t_end=0.05, u_out=lambda t: u_out)
    cfg = pf_solver.NumericsConfig(
        n_cells=64, dt_initial=1e-3, dt_growth=1.0, picard_tol=1e-10
    )
    grid = GridState(v=np.ones(64), u=np.zeros(65), eta=1.0)
    state = pf_solver.SimState(
        t=0.0, grid=grid, piston=PistonState(b=1.0, b_dot=0.0),
        regime="outflow", dt_next=1e-3,
    )
    return params, sched, cfg, state


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_depletion(summary: dict, status: str, event_time) -> str:
    """Criteria 7, 8 and 9 on one run; returns the first failure or ''."""
    bound = summary.get("contact_time_lower_bound")
    if status not in ("contact", "depleted"):
        return f"status {status}, expected contact or depleted"
    if not isinstance(bound, float) or event_time < bound - 1e-9:
        return f"event {event_time} below bound {bound}"
    ratio = summary.get("g_bound_max_ratio")
    if ratio is None or ratio > 1.05:
        return f"g_bound_max_ratio {ratio} > 1.05"
    if summary["picard_iterations_max"] > 5:
        return f"picard_iterations_max {summary['picard_iterations_max']} > 5"
    return ""


def run_inproc(op: Op, workload: str, root: Root = nullcontext,
               calibrate: Optional[Callable[[], float]] = None) -> OpResult:
    """One scenario through ``run_simulation``, timing every accepted step.

    With ``calibrate``, the progress callback runs it every half second; its
    time is left out of the wall and of the step intervals.
    """
    intervals: List[int] = []
    segments: List[Tuple[int, float]] = []
    clock = time.perf_counter_ns
    last: Optional[int] = None
    seg_start = paused = 0

    def progress(_state) -> None:
        nonlocal last, seg_start, paused
        now = clock()
        if last is not None:
            intervals.append(now - last)
        last = now
        if calibrate is not None and now - seg_start >= CALIBRATION_PERIOD_NS:
            segments.append((now - seg_start, calibrate()))
            last = seg_start = clock()
            paused += seg_start - now

    with root():
        t0 = seg_start = clock()
        config = pf_config.parse_config(op.ini)
        state, correction = initial_state(config)
        t1 = clock()
        result = pf_run.run_simulation(
            config.params, config.numerics, config.schedule, state,
            initial_bdot_correction=correction, progress=progress,
        )
        t2 = clock()
    summary = result.summary
    if workload == "depletion_sweep":
        reason = _check_depletion(summary, result.status, result.event_time)
    elif result.status != "completed":
        reason = f"status {result.status}, expected completed"
    else:
        reason = ""
    return OpResult(
        label=op.label, key=op_key(op), wall_ns=t2 - t0 - paused, ok=not reason,
        reason=reason, steps=summary["steps"],
        rejections=summary["step_rejections"], solve_ns=t2 - t1 - paused,
        digest=_digest(_render_series_csv(result)),
        intervals_ns=intervals, segments=segments,
    )


def run_cli(op: Op, workdir: Path, root: Root = nullcontext,
            spans_path: Optional[Path] = None) -> OpResult:
    """One ``pistonflow run`` child; traced when ``spans_path`` is given."""
    key = op_key(op)
    ini = workdir / f"{key}.ini"
    if not ini.exists():
        ini.write_text(op.ini, encoding="utf-8")
    out = workdir / "out"
    for name in ("series.csv", "summary.json"):
        (out / name).unlink(missing_ok=True)
    argv = ["run", "--config", str(ini), "--out", str(out)]
    if spans_path is None:
        cmd = [sys.executable, "-m", "pistonflow.cli", *argv]
    else:
        cmd = [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans_path), *argv]
    with root():
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            # the pipe holds at most a short error; drain it before reaping
            err = proc.stderr.read().decode(errors="replace")
            # wait4, not Popen.wait: the child's own peak RSS is wanted
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stderr.close()
        t1 = time.perf_counter_ns()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    res = OpResult(label=op.label, key=key, wall_ns=t1 - t0, ok=False,
                   maxrss_kb=usage.ru_maxrss)
    if code != 0:
        res.reason = f"exit code {code}: {err.strip()[-300:]}"
        return res
    series = (out / "series.csv").read_bytes()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    res.digest = hashlib.sha256(series).hexdigest()
    res.series_bytes = len(series)
    res.steps = summary["steps"]
    res.rejections = summary["step_rejections"]
    if summary.get("g_bound_ok") is not True:
        res.reason = f"g_bound_ok is {summary.get('g_bound_ok')}"
    elif summary.get("event_vs_bound_ok") is not True:
        res.reason = f"event_vs_bound_ok is {summary.get('event_vs_bound_ok')}"
    res.ok = not res.reason
    return res


def run_study(op: Op, root: Root = nullcontext) -> OpResult:
    """Criterion 5's two convergence studies, one per operation."""
    with root():
        t0 = time.perf_counter_ns()
        if op.kind == "smooth_study":
            res = pf_oracle.convergence_order(
                pf_oracle.smooth_case(), [32, 64, 128, 256], t_end=0.5, dt0=0.005
            )
        else:
            res = pf_oracle.convergence_order(
                pf_oracle.diffusion_case(), [16, 32, 64, 128],
                t_end=0.1, dt0=0.005, theta=0.5,
            )
        t1 = time.perf_counter_ns()
    if op.kind == "smooth_study":
        ok = res.order_v >= 1.0 and res.order_u >= 1.0
    else:
        ok = res.order_u >= 1.8
    reason = "" if ok else f"orders v={res.order_v:.3f} u={res.order_u:.3f} below threshold"
    return OpResult(label=op.label, key=op_key(op), wall_ns=t1 - t0, ok=ok,
                    reason=reason, digest=_digest(res.as_csv()))


def run_fixed_point(op: Op, root: Root = nullcontext) -> OpResult:
    """Criterion 6: contraction, convergence and per-step agreement."""
    params, sched, cfg, state = fixed_point_problem(op.u_out)
    with root():
        t0 = time.perf_counter_ns()
        traj, residuals = pf_solver.whole_horizon_fixed_point(
            state, sched, params, cfg, 0.05, max_outer=30
        )
        per_step = pf_run.run_simulation(params, cfg, sched, state)
        t1 = time.perf_counter_ns()
    ratios = [residuals[i + 1] / residuals[i]
              for i in range(len(residuals) - 1) if residuals[i] > 0]
    ts = per_step.series.column("t")
    etas = per_step.series.column("eta")
    gap = float(np.max(np.abs(np.interp(ts, traj[:, 0], traj[:, 1]) - etas)))
    max_flux = float(np.max(np.abs(np.diff(etas) / np.diff(ts))))
    tol = 2.0 * 1e-3 * max(max_flux, 1e-300)
    reason = ""
    if not all(r < 1.0 for r in ratios):
        reason = "outer residuals not contracting"
    elif not (len(residuals) <= 30 and residuals[-1] < 1e-10):
        reason = f"not converged after {len(residuals)} outer iterations"
    elif gap > tol:
        reason = f"per-step vs whole-horizon gap {gap:.2e} > {tol:.2e}"
    return OpResult(
        label=op.label, key=op_key(op), wall_ns=t1 - t0, ok=not reason,
        reason=reason, steps=per_step.summary["steps"],
        rejections=per_step.summary["step_rejections"],
        digest=_digest(repr(traj.tolist()) + _render_series_csv(per_step)),
        extra={"outer_iters": float(len(residuals))},
    )


def run_op(op: Op, workload: str, workdir: Path, root: Root = nullcontext,
           spans_path: Optional[Path] = None,
           calibrate: Optional[Callable[[], float]] = None) -> OpResult:
    """Run one operation; ``root`` brackets exactly the timed region.

    ``calibrate`` is sampled inside in-process runs (see ``run_inproc``).
    """
    if op.kind == "cli":
        return run_cli(op, workdir, root, spans_path)
    if op.kind == "inproc":
        return run_inproc(op, workload, root, calibrate)
    if op.kind == "fixed_point":
        return run_fixed_point(op, root)
    return run_study(op, root)
