"""Per-layer metrics from the spans of a traced pass.

"Per step" divides by accepted steps (``summary["steps"]``) and counts only
spans inside a ``run.run_simulation`` span, so the oracle's own solver calls
on ``verify`` do not inflate them.  "Per call" and "ms" average over every
call.  A metric whose layer a workload never reaches reads 0.  Times are
scaled to the reference machine speed with their operation's factor (see
machine.py).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Sequence

from tracer import DIAGNOSTIC_SPANS, RUN_SPAN, Tracer, self_times

CORE_PREFIX = "core."


class SpanTotals:
    """Counts, inclusive and self nanoseconds per span name.

    Each span's times are multiplied by its operation's scale factor.
    """

    def __init__(self, tracer: Tracer, op_scale: Sequence[float]) -> None:
        names = [tracer.names[i] for i in tracer.name]
        scale = [op_scale[k] if k >= 0 else 1.0 for k in tracer.op]
        selfs = [s * f for s, f in zip(self_times(tracer.start, tracer.end, tracer.parent), scale)]
        in_run = [False] * len(names)
        self.count = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_ns = defaultdict(float)
        self.run_count = defaultdict(int)
        self.run_incl = defaultdict(float)
        self.run_self = defaultdict(float)
        self.run_value_sum = defaultdict(float)
        self.run_value_max = defaultdict(float)
        self.durations = defaultdict(list)
        self.op_self: Dict[int, float] = defaultdict(float)
        for i, name in enumerate(names):
            p = tracer.parent[i]
            # parents are recorded before their children
            in_run[i] = p >= 0 and (in_run[p] or names[p] == RUN_SPAN)
            dur = (tracer.end[i] - tracer.start[i]) * scale[i]
            self.count[name] += 1
            self.incl[name] += dur
            self.self_ns[name] += selfs[i]
            self.durations[name].append(dur)
            self.op_self[tracer.op[i]] += selfs[i]
            if in_run[i]:
                self.run_count[name] += 1
                self.run_incl[name] += dur
                self.run_self[name] += selfs[i]
                value = tracer.values.get(i)
                if value is not None:
                    self.run_value_sum[name] += value
                    self.run_value_max[name] = max(self.run_value_max[name], value)

    def us_per_call(self, name: str) -> float:
        return self.incl[name] / self.count[name] / 1e3 if self.count[name] else 0.0

    def mean_ms(self, name: str) -> float:
        return self.incl[name] / self.count[name] / 1e6 if self.count[name] else 0.0

    def median_s(self, name: str) -> float:
        durs = self.durations.get(name)
        return statistics.median(durs) / 1e9 if durs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_ops: Sequence, traced_passes: int) -> Dict[str, tuple]:
    """name -> (value, unit, sample count) for every span-derived metric."""
    tot = SpanTotals(tracer, [r.scale for r in traced_ops])
    steps = sum(r.steps for r in traced_ops)
    rejections = sum(r.rejections for r in traced_ops)
    wall = sum(r.wall_ns * r.scale for r in traced_ops)
    run_names = list(tot.run_count)

    core_run_ns = sum(tot.run_incl[n] for n in run_names if n.startswith(CORE_PREFIX))
    diag_run_ns = sum(tot.run_incl[n] for n in DIAGNOSTIC_SPANS)
    transport_calls = tot.run_count["solver.transport_update"]
    picard = "solver.eta_update_outflow_picard"
    fixed_point_iters = [r.extra["outer_iters"] for r in traced_ops if "outer_iters" in r.extra]
    cli_ops = [r for r in traced_ops if r.series_bytes]
    render_rows = sum(tracer.values.get(i, 0.0) for i in range(len(tracer))
                      if tracer.names[tracer.name[i]] == "cli.render_series_csv")

    def per_step(ns: float) -> float:
        return _ratio(ns / 1e3, steps)

    return {
        "core.GridState.per_step": (_ratio(tot.run_count["core.GridState"], steps), "1/step", steps),
        "core.pressure_q.calls_per_step": (_ratio(tot.run_count["core.pressure_q"], steps), "1/step", steps),
        "core.us_per_step": (per_step(core_run_ns), "us/step", steps),
        "coords.coefficients_alpha_beta.calls_per_step": (
            _ratio(tot.run_count["coords.coefficients_alpha_beta"], steps), "1/step", steps),
        "coords.coefficients_alpha_beta.us_per_call": (
            tot.us_per_call("coords.coefficients_alpha_beta"), "us",
            tot.count["coords.coefficients_alpha_beta"]),
        "coords.reconstruct_eulerian.us_per_call": (
            tot.us_per_call("coords.reconstruct_eulerian"), "us",
            tot.count["coords.reconstruct_eulerian"]),
        "solver.step.self_us_per_step": (per_step(tot.run_self["solver.step"]), "us/step", steps),
        "solver.eta_update_outflow_picard.self_us_per_step": (
            per_step(tot.run_self[picard]), "us/step", steps),
        "solver.picard.iters_per_step": (_ratio(tot.run_value_sum[picard], steps), "1/step", steps),
        "solver.picard.iters_max": (tot.run_value_max[picard], "count", tot.run_count[picard]),
        "solver.transport_update.calls_per_step": (_ratio(transport_calls, steps), "1/step", steps),
        "solver.transport_update.useful_ratio": (_ratio(steps, transport_calls), "ratio", transport_calls),
        "solver.transport_update.us_per_call": (
            tot.us_per_call("solver.transport_update"), "us", tot.count["solver.transport_update"]),
        "solver.momentum_piston_solve.us_per_call": (
            tot.us_per_call("solver.momentum_piston_solve"), "us",
            tot.count["solver.momentum_piston_solve"]),
        "solver.dt_stability_bound.us_per_call": (
            tot.us_per_call("solver.dt_stability_bound"), "us", tot.count["solver.dt_stability_bound"]),
        "solver.accept_ratio": (_ratio(steps, steps + rejections), "ratio", steps + rejections),
        "solver.whole_horizon_fixed_point.outer_iters": (
            statistics.median(fixed_point_iters) if fixed_point_iters else 0.0, "count",
            len(fixed_point_iters)),
        "solver.whole_horizon_fixed_point.s": (
            tot.median_s("solver.whole_horizon_fixed_point"), "s",
            tot.count["solver.whole_horizon_fixed_point"]),
        "diagnostics.us_per_step": (per_step(diag_run_ns), "us/step", steps),
        "diagnostics.share": (_ratio(diag_run_ns, wall), "ratio", len(traced_ops)),
        "diagnostics.energy_budget_residual.ms": (
            tot.mean_ms("diagnostics.energy_budget_residual"), "ms",
            tot.count["diagnostics.energy_budget_residual"]),
        "diagnostics.contact_time_lower_bound.ms": (
            tot.mean_ms("diagnostics.contact_time_lower_bound"), "ms",
            tot.count["diagnostics.contact_time_lower_bound"]),
        "run.self_us_per_step": (per_step(tot.self_ns[RUN_SPAN]), "us/step", steps),
        "run.share": (_ratio(tot.self_ns[RUN_SPAN], wall), "ratio", len(traced_ops)),
        "cli.render_series_csv.us_per_row": (
            _ratio(tot.incl["cli.render_series_csv"] / 1e3, render_rows), "us/row", int(render_rows)),
        "cli.series_bytes": (
            statistics.median(r.series_bytes for r in cli_ops) if cli_ops else 0.0, "B",
            len(cli_ops)),
        "oracle.run_forced.self_s": (
            _ratio(tot.self_ns["oracle.run_forced"] / 1e9, traced_passes), "s/pass", traced_passes),
        "oracle.run_forced.share": (_ratio(tot.self_ns["oracle.run_forced"], wall), "ratio",
                                    tot.count["oracle.run_forced"]),
        "oracle.check_case.ms": (tot.mean_ms("oracle.check_case"), "ms", tot.count["oracle.check_case"]),
        "trace.self_sum_error_max": (
            max(abs(tot.op_self[k] / r.scale - r.wall_ns) / r.wall_ns
                for k, r in enumerate(traced_ops)),
            "ratio", len(traced_ops)),
    }
