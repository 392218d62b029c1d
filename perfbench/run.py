"""pistonflow benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_sweep, depletion_sweep, fine_grid, verify (see README.md in
this directory).  Each is a closed loop with one client: the operations of a
pass run one at a time, and passes repeat until S seconds have gone by (at
least one pass).  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` spends the first half of the time untraced and
the second half traced, and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it give every metric with its unit and
sample count, the environment record and any failed operation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import environment
import machine
from environment import PACKAGE, PERFBENCH, ROOT, SRC, child_env
from scenarios import WORKLOADS, Op, make_pass
from stats import failed_share, percentile, tail_percentile

#: set-up probes per run, after one warm-up probe that is not counted
SETUP_PROBES = 7
WORK_ROOT = PERFBENCH / ".work"
REFERENCE_DIGESTS = PERFBENCH / "reference_digests.json"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed operation)."""


@dataclasses.dataclass
class Pass:
    results: list
    kernel_s: List[float]

    @property
    def raw_wall_s(self) -> float:
        return sum(r.wall_ns for r in self.results) / 1e9


@dataclasses.dataclass
class Phase:
    """The untraced or the traced passes of a run."""

    passes: List[Pass]

    @property
    def results(self) -> list:
        return [r for p in self.passes for r in p.results]

    @property
    def kernels(self) -> List[float]:
        return [k for p in self.passes for k in p.kernel_s]

    @property
    def wall_s(self) -> float:
        """Wall of one pass at the reference machine speed.

        The sum over the pass's operations of each one's median scaled wall
        across the passes of the phase.
        """
        return sum(
            statistics.median(p.results[i].wall_ns * p.results[i].scale for p in self.passes)
            for i in range(len(self.passes[0].results))
        ) / 1e9


def measure_setup(op: Op, workdir: Path) -> dict:
    """Fresh interpreters importing the CLI and preparing the first scenario.

    Every time is scaled to the reference machine speed by the calibration
    kernel run on either side of the probe.
    """
    op_path = workdir / "setup_op.json"
    op_path.write_text(json.dumps(dataclasses.asdict(op)), encoding="utf-8")
    walls, probes = [], []
    before = machine.kernel_s()
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "probe.py"), str(op_path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-800:]}")
        after = machine.kernel_s()
        factor = machine.scale([wall], [before, after], machine.SETUP_ELASTICITY)
        before = after
        if i > 0:  # the warm-up byte-compiles the package in a fresh checkout
            walls.append(wall * factor)
            probe = json.loads(proc.stdout.splitlines()[-1])
            probes.append({k: v * factor for k, v in probe.items()})
    return {
        "setup_s": statistics.median(walls),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "parse_ms": statistics.median(p["parse_ms"] for p in probes),
        "n": len(walls),
    }


def run_passes(workload: str, pass_ops: List[Op], workdir: Path, until: float,
               digests: Dict[str, str], tracer=None) -> Phase:
    """Whole passes until the clock passes ``until`` (at least one).

    The calibration kernel runs before the first operation and after each
    one, and inside untraced in-process runs; an operation's ``scale`` comes
    from the samples around and inside it.
    """
    import ops as op_runner

    passes: List[Pass] = []
    before = machine.kernel_s()
    while not passes or time.perf_counter() < until:
        results, kernels = [], []
        for op in pass_ops:
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    res = op_runner.run_op(op, workload, workdir, calibrate=machine.kernel_s)
                else:
                    op_id = sum(len(p.results) for p in passes) + len(results)
                    res = _run_traced(op_runner, op, workload, workdir, tracer, op_id)
            except Exception as exc:  # the program crashed: a failed operation
                traceback.print_exc()
                res = op_runner.OpResult(
                    label=op.label, key=op_runner.op_key(op),
                    wall_ns=time.perf_counter_ns() - t0, ok=False,
                    reason=f"{type(exc).__name__}: {exc}")
            after = machine.kernel_s()
            walls = [w for w, _ in res.segments]
            inside = [k for _, k in res.segments]
            res.scale = machine.scale(walls + [res.wall_ns - sum(walls)],
                                      [before, *inside, after], machine.ELASTICITY[workload])
            kernels += inside + [after]
            before = after
            seen = digests.setdefault(res.key, res.digest)
            if res.ok and res.digest != seen:
                res.ok, res.reason = False, "output digest differs from an earlier repetition"
            results.append(res)
        passes.append(Pass(results, kernels))
    return Phase(passes)


def _run_traced(op_runner, op: Op, workload: str, workdir: Path, tracer, op_id: int):
    tracer.op_id = op_id
    root_idx: List[int] = []

    @contextmanager
    def root():
        with tracer.span(f"op.{op.kind}") as idx:
            root_idx.append(idx)
            yield

    spans_path = workdir / "child_spans.json" if op.kind == "cli" else None
    with tracer.installed():
        res = op_runner.run_op(op, workload, workdir, root, spans_path)
    if spans_path is not None and spans_path.exists():
        tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")), root_idx[0])
        spans_path.unlink()
    tracer.op_id = -1
    return res


def end_to_end(setup: dict, untraced: Phase, peak_rss_kb: int) -> dict:
    return {
        "setup_s": (setup["setup_s"], "s", setup["n"]),
        "wall_s": (untraced.wall_s, "s", len(untraced.passes)),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB", len(untraced.results)),
    }


def step_metrics(untraced: Phase) -> dict:
    """Accepted-step rate and progress-callback intervals of untraced runs."""
    ops = [r for r in untraced.results if r.solve_ns]
    intervals = [i * r.scale for r in ops for i in r.intervals_ns]
    steps = sum(r.steps for r in ops)
    solve_s = sum(r.solve_ns * r.scale for r in ops) / 1e9
    n = len(intervals)
    p99_ok = tail_percentile(n) is not None and tail_percentile(n) >= 99.0
    return {
        "steps_per_s": (steps / solve_s if solve_s else 0.0, "1/s", len(ops)),
        "step_us_p50": (percentile(intervals, 50) / 1e3 if n else 0.0, "us", n),
        "step_us_p99": (percentile(intervals, 99) / 1e3 if p99_ok else 0.0, "us", n),
    }


def digest_mismatches(results: list) -> Tuple[int, int]:
    """(mismatches, compared) against the digests recorded at the seed commit."""
    reference = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    compared = [r for r in results if r.digest and r.key in reference]
    return sum(r.digest != reference[r.key] for r in compared), len(compared)


def per_layer(setup: dict, untraced: Phase, traced: Phase, tracer) -> dict:
    from layers import layer_metrics

    metrics = layer_metrics(tracer, traced.results, len(traced.passes))
    metrics.update(step_metrics(untraced))
    mismatches, compared = digest_mismatches(untraced.results + traced.results)
    kernels = untraced.kernels + traced.kernels
    metrics.update({
        "cli.series_digest_mismatches": (mismatches, "count", compared),
        "config.parse_config.ms": (setup["parse_ms"], "ms", setup["n"]),
        "pistonflow.import_s": (setup["import_s"], "s", setup["n"]),
        "trace.overhead_share": (traced.wall_s / untraced.wall_s - 1.0, "ratio",
                                 len(traced.passes)),
        "src.lines": (environment.src_lines()["total"], "lines", 1),
        "machine.kernel_ms": (1e3 * statistics.median(kernels), "ms", len(kernels)),
    })
    return metrics


def declared_metrics(trace: bool) -> List[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no pistonflow package under {SRC}; run from a checkout")
    wanted = declared_metrics(trace)
    ops = make_pass(workload, seed)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{workload}-{seed}-{time.time_ns()}"
    workdir.mkdir()
    try:
        first = next(op for op in ops if op.ini is not None or op.u_out is not None)
        setup = measure_setup(first, workdir)
        sys.path.insert(0, str(SRC))
        digests: Dict[str, str] = {}
        start = time.perf_counter()
        untraced = run_passes(workload, ops, workdir,
                              start + (seconds / 2 if trace else seconds), digests)
        if workload == "cli_sweep":
            peak_rss_kb = max(r.maxrss_kb for r in untraced.results)
        else:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        traced = Phase([])
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            traced = run_passes(workload, ops, workdir, start + seconds, digests, tracer)
            (WORK_ROOT / f"trace-{workload}.json").write_text(
                json.dumps(tracer.export()), encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = per_layer(setup, untraced, traced, tracer)
    else:
        metrics = end_to_end(setup, untraced, peak_rss_kb)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")

    results = untraced.results + traced.results
    failed = [r for r in results if not r.ok]
    print(f"workload {workload}, seed {seed}, {len(untraced.passes)} untraced and "
          f"{len(traced.passes)} traced passes of {len(ops)} operations")
    for label, phase in (("untraced", untraced), ("traced", traced)):
        if phase.passes:
            print(f"  {label}: raw pass walls (s) "
                  + " ".join(f"{p.raw_wall_s:.4f}" for p in phase.passes)
                  + f"; calibration kernel median {1e3 * statistics.median(phase.kernels):.2f} ms"
                  f" over {len(phase.kernels)} samples")
    for name in wanted:
        value, unit, n = metrics[name]
        print(f"  {name:52s} {value:>14.6g} {unit:8s} n={n}")
    print(f"  {'failed_share':52s} {failed_share(len(results), len(failed)):>14.6g} "
          f"{'ratio':8s} n={len(results)}")
    for r in failed:
        print(f"  FAILED {r.label}: {r.reason}")
    print("env " + json.dumps(environment.record(seed), sort_keys=True))
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum, _frame) -> None:
    # unwinds through the finally blocks: CLI children are killed and
    # reaped, and the work directory is removed
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
