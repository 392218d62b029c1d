"""In-memory spans around pistonflow's public functions, and their self times.

The traced pass replaces each function in ``TARGETS`` in the namespace where
its caller looks it up (``pistonflow.run.step`` is what ``run_simulation``
calls, ``pistonflow.solver.transport_update`` what the Picard loop calls),
and ``restore`` puts every original back.  Nothing inside the program is
edited; the spans sit on the boundaries between its modules.

A span is (name, start, end, parent, operation) in ``perf_counter_ns``
units; spans of a CLI child process are adopted under the invocation span
that started it (the monotonic clock is shared between processes).  A span's
self time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

RUN_SPAN = "run.run_simulation"
DIAGNOSTIC_SPANS = (
    "diagnostics.energy",
    "diagnostics.total_mass_eulerian",
    "diagnostics.velocity_l2",
    "diagnostics.volume_bound_ratio",
)


def _picard_iterations(result) -> float:
    return float(result[2])


def _csv_rows(text) -> float:
    return float(text.count("\n") - 1)


#: (module or class path, attribute, span name, value taken from the result)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("pistonflow.cli", "run_simulation", RUN_SPAN, None),
    ("pistonflow.cli", "render_series_csv", "cli.render_series_csv", _csv_rows),
    ("pistonflow.config", "parse_config", "config.parse_config", None),
    ("pistonflow.run", "run_simulation", RUN_SPAN, None),
    ("pistonflow.run", "step", "solver.step", None),
    ("pistonflow.run", "pressure_q", "core.pressure_q", None),
    ("pistonflow.run", "energy", "diagnostics.energy", None),
    ("pistonflow.run", "total_mass_eulerian", "diagnostics.total_mass_eulerian", None),
    ("pistonflow.run", "velocity_l2", "diagnostics.velocity_l2", None),
    ("pistonflow.run", "volume_bound_ratio", "diagnostics.volume_bound_ratio", None),
    ("pistonflow.run", "energy_budget_residual", "diagnostics.energy_budget_residual", None),
    ("pistonflow.diagnostics", "contact_time_lower_bound",
     "diagnostics.contact_time_lower_bound", None),
    ("pistonflow.diagnostics", "reconstruct_eulerian", "coords.reconstruct_eulerian", None),
    ("pistonflow.diagnostics", "pressure_potential_Q", "core.pressure_potential_Q", None),
    ("pistonflow.solver", "eta_update_inflow", "solver.eta_update_inflow", None),
    ("pistonflow.solver", "eta_update_outflow_picard",
     "solver.eta_update_outflow_picard", _picard_iterations),
    ("pistonflow.solver", "coefficients_alpha_beta", "coords.coefficients_alpha_beta", None),
    ("pistonflow.solver", "transport_update", "solver.transport_update", None),
    ("pistonflow.solver", "momentum_piston_solve", "solver.momentum_piston_solve", None),
    ("pistonflow.solver", "dt_stability_bound", "solver.dt_stability_bound", None),
    ("pistonflow.solver", "pressure_q", "core.pressure_q", None),
    ("pistonflow.solver", "whole_horizon_fixed_point",
     "solver.whole_horizon_fixed_point", None),
    ("pistonflow.oracle", "coefficients_alpha_beta", "coords.coefficients_alpha_beta", None),
    ("pistonflow.oracle", "transport_update", "solver.transport_update", None),
    ("pistonflow.oracle", "momentum_piston_solve", "solver.momentum_piston_solve", None),
    ("pistonflow.oracle", "run_forced", "oracle.run_forced", None),
    ("pistonflow.oracle", "check_case", "oracle.check_case", None),
    ("pistonflow.oracle", "convergence_order", "oracle.convergence_order", None),
    ("pistonflow.core.GridState", "__post_init__", "core.GridState", None),
)


def resolve(path: str):
    """Import ``a.b`` as a module, or ``a.b.C`` as attribute C of module a.b."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records spans in flat arrays; one open-span stack (single thread)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.values: Dict[int, float] = {}
        self.op_id = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable, value_of: Optional[Callable] = None):
        """``fn`` recording one span per call (the hot path of the traced pass)."""
        nid = self._intern(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack, values = self.start, self.end, self._stack, self.values
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if value_of is not None:
                values[idx] = value_of(result)
            return result

        return traced

    def install(self, targets: Sequence[Tuple[str, str, str, Optional[Callable]]] = TARGETS) -> None:
        for path, attr, name, value_of in targets:
            owner = resolve(path)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, value_of))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets=TARGETS) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()

    def export(self) -> dict:
        """Columnar, JSON-ready copy of every span (the format ``adopt`` reads)."""
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "values": {str(i): v for i, v in self.values.items()},
        }

    def adopt(self, spans: dict, parent: int) -> None:
        """Append spans exported by a child process below span ``parent``."""
        base = len(self)
        ids = [self._intern(name) for name in spans["names"]]
        for nid, start, end, par in zip(spans["name"], spans["start"], spans["end"],
                                        spans["parent"]):
            self.name.append(ids[nid])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if par < 0 else base + par)
            self.op.append(self.op_id)
        for i, value in spans["values"].items():
            self.values[base + int(i)] = value


def self_times(start: Sequence[int], end: Sequence[int], parent: Sequence[int]) -> List[int]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval, so the self times of a
    properly nested tree add up exactly to the root's duration.
    """
    children: Dict[int, List[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out
