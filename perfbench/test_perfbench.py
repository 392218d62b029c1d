"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
import time
import types

import pytest

import environment
from environment import SRC

sys.path.insert(0, str(SRC))

import run as bench_run  # noqa: E402
from scenarios import WORKLOADS, Op, make_pass  # noqa: E402
from stats import beyond, failed_share, percentile, tail_percentile  # noqa: E402
from tracer import TARGETS, Tracer, resolve, self_times  # noqa: E402


def _spans(*rows):
    """Tracer holding (name, start, end, parent) rows, in recording order."""
    tracer = Tracer()
    for name, start, end, parent in rows:
        tracer.name.append(tracer._intern(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(0)
    return tracer


def test_self_time_subtracts_children_at_every_level():
    t = _spans(("root", 0, 100, -1), ("a", 10, 40, 0), ("a.x", 20, 30, 1),
               ("b", 50, 90, 0))
    selfs = self_times(t.start, t.end, t.parent)
    assert selfs == [30, 20, 10, 40]
    assert sum(selfs) == 100


def test_self_time_clips_children_to_parent_and_merges_overlaps():
    # a child process span can start before its adopting span's clock read
    t = _spans(("root", 10, 100, -1), ("early", 0, 30, 0), ("overlap", 20, 50, 0))
    assert self_times(t.start, t.end, t.parent)[0] == 100 - 10 - 40


def test_nested_wrappers_record_parents_and_self_times_sum_to_root():
    tracer = Tracer()

    def leaf():
        return 3

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle, value_of=float)
    with tracer.span("root"):
        assert wrapped_middle() == 6
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["root", "middle", "leaf", "leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 1]
    assert tracer.values == {1: 6.0}
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    assert sum(selfs) == tracer.end[0] - tracer.start[0]


def test_adopted_child_spans_hang_below_the_given_span():
    child = Tracer()
    with child.span("pistonflow.import"):
        pass
    with child.span("cli.main"):
        with child.span("config.parse_config"):
            pass
    parent = Tracer()
    parent.op_id = 7
    with parent.span("op.cli") as root:
        pass
    parent.adopt(json.loads(json.dumps(child.export())), root)
    assert [parent.names[i] for i in parent.name] == [
        "op.cli", "pistonflow.import", "cli.main", "config.parse_config"]
    assert list(parent.parent) == [-1, 0, 0, 2]
    assert list(parent.op) == [7, 7, 7, 7]


@pytest.mark.parametrize("n, expected", [
    (19, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([5.0], 99) == 5.0


def test_failed_share_accounting():
    assert failed_share(8, 0) == 0.0
    assert failed_share(8, 2) == 0.25
    with pytest.raises(ValueError):
        failed_share(0, 0)
    with pytest.raises(ValueError):
        failed_share(3, 4)


def test_a_failed_check_and_a_changed_digest_both_count_as_failed(monkeypatch, tmp_path):
    digests = iter(["d1", "d2", "changed", "d2"])

    def run_op(op, workload, workdir, calibrate=None):
        return types.SimpleNamespace(key=op.label, digest=next(digests),
                                     ok=op.label != "bad", reason="", wall_ns=1, segments=[])

    monkeypatch.setitem(sys.modules, "ops", types.SimpleNamespace(run_op=run_op))
    ops = [Op("inproc", "good"), Op("inproc", "bad")]
    seen = {}
    results = bench_run.run_passes("depletion_sweep", ops, tmp_path, 0.0, seen).results
    results += bench_run.run_passes("depletion_sweep", ops, tmp_path, 0.0, seen).results
    # "bad" fails its check in both passes; "good" changes its digest in the second
    assert [r.ok for r in results] == [True, False, False, False]
    assert results[2].reason.startswith("output digest differs")
    assert failed_share(len(results), sum(not r.ok for r in results)) == 0.75


def test_an_operation_that_raises_counts_as_failed(monkeypatch, tmp_path):
    import ops

    def run_op(op, workload, workdir, calibrate=None):
        raise FloatingPointError("boom")

    monkeypatch.setattr(ops, "run_op", run_op)
    results = bench_run.run_passes("verify", [Op("smooth_study", "s")], tmp_path,
                                   0.0, {}).results
    assert [r.ok for r in results] == [False]
    assert results[0].reason == "FloatingPointError: boom"


def test_traced_pass_restores_every_patched_function():
    originals = [getattr(resolve(path), attr) for path, attr, _, _ in TARGETS]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for (path, attr, _, _), original in zip(TARGETS, originals):
                assert getattr(resolve(path), attr) is not original
            raise RuntimeError("a failing operation must not leave patches behind")
    for (path, attr, _, _), original in zip(TARGETS, originals):
        assert getattr(resolve(path), attr) is original
    import pistonflow.core

    assert "__post_init__" in vars(pistonflow.core.GridState)


def test_untraced_pass_after_a_traced_one_records_nothing(tmp_path):
    op = make_pass("verify", 0)[2]  # criterion 6: the shortest operation
    tracer = Tracer()
    traced = bench_run.run_passes("verify", [op], tmp_path, 0.0, {}, tracer)
    recorded = len(tracer)
    assert recorded > 100 and traced.results[0].ok
    untraced = bench_run.run_passes("verify", [op], tmp_path, 0.0, {})
    assert len(tracer) == recorded and untraced.results[0].ok

    setup = {"setup_s": 0.5, "import_s": 0.4, "parse_ms": 1.0, "n": 1}
    layer = bench_run.per_layer(setup, untraced, traced, tracer)
    assert set(bench_run.declared_metrics(trace=True)) <= set(layer)
    assert layer["trace.self_sum_error_max"][0] < 0.05
    assert layer["solver.whole_horizon_fixed_point.outer_iters"][0] >= 1
    e2e = bench_run.end_to_end(setup, untraced, peak_rss_kb=1024)
    assert set(bench_run.declared_metrics(trace=False)) == set(e2e)


def test_same_seed_same_inputs_and_seeds_differ():
    for workload in WORKLOADS:
        assert make_pass(workload, 3) == make_pass(workload, 3)
    assert make_pass("cli_sweep", 3) != make_pass("cli_sweep", 4)


def test_stratified_draws_cover_each_slice_of_the_range():
    ops = make_pass("depletion_sweep", 11)
    speeds = sorted(-float(op.label.split("=")[1]) for op in ops)
    for i, u in enumerate(speeds):
        assert 0.55 + i / 6 <= u <= 0.55 + (i + 1) / 6


def test_benchmark_json_declares_what_the_contract_requires():
    spec = json.loads((environment.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_scale_weights_each_segment_by_the_kernel_around_it():
    import machine

    ref = machine.REFERENCE_S
    assert machine.scale([100], [ref, ref], 1.0) == pytest.approx(1.0)
    # the second half ran at half speed: its kernel samples took twice as long
    assert machine.scale([50, 50], [ref, ref, 2 * ref], 1.0) == pytest.approx(
        (50 + 50 / 1.5) / 100)
    assert machine.scale([100], [ref, 4 * ref], 0.5) == pytest.approx(2.5 ** -0.5)
    assert set(machine.ELASTICITY) == set(WORKLOADS)
    with pytest.raises(ValueError):
        machine.scale([1, 2], [ref, ref], 1.0)


def test_calibration_pauses_are_left_out_of_wall_and_step_intervals():
    import ops

    op = make_pass("depletion_sweep", 0)[2]
    calls = []

    def calibrate():
        time.sleep(0.05)
        calls.append(1)
        return 0.03

    res = ops.run_inproc(op, "depletion_sweep", calibrate=calibrate)
    assert res.ok and len(res.segments) == len(calls) >= 1
    assert sum(w for w, _ in res.segments) < res.wall_ns
    assert max(res.intervals_ns) < 0.05e9
    assert len(res.intervals_ns) == res.steps - 1
