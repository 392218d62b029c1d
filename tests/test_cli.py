"""Configuration parsing and the command-line surface."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pistonflow
from pistonflow import GridState, NumericsConfig, Params, PistonState, SimState
from pistonflow.cli import main, render_series_csv, simulate_scenario
from pistonflow.config import ConfigError, OutputConfig, parse_config
from pistonflow.diagnostics import CSV_COLUMNS
from pistonflow.run import run_simulation, snapshot_of, state_from_snapshot

EQUILIBRIUM_INI = """
[params]
mu = 1.0
gamma = 1.4
stiffness_K = 1.0
damping_l = 0.5
b_rest = 1.0

[numerics]
n_cells = 32
dt_initial = 2e-3

[initial]
rho0 = constant:1.0
u0 = constant:0.0
b0 = 2.0
b1 = 0.0

[schedule]
t_star = 0.3
t_end = 0.3
u_in = constant:0.0
rho_in = constant:1.0

[outputs]
snapshot_every = 0
"""

OUTFLOW_INI = """
[params]
mu = 1.0
gamma = 1.4
stiffness_K = 1.0
damping_l = 0.5
b_rest = 0.0

[numerics]
n_cells = 24
dt_initial = 2e-3

[initial]
rho0 = constant:1.0
u0 = constant:0.0
b0 = 1.0
b1 = 0.0

[schedule]
t_star = 0.0
t_end = 0.4
u_out = constant:-0.2
"""


class TestParseConfig:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.params.gamma == 1.4
        assert cfg.params.mu == 1.0
        assert cfg.numerics.n_cells == 128
        assert cfg.numerics.picard_tol == 1e-10
        assert cfg.initial.b0 == 2.0
        assert cfg.schedule.t_star == 0.5
        assert cfg.outputs.directory == "out"

    def test_empty_text_gives_dataclass_defaults(self):
        cfg = parse_config("")
        assert cfg.params == Params()
        assert cfg.numerics == NumericsConfig()
        assert cfg.outputs == OutputConfig()

    def test_gamma_below_one_rejected_with_invariant(self):
        with pytest.raises(ConfigError, match="gamma must be > 1"):
            parse_config("[params]\ngamma = 0.9\n")

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ConfigError, match="valid:.*gamma"):
            parse_config("[params]\ngama = 1.4\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[paramz]\nmu = 1.0\n")

    def test_malformed_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config("[params]\nmu = fast\n")

    def test_tabulated_u_out_with_positive_sample_rejected(self, tmp_path):
        table = tmp_path / "uout.csv"
        table.write_text("0.0,-0.5\n0.2,0.1\n0.4,-0.5\n")
        text = f"[schedule]\nt_star = 0.0\nt_end = 0.4\nu_out = tabulated:{table}\n"
        with pytest.raises(ConfigError, match="nonpositive"):
            parse_config(text)

    def test_tabulated_function_interpolates(self, tmp_path):
        table = tmp_path / "uout.csv"
        table.write_text("0.0,-0.4\n1.0,-0.2\n")
        text = f"[schedule]\nt_star = 0.0\nt_end = 1.0\nu_out = tabulated:{table}\n"
        cfg = parse_config(text)
        assert cfg.schedule.u_out(0.5) == pytest.approx(-0.3)
        # constant extrapolation outside the table
        assert cfg.schedule.u_out(2.0) == pytest.approx(-0.2)

    def test_ramp_and_sinusoid_presets(self):
        text = (
            "[schedule]\nt_star = 1.0\nt_end = 2.0\n"
            "u_in = ramp:0.2,0.4\nrho_in = sinusoid:1.0,0.1,1.0\n"
            "u_out = constant:-0.1\n"
        )
        cfg = parse_config(text)
        assert cfg.schedule.u_in(0.0) == pytest.approx(0.2)
        assert cfg.schedule.u_in(1.0) == pytest.approx(0.4)
        assert cfg.schedule.rho_in(0.0) == pytest.approx(1.0)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config("[initial]\nrho0 = quadratic:1.0\n")

    def test_nonpositive_b0_rejected(self):
        with pytest.raises(ConfigError, match="b0"):
            parse_config("[initial]\nb0 = -1.0\n")

    def test_nonpositive_rho0_rejected(self):
        with pytest.raises(ConfigError, match="rho0"):
            parse_config("[initial]\nrho0 = constant:-2.0\n")

    @pytest.mark.parametrize("content", ["0.0\n1.0\n", ""],
                             ids=["one-column", "no-rows"])
    def test_tabulated_preset_without_t_value_rows_rejected(self, tmp_path, content):
        table = tmp_path / "uout.csv"
        table.write_text(content)
        text = f"[schedule]\nt_star = 0.0\nt_end = 1.0\nu_out = tabulated:{table}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^\[schedule\] u_out: .*t,value"):
                parse_config(text)


def out_option(command, tmp_path):
    """``--out`` for ``run``; ``estimate-contact`` writes no file and has none."""
    return ["--out", str(tmp_path / "out")] if command == "run" else []


class TestRunCommand:
    @pytest.mark.filterwarnings("ignore:u_in touches zero")
    def test_equilibrium_run_artifacts(self, tmp_path):
        ini = tmp_path / "eq.ini"
        ini.write_text(EQUILIBRIUM_INI)
        out = tmp_path / "out"
        code = main(["run", "--config", str(ini), "--out", str(out)])
        assert code == 0
        series = (out / "series.csv").read_text()
        header = series.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "completed"
        assert summary["b_consistency_max_drift"] < 1e-10
        rows = np.loadtxt((out / "series.csv"), delimiter=",", skiprows=1)
        b_col = rows[:, CSV_COLUMNS.index("b")]
        assert np.max(np.abs(b_col - 2.0)) < 1e-10

    @pytest.mark.filterwarnings("ignore:u_in touches zero")
    def test_cfl_violating_dt_adapts(self, tmp_path):
        ini = tmp_path / "eq.ini"
        ini.write_text(EQUILIBRIUM_INI.replace("dt_initial = 2e-3",
                                               "dt_initial = 1.0"))
        out = tmp_path / "out"
        code = main(["run", "--config", str(ini), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "completed"

    def test_outflow_run_exit_zero_and_columns(self, tmp_path):
        ini = tmp_path / "of.ini"
        ini.write_text(OUTFLOW_INI)
        out = tmp_path / "out"
        code = main(["run", "--config", str(ini), "--out", str(out)])
        assert code == 0
        rows = np.loadtxt((out / "series.csv"), delimiter=",", skiprows=1)
        eta_col = rows[:, CSV_COLUMNS.index("eta")]
        assert np.all(np.diff(eta_col) <= 0.0)
        g_col = rows[:, CSV_COLUMNS.index("G_exponent")]
        assert np.all(np.isfinite(g_col))  # outflow-only run: G defined

    def test_two_phase_g_column_nan_then_finite(self, tmp_path):
        ini = tmp_path / "tp.ini"
        ini.write_text(
            "[params]\nb_rest = 0.0\n"
            "[numerics]\nn_cells = 24\ndt_initial = 2e-3\n"
            "[initial]\nb0 = 1.0\n"
            "[schedule]\nt_star = 0.15\nt_end = 0.3\n"
            "u_in = constant:0.2\nrho_in = constant:1.0\n"
            "u_out = constant:-0.2\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
        rows = np.loadtxt((out / "series.csv"), delimiter=",", skiprows=1)
        t_col = rows[:, 0]
        g_col = rows[:, CSV_COLUMNS.index("G_exponent")]
        inflow_rows = g_col[t_col < 0.15]
        # the switch writes a zero-duration record pair at t_star: the first
        # row at t >= t_star is still the inflow one
        outflow_rows = g_col[t_col >= 0.15][1:]
        assert np.all(np.isnan(inflow_rows))  # undefined before t_star
        assert outflow_rows.size > 0
        assert np.all(np.isfinite(outflow_rows))

    def test_depletion_scenario_exit_code_and_bound(self, tmp_path):
        ini = tmp_path / "dep.ini"
        ini.write_text(OUTFLOW_INI
                       .replace("u_out = constant:-0.2", "u_out = constant:-0.6")
                       .replace("t_end = 0.4", "t_end = 30.0")
                       .replace("stiffness_K = 1.0", "stiffness_K = 4.0")
                       .replace("b0 = 1.0", "b0 = 0.25"))
        out = tmp_path / "out"
        code = main(["run", "--config", str(ini), "--out", str(out)])
        assert code in (2, 3)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["event_time"] is not None
        assert summary["event_vs_bound_ok"] is True
        assert summary["event_time"] >= summary["contact_time_lower_bound"]

    @pytest.mark.parametrize("t_end", ["1e11", "1e12", "1e13"])
    def test_huge_t_end_keeps_the_inflow_phase(self, tmp_path, t_end):
        # the regime switch is tested against t_star's own scale, not t_end's
        ini = tmp_path / "long.ini"
        ini.write_text(f"[numerics]\nn_cells = 8\n[schedule]\nt_end = {t_end}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(ini), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "depleted"
        rows = np.loadtxt((out / "series.csv"), delimiter=",", skiprows=1)
        t_col, g_col = rows[:, 0], rows[:, CSV_COLUMNS.index("G_exponent")]
        assert np.all(np.isnan(g_col[t_col < 0.5]))  # inflow up to t_star
        assert np.count_nonzero(t_col == 0.5) == 2  # inflow row, then anchor
        assert np.all(np.isfinite(g_col[t_col > 0.5]))

    def test_horizon_does_not_move_a_run_that_ends_before_it(self, tmp_path):
        # the dt floor is measured against t, so a long horizon alone can
        # neither fail the outflow steps nor change them
        series = []
        for t_end in ("1e3", "1e13"):
            ini = tmp_path / f"t_end_{t_end}.ini"
            ini.write_text(f"[numerics]\nn_cells = 8\n[schedule]\nt_end = {t_end}\n")
            out = tmp_path / t_end
            assert main(["run", "--config", str(ini), "--out", str(out)]) == 3
            series.append((out / "series.csv").read_bytes())
        assert series[0] == series[1]

    def test_seed_free_flag(self, tmp_path):
        ini = tmp_path / "of.ini"
        ini.write_text(OUTFLOW_INI)
        out = tmp_path / "out"
        code = main(["run", "--config", str(ini), "--out", str(out),
                     "--seed-free"])
        assert code == 0

    def test_seed_free_flag_compares_the_summary(self, tmp_path, capsys,
                                                 monkeypatch):
        results = []

        def simulate(config):
            result = simulate_scenario(config)
            if results:  # the rerun: the same series, another summary
                result.summary["steps"] += 1
            results.append(result)
            return result

        monkeypatch.setattr("pistonflow.cli.simulate_scenario", simulate)
        ini = tmp_path / "of.ini"
        ini.write_text(OUTFLOW_INI)
        code = main(["run", "--config", str(ini), "--out", str(tmp_path / "out"),
                     "--seed-free"])
        assert code == 4 and len(results) == 2
        assert "determinism check failed" in capsys.readouterr().err

    def test_bad_config_exit_four(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[params]\ngamma = 0.5\n")
        code = main(["run", "--config", str(ini)])
        assert code == 4

    @pytest.mark.parametrize("section,key,value", [
        ("initial", "b1", "nan"),
        ("params", "b_rest", "nan"),
        ("params", "mu", "inf"),
        ("schedule", "u_out", "constant:nan"),
        ("schedule", "t_end", "inf"),
        # finite arguments whose derived constants overflow
        ("initial", "rho0", "sinusoid:1,0.5,1e308"),
        ("initial", "rho0", "ramp:-1e308,1e308"),
        # finite samples whose total mass overflows
        ("initial", "rho0", "constant:1e308"),
        ("schedule", "u_out", "sinusoid:-0.1,0.05,1e308"),
    ])
    def test_non_finite_value_names_key_and_exits_four(
        self, tmp_path, capsys, section, key, value
    ):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[numerics]\nn_cells = 8\n[{section}]\n{key} = {value}\n")
        code = main(["run", "--config", str(ini), "--out", str(tmp_path / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: [{section}] {key}:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("section,key,value", [
        ("initial", "b1", "1e300"),  # b_dot ** 2 of the initial record
        ("params", "mu", "1e-300"),  # exp(G) at the outflow anchor
    ])
    def test_overflowing_monitors_fail_with_summary(
        self, tmp_path, section, key, value
    ):
        ini = tmp_path / "huge.ini"
        ini.write_text(f"[numerics]\nn_cells = 8\n[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["run", "--config", str(ini), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert code == summary["exit_code"] == 4
        assert summary["status"] == "failed"
        assert "overflow" in summary["failure_message"]

    @pytest.mark.parametrize("section,key,value", [
        ("initial", "b1", "1e300"),  # overflow in the initial record
        ("schedule", "u_out", "constant:-1e308"),  # dt bound of 1e-309 at t_star
    ])
    def test_failed_run_prints_its_cause_in_one_line(self, tmp_path, capsys,
                                                     section, key, value):
        ini = tmp_path / "fail.ini"
        ini.write_text(f"[numerics]\nn_cells = 8\n[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(ini), "--out", str(out)]) == 4
        summary = json.loads((out / "summary.json").read_text())
        captured = capsys.readouterr()
        assert captured.err == f"run failed: {summary['failure_message']}\n"
        assert captured.out.startswith("status: failed\n")

    def test_vanishing_stability_bound_fails_within_seconds(self, tmp_path):
        # gamma = 1e300 makes the acoustic dt bound about 1e-151
        ini = tmp_path / "stiff.ini"
        ini.write_text("[numerics]\nn_cells = 8\n[params]\ngamma = 1e300\n")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "pistonflow.cli", "run", "--config", str(ini),
             "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(pistonflow.__file__).parents[1])},
        )
        assert proc.returncode == 4, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert "stability bound" in summary["failure_message"]

    def test_u_out_ramp_to_zero_completes(self, tmp_path):
        # the T3 bound's horizon reaches t = 1, past t_end, where the ramp
        # preset extrapolates to a positive u_out
        ini = tmp_path / "ramp.ini"
        ini.write_text("[numerics]\nn_cells = 4\n[schedule]\nt_star = 0.0\n"
                       "t_end = 0.125\nu_out = ramp:-0.5,0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "completed"
        assert summary["contact_time_lower_bound"] == "inf"

    def test_step_below_the_time_resolution_fails_within_seconds(self, tmp_path):
        # the smallest subnormal dt: 1.1 times it rounds back to it, so dt
        # could neither grow nor, from t = 4.4e-308 on, move t
        ini = tmp_path / "tiny.ini"
        ini.write_text("[numerics]\nn_cells = 4\ndt_initial = 5e-324\n")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "pistonflow.cli", "run", "--config", str(ini),
             "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(pistonflow.__file__).parents[1])},
        )
        assert proc.returncode == 4, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failure_message"] == (
            "step dt=4.941e-324 at t=0 is below the time resolution 1.000e-14")
        assert proc.stderr == f"run failed: {summary['failure_message']}\n"

    # in a child process: in this one, pytest turns a numpy RuntimeWarning
    # into an exception instead of printing it
    def test_huge_viscosity_prints_one_line(self, tmp_path):
        ini = tmp_path / "viscous.ini"
        ini.write_text("[numerics]\nn_cells = 8\n[params]\nmu = 1e308\n")
        proc = subprocess.run(
            [sys.executable, "-m", "pistonflow.cli", "run", "--config", str(ini),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(pistonflow.__file__).parents[1])},
        )
        assert proc.returncode == 4
        assert proc.stderr == ("internal error: ValueError: momentum system: "
                               "array must not contain infs or NaNs\n")

    def test_huge_outflow_prints_no_numpy_warning(self, tmp_path):
        ini = tmp_path / "outflow.ini"
        ini.write_text("[numerics]\nn_cells = 8\n[schedule]\n"
                       "u_out = constant:-1e308\n")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "pistonflow.cli", "run", "--config", str(ini),
             "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(pistonflow.__file__).parents[1])},
        )
        assert proc.returncode == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "failed"
        assert "stability bound" in summary["failure_message"]
        # the cause, in one line, and no numpy warning
        assert proc.stderr == f"run failed: {summary['failure_message']}\n"

    @pytest.mark.parametrize("command", ["run", "estimate-contact"])
    @pytest.mark.parametrize("extra", [
        ["--cells", "2"],
        ["--dt", "nan"],
        ["--dt", "-1"],
        ["--config", "/nonexistent/missing.ini"],
    ], ids=["cells=2", "dt=nan", "dt=-1", "missing-config"])
    def test_bad_override_or_missing_file_exits_four(
        self, tmp_path, capsys, command, extra
    ):
        ini = tmp_path / "of.ini"
        ini.write_text(OUTFLOW_INI)
        code = main([command, "--config", str(ini), *out_option(command, tmp_path),
                     *extra])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "x.ini", "--cells", "abc"],
        ["run"],
        ["verify", "nope"],
        ["estimate-contact", "--config", "x.ini", "--out", "out"],
    ], ids=["cells=abc", "no-config", "unknown-suite", "estimate-contact-out"])
    def test_usage_error_exits_four_not_contact(self, capsys, argv):
        # argparse's own code 2 would read as piston contact
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4
        assert "error: " in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "-h"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("command", ["run", "estimate-contact"])
    def test_unexpected_exception_is_one_line_and_exits_four(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("pistonflow.cli.run_simulation", boom)
        ini = tmp_path / "of.ini"
        ini.write_text(OUTFLOW_INI)
        code = main([command, "--config", str(ini), *out_option(command, tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"

    def test_cells_override(self, tmp_path):
        ini = tmp_path / "of.ini"
        ini.write_text(OUTFLOW_INI)
        out = tmp_path / "out"
        code = main(["run", "--config", str(ini), "--out", str(out),
                     "--cells", "16"])
        assert code == 0
        snap_free = json.loads((out / "summary.json").read_text())
        assert snap_free["status"] == "completed"


class TestDeterminismAndSnapshots:
    def test_byte_identical_reruns(self, tmp_path):
        ini = tmp_path / "of.ini"
        ini.write_text(OUTFLOW_INI)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
            outs.append((out / "series.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_snapshot_resume_reproduces_trajectory(self, tmp_path):
        from pistonflow.config import parse_config

        for u_out in ("-0.2", "-0.8"):
            ini_text = OUTFLOW_INI.replace("u_out = constant:-0.2",
                                           f"u_out = constant:{u_out}")
            ini = tmp_path / f"of{u_out}.ini"
            ini.write_text(ini_text + "\n[outputs]\nsnapshot_every = 10\n")
            out = tmp_path / f"out{u_out}"
            assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
            snaps = sorted(out.glob("snapshot_*.json"))
            assert len(snaps) >= 3
            # snaps[0] is the initial state, snaps[1] the state after step 10
            snap = state_from_snapshot(json.loads(snaps[1].read_text()))
            cfg = parse_config(ini_text)
            resumed = run_simulation(cfg.params, cfg.numerics, cfg.schedule,
                                     snap)
            rows = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)[10:]
            assert rows.shape[0] == len(resumed.series) > 20
            for col_name in ("t", "b", "b_dot", "eta", "mass_eulerian", "energy",
                             "min_v", "max_v"):
                col = CSV_COLUMNS.index(col_name)
                assert np.array_equal(
                    resumed.series.column(col_name), rows[:, col]
                ), (u_out, col_name)

    def test_snapshot_round_trip_keeps_eta_dot_hint(self):
        grid = GridState(v=np.ones(8), u=np.zeros(9), eta=1.0)
        state = SimState(t=0.25, grid=grid, piston=PistonState(b=1.0, b_dot=0.0),
                         regime="outflow", dt_next=1e-3, eta_dot_hint=-0.1234567891)
        data = json.loads(json.dumps(snapshot_of(state)))
        assert state_from_snapshot(data).eta_dot_hint == -0.1234567891
        # files written without the hint load it as None
        del data["eta_dot_hint"]
        assert state_from_snapshot(data).eta_dot_hint is None
        with pytest.raises(ValueError, match="eta_dot_hint"):
            state_from_snapshot({**data, "eta_dot_hint": "nan"})
        with pytest.raises(ValueError, match="t must be finite"):
            state_from_snapshot({**data, "t": float("nan")})


class TestEstimateContact:
    def test_reports_bound_and_event(self, tmp_path, capsys):
        ini = tmp_path / "dep.ini"
        ini.write_text(OUTFLOW_INI
                       .replace("u_out = constant:-0.2", "u_out = constant:-0.6")
                       .replace("t_end = 0.4", "t_end = 30.0")
                       .replace("stiffness_K = 1.0", "stiffness_K = 4.0")
                       .replace("b0 = 1.0", "b0 = 0.25"))
        code = main(["estimate-contact", "--config", str(ini)])
        captured = capsys.readouterr().out
        assert "cannot happen before" in captured
        assert code in (0, 2, 3)

    def test_unbounded_case(self, tmp_path, capsys):
        ini = tmp_path / "of.ini"
        ini.write_text(OUTFLOW_INI.replace("u_out = constant:-0.2",
                                           "u_out = constant:0.0"))
        code = main(["estimate-contact", "--config", str(ini)])
        captured = capsys.readouterr().out
        assert "unbounded" in captured
        assert code == 0

    @pytest.mark.parametrize("key,value,cause", [
        ("mu", "1e-300", "overflow"),
        ("gamma", "1e300", "stability bound"),
    ])
    def test_failed_coarse_run_reports_failure(self, tmp_path, capsys, key,
                                               value, cause):
        ini = tmp_path / "fail.ini"
        ini.write_text(f"[params]\n{key} = {value}\n[schedule]\nt_star = 0.0\n"
                       "[numerics]\nn_cells = 16\n")
        code = main(["estimate-contact", "--config", str(ini)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 4
        assert lines[-1].startswith("coarse simulation failed: ")
        assert cause in lines[-1]
        assert not any("completed" in line for line in lines)

    @pytest.mark.parametrize("section,key,value", [
        ("params", "mu", "1e-300"),  # fails at the t_star anchor row
        ("initial", "b1", "1e300"),  # fails at t = 0, in the inflow phase
    ])
    def test_coarse_run_failing_before_outflow_reports_failure(
            self, tmp_path, capsys, section, key, value):
        ini = tmp_path / "fail.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n[numerics]\nn_cells = 16\n")
        code = main(["estimate-contact", "--config", str(ini)])
        captured = capsys.readouterr()
        assert code == 4
        assert len(captured.out.splitlines()) == 1
        assert captured.out.startswith("coarse simulation failed: "
                                       "floating-point overflow at t=")
        assert "never reached" not in captured.err


class TestVerifyCommand:
    def test_manufactured_suite_passes_and_prints(self, capsys):
        code = main(["verify", "manufactured"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out
        assert "order" in out

    def test_raising_criterion_fails_in_one_line_and_the_rest_run(
            self, monkeypatch, capsys):
        from pistonflow import acceptance

        def criterion_broken():
            raise ValueError("non-monotone convergence errors:\n[1.0, 2.0]")

        def criterion_fine():
            return acceptance.CriterionCheck("fine", True, "ok")

        monkeypatch.setitem(acceptance.SUITES, "budget",
                            [criterion_broken, criterion_fine])
        code = main(["verify", "budget"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines() == [
            "[FAIL] criterion_broken: ValueError: non-monotone convergence "
            "errors: [1.0, 2.0]",
            "[PASS] fine: ok",
        ]
        assert "Traceback" not in captured.err
        assert "criterion_broken" in captured.err


class TestSeriesRendering:
    def test_round_trip_floats(self):
        from pistonflow.config import parse_config

        cfg = parse_config(OUTFLOW_INI)
        result = simulate_scenario(cfg)
        text = render_series_csv(result)
        rows = text.splitlines()
        assert rows[0] == ",".join(CSV_COLUMNS)
        parsed = [float(x) for x in rows[1].split(",")]
        assert parsed[CSV_COLUMNS.index("eta")] == result.series.column("eta")[0]
