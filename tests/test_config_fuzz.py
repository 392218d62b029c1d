"""Scenario files with arbitrary float strings.

Every INI text either parses or raises ``ConfigError``, and ``pistonflow
run`` on it exits 0, 2, 3 or 4 with at most one line on stderr: a warning
printed there counts as a line, as it would from the command line.  Each key
the text sets takes a value of its usual range or an arbitrary float string
(``nan``, ``inf``, ``-0``, ``1e308``, subnormals, any float's repr), so that
many texts run the solver.  Only ``n_cells`` and ``t_end`` are bounded, to
keep each run short.  The examples are derandomized: a valid text can still
ask for some 1e13 steps (a ``dt_initial`` of 1e-14 with ``dt_growth`` 1, or
a ``cfl_advection`` of 1e-7), so a fixed set keeps the test fast and
repeatable.  The ``@example`` texts are the defects that searches with other
seeds found, each mended since.
"""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pistonflow.cli import main
from pistonflow.config import ConfigError, ScenarioConfig, parse_config

NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0", "0", "1", "-1", "1e308",
                     "-1e308", "1e-308", "5e-324", "1e300", "-1e-300"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
PRESET = st.one_of(
    st.builds("constant:{}".format, NUMBER),
    st.builds("ramp:{},{}".format, NUMBER, NUMBER),
    st.builds("sinusoid:{},{},{}".format, NUMBER, NUMBER, NUMBER),
)


def usual(lo, hi, preset=False):
    """A float of [lo, hi] as text, or a constant preset of it."""
    values = st.floats(lo, hi).map(repr)
    return values.map("constant:{}".format) if preset else values


# each key: (its usual values, its arbitrary ones)
KEYS = {
    "params": {
        "mu": (usual(0.05, 4.0), NUMBER),
        "gamma": (usual(1.05, 3.0), NUMBER),
        "stiffness_K": (usual(0.0, 4.0), NUMBER),
        "damping_l": (usual(0.0, 4.0), NUMBER),
        "b_rest": (usual(0.0, 3.0), NUMBER),
    },
    "numerics": {
        "dt_initial": (usual(1e-4, 1e-2), NUMBER),
        "cfl_advection": (usual(0.05, 1.0), NUMBER),
        "picard_tol": (usual(1e-12, 1e-6), NUMBER),
        "theta_viscous": (usual(0.5, 1.0), NUMBER),
        "dt_growth": (usual(1.0, 2.0), NUMBER),
    },
    "initial": {
        "b0": (usual(0.1, 3.0), NUMBER),
        "b1": (usual(-1.0, 1.0), NUMBER),
        "rho0": (usual(0.1, 3.0, preset=True), PRESET),
        "u0": (usual(-1.0, 1.0, preset=True), PRESET),
    },
    "schedule": {
        "t_star": (usual(0.0, 0.1), NUMBER),
        # short horizons, or values that fail validation at once
        "t_end": (usual(0.1, 0.2),
                  st.sampled_from(["nan", "inf", "-0", "0", "-1e308"])),
        "u_in": (usual(0.0, 1.0, preset=True), PRESET),
        "rho_in": (usual(0.1, 3.0, preset=True), PRESET),
        "u_out": (usual(-2.0, 0.0, preset=True), PRESET),
    },
}


@st.composite
def scenario_text(draw):
    """INI text with 4 to 12 cells, t_star and a short t_end, that sets each
    other key one time in three; a key takes one of its usual values two
    times in three."""
    lines = []
    for section, keys in KEYS.items():
        lines.append(f"[{section}]")
        if section == "numerics":
            lines.append(f"n_cells = {draw(st.integers(4, 12))}")
        for key, (common, arbitrary) in keys.items():
            if key in ("t_star", "t_end") or draw(st.integers(0, 2)) == 0:
                values = arbitrary if draw(st.integers(0, 2)) == 0 else common
                lines.append(f"{key} = {draw(values)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=scenario_text())
# a closed inflow end with an invalid density: a warning, then the error
@example(text="[numerics]\nn_cells = 4\n[schedule]\nu_in = constant:0.0\n"
              "rho_in = constant:0.0\n")
# a closed inflow end and a run that fails: a warning, then the failure
@example(text="[params]\ngamma = 2.0\n[numerics]\nn_cells = 4\n[initial]\n"
              "u0 = constant:1e308\n[schedule]\nu_in = constant:0.0\n")
# an infinite boundary work rate on the zero-duration row at t_star, so an
# energy budget term of 0 * inf
@example(text="[numerics]\nn_cells = 4\n[schedule]\nu_out = constant:-1e308\n")
# a zero-duration row at t_star with an infinite rate, so a series.csv
# column of 0 * inf
@example(text="[numerics]\nn_cells = 4\ndt_growth = 1\n[initial]\n"
              "b0 = 5.16550301343296e-188\nu0 = constant:1.0\n[schedule]\n"
              "t_star = 5.16550301343296e-188\nt_end = 0.125\n")
# an infinite energy, so an energy budget of inf - inf
@example(text="[numerics]\nn_cells = 4\n[initial]\nb1 = 0.0\n"
              "u0 = ramp:-1.6550957433907552e+154,-0\n")
# a subnormal density, whose specific volume overflows
@example(text="[numerics]\nn_cells = 4\n[initial]\n"
              "rho0 = constant:2.225073858507e-311\n"
              "[schedule]\nt_star = 0.0\nt_end = 0.125\n")
# a total mass of 1e-317, whose reciprocal overflows
@example(text="[numerics]\nn_cells = 4\n[initial]\nb0 = 1e-10\nrho0 = constant:1e-307\n"
              "[schedule]\nt_star = 0.0\nt_end = 0.125\n")
# mu / v = inf times a zero u_y in the last block of the record
@example(text="[params]\nmu = 1e300\ngamma = 3.0\n[numerics]\nn_cells = 4\n[initial]\n"
              "b0 = 0.5\nrho0 = ramp:1e-308,2070964789289.0\n[schedule]\n"
              "t_star = 0.0\nt_end = 0.125\n")
def test_any_float_strings_parse_or_fail_in_one_line(text):
    try:
        assert isinstance(parse_config(text), ScenarioConfig)
    except ConfigError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "scenario.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["run", "--config", ini, "--out", os.path.join(tmp, "out")])
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 2, 3, 4)
    assert len(lines) <= 1, lines
