"""Scenario configuration: INI-style text with typed keys and function presets.

Sections are [params], [numerics], [initial], [schedule] and [outputs].
Boundary data and initial profiles are named presets:

    constant:VALUE
    ramp:START_VALUE,END_VALUE          (linear over the phase / the pipe)
    sinusoid:MEAN,AMPLITUDE,CYCLES      (CYCLES full periods over the span)
    tabulated:PATH.csv                  (two columns, linear interpolation,
                                         constant extrapolation)

Every key has a documented default; unknown keys are rejected with the list
of valid keys, and violated invariants are reported with their key path.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .core import BoundarySchedule, Params
from .solver import NumericsConfig


class ConfigError(ValueError):
    """A scenario file could not be validated."""


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    series: str = "series.csv"
    snapshot_every: int = 0
    summary: str = "summary.json"


@dataclass(frozen=True)
class InitialConditions:
    rho0: Callable[[float], float]
    u0: Callable[[float], float]
    b0: float = 2.0
    b1: float = 0.0
    rho0_preset: str = "constant:1.0"
    u0_preset: str = "constant:0.0"


@dataclass(frozen=True)
class ScenarioConfig:
    params: Params
    numerics: NumericsConfig
    initial: InitialConditions
    schedule: BoundarySchedule
    outputs: OutputConfig


#: default of every key; the type of the default is the type of the key.
#: [params], [numerics] and [outputs] mirror their dataclasses field by field.
_DEFAULTS: Dict[str, Dict[str, object]] = {
    **{
        section: {f.name: f.default for f in dataclasses.fields(cls)}
        for section, cls in (
            ("params", Params), ("numerics", NumericsConfig), ("outputs", OutputConfig)
        )
    },
    "initial": {"rho0": "constant:1.0", "u0": "constant:0.0", "b0": 2.0, "b1": 0.0},
    "schedule": {
        "t_star": 0.5,
        "t_end": 1.0,
        "u_in": "constant:0.1",
        "rho_in": "constant:1.0",
        "u_out": "constant:-0.1",
    },
}


def _parse_scalar(section: str, key: str, raw: str):
    kind = type(_DEFAULTS[section][key])
    if kind is str:
        return raw
    try:
        value = kind(raw)
    except ValueError as exc:
        name = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {key}: expected {name}, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return value


def _finite_numbers(arg: str, keypath: str) -> List[float]:
    values = [float(s) for s in arg.split(",")]
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{keypath}: preset arguments must be finite, got {arg!r}")
    return values


def _preset_function(
    preset: str, span: tuple, keypath: str, base_dir: str
) -> Callable[[float], float]:
    """Build a callable from a preset string over the span (lo, hi)."""
    lo, hi = span
    width = max(hi - lo, 1e-300)
    name, _, arg = preset.partition(":")
    name = name.strip().lower()
    try:
        if name == "constant":
            (value,) = _finite_numbers(arg, keypath)
            return lambda t, _v=value: _v + 0.0 * t
        if name == "ramp":
            v0, v1 = _finite_numbers(arg, keypath)
            return lambda t, _a=v0, _b=v1: _a + (_b - _a) * (t - lo) / width
        if name == "sinusoid":
            parts = _finite_numbers(arg, keypath)
            if len(parts) == 3:
                mean, amp, cycles = parts
                phase = 0.0
            else:
                mean, amp, cycles, phase = parts
            omega = 2.0 * math.pi * cycles / width
            return lambda t, _m=mean, _a=amp, _w=omega, _p=phase: (
                _m + _a * np.sin(_w * (t - lo) + _p)
            )
        if name == "tabulated":
            path = arg.strip()
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            table = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
            ts, vs = table[:, 0], table[:, 1]
            if not np.all(np.isfinite(table)):
                raise ConfigError(f"{keypath}: tabulated values must be finite")
            if np.any(np.diff(ts) <= 0):
                raise ConfigError(
                    f"{keypath}: tabulated abscissae must be strictly increasing"
                )
            return lambda t, _t=ts, _v=vs: float(np.interp(t, _t, _v))
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{keypath}: malformed preset {preset!r} ({exc})") from exc
    raise ConfigError(
        f"{keypath}: unknown preset {name!r} "
        f"(valid: constant, ramp, sinusoid, tabulated)"
    )


def parse_config(text: str, base_dir: str = ".") -> ScenarioConfig:
    """Parse and fully validate a scenario; all defaults documented above."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (stiffness_K)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc

    values = {section: dict(defaults) for section, defaults in _DEFAULTS.items()}
    for section in parser.sections():
        if section not in _DEFAULTS:
            raise ConfigError(
                f"unknown section [{section}] "
                f"(valid: {', '.join(sorted(_DEFAULTS))})"
            )
        for key, raw in parser.items(section):
            if key not in _DEFAULTS[section]:
                raise ConfigError(
                    f"unknown key [{section}] {key} "
                    f"(valid: {', '.join(sorted(_DEFAULTS[section]))})"
                )
            values[section][key] = _parse_scalar(section, key, raw)

    try:
        params = Params(**values["params"])  # type: ignore[arg-type]
    except ValueError as exc:
        raise ConfigError(f"[params]: {exc}") from exc
    try:
        numerics = NumericsConfig(**values["numerics"])  # type: ignore[arg-type]
    except ValueError as exc:
        raise ConfigError(f"[numerics]: {exc}") from exc

    init = values["initial"]
    b0 = float(init["b0"])
    if not b0 > 0.0:
        raise ConfigError(f"[initial] b0: must be positive, got {b0}")
    rho0 = _preset_function(
        str(init["rho0"]), (0.0, b0), "[initial] rho0", base_dir
    )
    u0 = _preset_function(str(init["u0"]), (0.0, b0), "[initial] u0", base_dir)
    xs = np.linspace(0.0, b0, 513)
    rho_samples = np.array([float(rho0(x)) for x in xs])
    if np.any(rho_samples <= 0.0):
        raise ConfigError("[initial] rho0: density must be strictly positive")
    initial = InitialConditions(
        rho0=rho0,
        u0=u0,
        b0=b0,
        b1=float(init["b1"]),
        rho0_preset=str(init["rho0"]),
        u0_preset=str(init["u0"]),
    )

    sched = values["schedule"]
    t_star, t_end = float(sched["t_star"]), float(sched["t_end"])
    u_in = rho_in = u_out = None
    if t_star > 0.0:
        u_in = _preset_function(
            str(sched["u_in"]), (0.0, t_star), "[schedule] u_in", base_dir
        )
        rho_in = _preset_function(
            str(sched["rho_in"]), (0.0, t_star), "[schedule] rho_in", base_dir
        )
    if t_star < t_end:
        u_out = _preset_function(
            str(sched["u_out"]), (t_star, t_end), "[schedule] u_out", base_dir
        )
    try:
        schedule = BoundarySchedule(
            t_star=t_star, t_end=t_end, u_in=u_in, rho_in=rho_in, u_out=u_out
        )
    except ValueError as exc:
        raise ConfigError(f"[schedule]: {exc}") from exc

    if values["outputs"]["snapshot_every"] < 0:  # type: ignore[operator]
        raise ConfigError("[outputs] snapshot_every: must be nonnegative")
    outputs = OutputConfig(**values["outputs"])  # type: ignore[arg-type]
    return ScenarioConfig(
        params=params,
        numerics=numerics,
        initial=initial,
        schedule=schedule,
        outputs=outputs,
    )


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))
