"""Byte identity of the solver's outputs on short pinned scenarios.

Any change to the arithmetic of a step, operation order included, moves at
least one of these digests.  A change meant to move the numbers re-records
them and says which bits moved and why.
"""

import hashlib

import numpy as np
import pytest

from pistonflow.cli import (
    main,
    render_series_csv,
    render_summary_json,
    simulate_scenario,
)
from pistonflow.config import parse_config
from pistonflow.core import BoundarySchedule, GridState, Params, PistonState
from pistonflow.oracle import (
    convergence_order,
    diffusion_case,
    equilibrium_case,
    run_forced,
    smooth_case,
)
from pistonflow.solver import NumericsConfig, SimState, whole_horizon_fixed_point

SCENARIOS = {
    # README scenario (inflow then outflow, adaptive dt) at n = 48
    "readme_n48": "[numerics]\nn_cells = 48\n",
    # criterion 7's family, ends in contact or depletion
    "depletion_n48": (
        "[params]\nmu = 0.5\nstiffness_K = 4.0\ndamping_l = 1.0\nb_rest = 0.0\n"
        "[numerics]\nn_cells = 48\ndt_initial = 2e-3\n"
        "[initial]\nb0 = 0.25\n"
        "[schedule]\nt_star = 0.0\nt_end = 30.0\nu_out = constant:-0.8\n"
    ),
    # fixed verification steps across the regime switch
    "fixed_dt": (
        "[params]\nb_rest = 0.0\n"
        "[numerics]\nn_cells = 64\ndt_growth = 1.0\n"
        "[initial]\nb0 = 1.0\n"
        "[schedule]\nt_star = 0.2\nt_end = 0.4\nu_in = constant:0.3\n"
        "rho_in = constant:1.2\nu_out = constant:-0.3\n"
    ),
}

GOLDEN = {
    "depletion_n48": (
        "d02631a9e7869d0ad72a7b10edf0e3d4a283f2ed64efb65661740a066bb6a0f5",
        "f41b405b08cf7dc85af4c5ca2ff0bb92a6600a72256e11f5de36046b4ccda25e",
    ),
    "fixed_dt": (
        "2da178b0bb8487f430c2a91acef7e09ff490fe16543cba2e08ff0f8afea32230",
        "e017c980eb4e25d641b9d06be75147e7f4e1c72f816d2fa2e3ecc271b8863fc9",
    ),
    "readme_n48": (
        "34346ef2ded5cfdeec9e0fd2ea96dbb10057fa541d92dfaa02ef5e9b8edd3372",
        "b131421ed2048334c4414c228f657c4673a68108dee479df6b5fd1a499296e05",
    ),
}

FIXED_POINT_GOLDEN = (
    "220a67746d9c7e153a3366f124a5495fe68009efef555c308966a64a3166c650"
)

# criterion 5's two convergence tables and the equilibrium forced run
ORACLE_GOLDEN = {
    "smooth_table": (
        "46624fb349161e65c0fad6311439518f4b89edfefbd2b7d5f4055a6efaba66a2"
    ),
    "diffusion_table": (
        "5ffd63d78f290d3c9da3356a2dcd5e81364cd7814b6dc6f302a743e226779eb0"
    ),
    "equilibrium_errors": (
        "33f182838c96ef793648d45caa70a25a967cd18dfd0e8dff5973348224ce1e92"
    ),
}

ORACLE_OUTPUTS = {
    "smooth_table": lambda: convergence_order(
        smooth_case(), [32, 64, 128, 256], t_end=0.5, dt0=0.005).as_csv(),
    "diffusion_table": lambda: convergence_order(
        diffusion_case(), [16, 32, 64, 128], t_end=0.1, dt0=0.005,
        theta=0.5).as_csv(),
    "equilibrium_errors": lambda: repr(
        run_forced(equilibrium_case(), 16, 1e-2, 0.2)),
}


# every snapshot file of ``fixed_dt`` run with [outputs] snapshot_every = 7
SNAPSHOTS_GOLDEN = (
    "2e30f111c2c354e6eca851723c295aceef47dee90548771f3a41159890349d21"
)

# stdout of ``estimate-contact`` on ``depletion_n48``
ESTIMATE_CONTACT_GOLDEN = (
    "ead19111de7a1195b90ebc821c44c44c8f1064008ce22e2167d50e572ec82d55"
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_digests(name: str):
    result = simulate_scenario(parse_config(SCENARIOS[name]))
    return _sha(render_series_csv(result)), _sha(render_summary_json(result))


def fixed_point_digest() -> str:
    """Criterion 6's whole-horizon fixed point: trajectory and residuals."""
    params = Params(mu=1.0, gamma=1.4, stiffness_K=1.0, damping_l=0.5, b_rest=0.0)
    sched = BoundarySchedule(t_star=0.0, t_end=0.05, u_out=lambda t: -0.1)
    cfg = NumericsConfig(n_cells=64, dt_initial=1e-3, dt_growth=1.0,
                         picard_tol=1e-10)
    state = SimState(
        t=0.0,
        grid=GridState(v=np.ones(64), u=np.zeros(65), eta=1.0),
        piston=PistonState(b=1.0, b_dot=0.0),
        regime="outflow", dt_next=1e-3,
    )
    traj, residuals = whole_horizon_fixed_point(state, sched, params, cfg, 0.05,
                                                max_outer=30)
    digest = hashlib.sha256(np.ascontiguousarray(traj).tobytes())
    digest.update(np.asarray(residuals, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_series_and_summary_bytes_unchanged(name):
    assert scenario_digests(name) == GOLDEN[name]


def test_fixed_point_trajectory_unchanged():
    assert fixed_point_digest() == FIXED_POINT_GOLDEN


@pytest.mark.parametrize("name", sorted(ORACLE_OUTPUTS))
def test_oracle_outputs_unchanged(name):
    assert _sha(ORACLE_OUTPUTS[name]()) == ORACLE_GOLDEN[name]


def test_snapshot_files_unchanged(tmp_path):
    ini = tmp_path / "fixed_dt.ini"
    ini.write_text(SCENARIOS["fixed_dt"] + "[outputs]\nsnapshot_every = 7\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.glob("snapshot_*.json")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == SNAPSHOTS_GOLDEN


def test_estimate_contact_stdout_unchanged(tmp_path, capsys):
    ini = tmp_path / "depletion_n48.ini"
    ini.write_text(SCENARIOS["depletion_n48"])
    main(["estimate-contact", "--config", str(ini)])
    assert _sha(capsys.readouterr().out) == ESTIMATE_CONTACT_GOLDEN
