"""1D isentropic viscous gas in a pipe closed by a spring-damper piston.

The solver works in normalized Lagrangian mass coordinates on the fixed
interval [0, 1] (piston at z = 0, open end at z = 1) with inflow and outflow
boundary regimes, and ships runtime monitors for every conserved or bounded
quantity of the model plus an executable lower bound on the contact time.
"""

from .core import (
    BoundarySchedule,
    GridState,
    Params,
    PistonState,
    pressure_potential_Q,
    pressure_q,
)
from .coords import (
    CoeffPair,
    EulerianField,
    coefficients_alpha_beta,
    lagrangian_init_from_eulerian,
    mass_coordinate_of,
    reconstruct_eulerian,
)
from .diagnostics import (
    CSV_COLUMNS,
    RunSeries,
    contact_time_lower_bound,
    energy,
    energy_budget_residual,
    total_mass_eulerian,
)
from .run import (
    RunResult,
    Snapshot,
    build_initial_state,
    run_simulation,
    snapshot_of,
)
from .solver import (
    ContactEvent,
    MassDepletionEvent,
    NonContractionError,
    NumericalFailure,
    NumericsConfig,
    SimState,
    StateError,
    StepRejected,
    eta_update_inflow,
    eta_update_outflow_picard,
    momentum_piston_solve,
    step,
    switch_regime,
    transport_update,
    whole_horizon_fixed_point,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySchedule",
    "CSV_COLUMNS",
    "CoeffPair",
    "ContactEvent",
    "EulerianField",
    "GridState",
    "MassDepletionEvent",
    "NonContractionError",
    "NumericalFailure",
    "NumericsConfig",
    "Params",
    "PistonState",
    "RunResult",
    "RunSeries",
    "SimState",
    "Snapshot",
    "StateError",
    "StepRejected",
    "build_initial_state",
    "coefficients_alpha_beta",
    "contact_time_lower_bound",
    "energy",
    "energy_budget_residual",
    "eta_update_inflow",
    "eta_update_outflow_picard",
    "lagrangian_init_from_eulerian",
    "mass_coordinate_of",
    "momentum_piston_solve",
    "pressure_potential_Q",
    "pressure_q",
    "reconstruct_eulerian",
    "run_simulation",
    "snapshot_of",
    "step",
    "switch_regime",
    "total_mass_eulerian",
    "transport_update",
    "whole_horizon_fixed_point",
]
