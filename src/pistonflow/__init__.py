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
    EulerianField,
    coefficients_alpha_beta,
    lagrangian_init_from_eulerian,
    mass_coordinate_of,
    reconstruct_eulerian,
)
from .diagnostics import (
    contact_time_lower_bound,
    energy,
    energy_budget_residual,
    total_mass_eulerian,
)
from .solver import (
    ContactEvent,
    MassDepletionEvent,
    NumericsConfig,
    SimState,
    StateError,
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
    "ContactEvent",
    "EulerianField",
    "GridState",
    "MassDepletionEvent",
    "NumericsConfig",
    "Params",
    "PistonState",
    "SimState",
    "StateError",
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
    "step",
    "switch_regime",
    "total_mass_eulerian",
    "transport_update",
    "whole_horizon_fixed_point",
]
