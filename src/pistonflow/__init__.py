"""1D isentropic viscous gas in a pipe closed by a spring-damper piston.

The solver works in normalized Lagrangian mass coordinates on the fixed
interval [0, 1] (piston at z = 0, open end at z = 1) with inflow and outflow
boundary regimes, and ships runtime monitors for every conserved or bounded
quantity of the model plus an executable lower bound on the contact time.

The package exports the state, configuration and event types; functions are
imported from the module that defines them (``pistonflow.solver.step``,
``pistonflow.diagnostics.energy``, ...).
"""

from .coords import EulerianField
from .core import BoundarySchedule, GridState, Params, PistonState
from .solver import (
    ContactEvent,
    MassDepletionEvent,
    NumericsConfig,
    SimState,
    StateError,
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
]
