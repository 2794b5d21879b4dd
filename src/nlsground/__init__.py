"""Normalized ground states of -Delta u = f(u) - mu u on radial profiles.

The solver minimizes the reduced functional J(u) = I(s(u) * u) over the
mass sphere, where s(u) is the unique dilation parameter placing u on the
Pohozaev manifold, and sweeps the ground-state energy map m -> E_m to
verify its structural properties (positivity, monotonicity, small-mass
blowup, large-mass limit).
"""

from .grid import (
    ConfigurationError,
    GridFunction,
    RadialGrid,
    grad_norm_sq,
    make_grid,
    mass,
    neg_laplacian,
)
from .nonlinearity import (
    ConditionReport,
    NonlinearitySpec,
    builtin,
    check_conditions,
    f_tilde,
    g_quotient,
)
from .functional import (
    FiberResult,
    NonconformanceError,
    action,
    dilate,
    fiber_action,
    fiber_pohozaev,
    pohozaev,
    project,
    reduced_gradient,
    reduced_value,
)
from .optimizer import (
    SolveOptions,
    SolveReport,
    initial_profile,
    minimize,
    multiplier,
    multistart_minimize,
    sphere_retract,
    tangent_project,
)
from .sweep import SweepResult, mountain_pass_floor, sweep

__all__ = [
    "ConfigurationError",
    "NonconformanceError",
    "RadialGrid",
    "GridFunction",
    "make_grid",
    "mass",
    "grad_norm_sq",
    "neg_laplacian",
    "NonlinearitySpec",
    "ConditionReport",
    "builtin",
    "check_conditions",
    "f_tilde",
    "g_quotient",
    "FiberResult",
    "action",
    "pohozaev",
    "dilate",
    "fiber_action",
    "fiber_pohozaev",
    "project",
    "reduced_value",
    "reduced_gradient",
    "SolveOptions",
    "SolveReport",
    "initial_profile",
    "sphere_retract",
    "tangent_project",
    "minimize",
    "multiplier",
    "multistart_minimize",
    "SweepResult",
    "sweep",
    "mountain_pass_floor",
]

__version__ = "0.1.0"
