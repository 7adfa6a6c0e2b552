"""Positive-integer moment Lyapunov exponents of the stochastic heat equation
under hyperbolic scaling, computed by three provably equal routes and
cross-checked numerically.
"""

from .clusters import (
    ClusterResult,
    MergeEvent,
    simulate_inertia,
)
from .closedform import (
    GammaReport,
    RecursionCheck,
    gamma3,
    gamma_report,
    verify_recursion_identity,
)
from .errors import (
    InvalidContour,
    InvalidFitInput,
    LengthMismatch,
    NonFiniteResult,
    NonPositiveMoment,
    NonPositiveMultiplicity,
    NonPositiveTime,
    NuTooLarge,
    ShelyapError,
    UnsortedLocations,
)
from .instance import (
    MomentInstance,
    flatten,
    gamma2_objective,
    validate_instance,
)
from .quadrature import (
    ContourConfig,
    contour_moment_complex,
    default_contour_config,
    heat_kernel,
    upper_bound_value,
)
from .sampling import random_instance
from .solvers import (
    StructureReport,
    VariationalSolution,
    check_minimizer_structure,
    isotonic_nonincreasing,
    solve_gamma1,
    solve_gamma2,
)

__version__ = "0.1.0"
