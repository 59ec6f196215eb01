"""Theta-method integration and stability certification for delay systems.

The library revolves around the test system y'(t) = -A y(t) + B y(t - tau)
with a constant delay: build or load the matrices, pick a scheme
(theta, u, m, tau), then either integrate (:mod:`ddestab.solver`), certify
stability through field-of-values inclusions and region membership
(:mod:`ddestab.stability`, :mod:`ddestab.fov`), or fall back on the
brute-force spectral radius of the one-step matrix.  :mod:`ddestab.mol`
assembles the two built-in method-of-lines benchmark problems.
"""

import os as _os

# Cap BLAS parallelism before numpy spins up its thread pools.  Only
# effective when this package is imported before numpy (true for the CLI
# entry point); otherwise the environment must be set by the caller.
_threads = _os.environ.get("DDESTAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import errors  # noqa: E402
from .fov import (  # noqa: E402
    FovBoundary,
    convex_hull,
    fov_boundary,
    hull_contains,
    hull_margin,
    numerical_radius,
    spectrum_in_fov_check,
    transformed_fov,
    transformed_matrix,
)
from .linalg import (  # noqa: E402
    EigenDecomposition,
    LinearSolver,
    fractional_power,
    general_eigenvalues,
    hermitian_eigen,
    largest_eigenpair,
    poly_roots,
    solver_for,
)
from .mol import (  # noqa: E402
    Example2Condition,
    Grid1D,
    MolProblem,
    build_example1,
    build_example2,
    discrete_error,
    example2_condition,
)
from .solver import (  # noqa: E402
    LinearDDE,
    SemilinearDDE,
    Trajectory,
    observed_order,
    solve_linear,
    solve_semilinear,
)
from .stability import (  # noqa: E402
    CERTIFIED_UNSTABLE,
    STABLE_FOR_THIS_STEP,
    UNCERTIFIED,
    UNCONDITIONALLY_STABLE,
    DyMembership,
    Evidence,
    InthoutResult,
    OracleVerdict,
    RegionBoundary,
    StabilityPolynomial,
    StabilityReport,
    ThetaScheme,
    build_w,
    gamma_y,
    in_dy,
    inthout_condition,
    oracle_stability,
    simdiag_analysis,
    simdiag_pairs,
    stability_polynomial,
    step_certificate,
    unconditional_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    # linalg
    "EigenDecomposition", "LinearSolver", "fractional_power",
    "general_eigenvalues", "hermitian_eigen", "largest_eigenpair", "poly_roots",
    "solver_for",
    # fov
    "FovBoundary", "convex_hull", "fov_boundary", "hull_contains",
    "hull_margin", "numerical_radius", "spectrum_in_fov_check",
    "transformed_fov", "transformed_matrix",
    # stability
    "CERTIFIED_UNSTABLE", "STABLE_FOR_THIS_STEP", "UNCERTIFIED",
    "UNCONDITIONALLY_STABLE", "DyMembership", "Evidence", "InthoutResult",
    "OracleVerdict", "RegionBoundary", "StabilityPolynomial",
    "StabilityReport", "ThetaScheme", "build_w", "gamma_y", "in_dy",
    "inthout_condition", "oracle_stability", "simdiag_analysis",
    "simdiag_pairs", "stability_polynomial", "step_certificate",
    "unconditional_certificate",
    # solver
    "LinearDDE", "SemilinearDDE", "Trajectory", "observed_order",
    "solve_linear", "solve_semilinear",
    # mol
    "Example2Condition", "Grid1D", "MolProblem", "build_example1",
    "build_example2", "discrete_error", "example2_condition",
]
