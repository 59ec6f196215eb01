"""Theta-method integration and stability certification for delay systems.

The library revolves around the test system y'(t) = -A y(t) + B y(t - tau)
with a constant delay: build or load the matrices, pick a scheme
(theta, u, m, tau), then either integrate (:mod:`ddestab.solver`), certify
stability through field-of-values inclusions and region membership
(:mod:`ddestab.stability`, :mod:`ddestab.fov`), or fall back on the
brute-force spectral radius of the one-step matrix.  :mod:`ddestab.mol`
assembles the two built-in method-of-lines benchmark problems.
"""

from . import errors
from .fov import (
    FovBoundary,
    fov_boundary,
    numerical_radius,
    transformed_matrix,
)
from .linalg import (
    EigenDecomposition,
    LinearSolver,
    general_eigenvalues,
    hermitian_eigen,
    largest_eigenpair,
    poly_roots,
    solver_for,
)
from .mol import (
    Example2Condition,
    MolProblem,
    build_example1,
    build_example2,
    example2_condition,
)
from .solver import (
    LinearDDE,
    SemilinearDDE,
    Trajectory,
    solve_linear,
    solve_semilinear,
)
from .stability import (
    CERTIFIED_UNSTABLE,
    STABLE_FOR_THIS_STEP,
    UNCERTIFIED,
    UNCONDITIONALLY_STABLE,
    DyMembership,
    Evidence,
    OracleVerdict,
    RegionBoundary,
    StabilityReport,
    ThetaScheme,
    build_w,
    certify,
    gamma_y,
    in_dy,
    oracle_stability,
    simdiag_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    # linalg
    "EigenDecomposition", "LinearSolver", "general_eigenvalues",
    "hermitian_eigen", "largest_eigenpair", "poly_roots", "solver_for",
    # fov
    "FovBoundary", "fov_boundary", "numerical_radius", "transformed_matrix",
    # stability
    "CERTIFIED_UNSTABLE", "STABLE_FOR_THIS_STEP", "UNCERTIFIED",
    "UNCONDITIONALLY_STABLE", "DyMembership", "Evidence", "OracleVerdict",
    "RegionBoundary", "StabilityReport", "ThetaScheme", "build_w", "certify",
    "gamma_y", "in_dy", "oracle_stability", "simdiag_pairs",
    # solver
    "LinearDDE", "SemilinearDDE", "Trajectory", "solve_linear",
    "solve_semilinear",
    # mol
    "Example2Condition", "MolProblem", "build_example1", "build_example2",
    "example2_condition",
]
