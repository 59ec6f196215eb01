"""Dense complex linear-algebra kernels used by every other module.

Thin, contract-checked wrappers around LAPACK (via numpy/scipy): Hermitian
eigendecompositions (full, or the largest eigenpair alone), general
eigenvalues and polynomial roots through the balanced companion matrix
(of one matrix or polynomial, or of a stack in one call), and reusable LU
solvers.

All tolerances are relative to ``scaled_norm`` (max-abs entry times
dimension) so the contracts are scale-free.  Every function is pure; all
returned arrays are freshly allocated and never aliased to the input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateLeading,
    InvalidParams,
    NoConvergence,
    NotHermitian,
    Singular,
    ZeroPolynomial,
)

HERMITIAN_TOL = 1e-10
PD_TOL = 1e-12


def as_square_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a 2-D square complex-capable ndarray."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidParams(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParams("matrix contains NaN or Inf entries")
    return a


def scaled_norm(m) -> float:
    """Max-abs entry times dimension; the reference norm for tolerances."""
    a = np.asarray(m)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a))) * max(a.shape)


def hermitian_violation(m) -> float:
    """max |M - M*| relative to max |M| (0 for the zero matrix)."""
    a = np.asarray(m)
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a - a.conj().T))) / float(scale)


def require_hermitian(m) -> np.ndarray:
    a = as_square_matrix(m)
    v = hermitian_violation(a)
    if v > HERMITIAN_TOL:
        raise NotHermitian(
            f"relative symmetry violation {v:.3e} exceeds {HERMITIAN_TOL:.1e}")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and column eigenvectors of a Hermitian matrix.

    The values are real and sorted ascending; the vectors are orthonormal.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigen(m) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Values come back sorted ascending with orthonormal eigenvectors;
    the residual max_k ||M v_k - lam_k v_k|| / scaled_norm(M) is checked
    against 1e-9.
    """
    a = require_hermitian(m)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"hermitian eigensolver failed: {exc}") from exc
    nrm = scaled_norm(a)
    if nrm > 0.0:
        resid = np.max(np.abs(a @ vectors - vectors * values[None, :]))
        if resid > 1e-9 * nrm:
            raise NoConvergence(
                f"eigen residual {resid:.3e} exceeds 1e-9 * ||M|| = {1e-9 * nrm:.3e}"
            )
    return EigenDecomposition(values=values, vectors=vectors)


def largest_eigenpair(m) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a Hermitian matrix.

    Only that one pair is computed (LAPACK ``evr`` on the index subset
    [n-1, n-1]); its residual ||M x - lam x||_inf is checked against
    1e-9 * scaled_norm(M).
    """
    a = require_hermitian(m)
    n = a.shape[0]
    try:
        values, vectors = scipy.linalg.eigh(a, subset_by_index=[n - 1, n - 1],
                                            driver="evr", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"hermitian eigensolver failed: {exc}") from exc
    lam = float(values[0])
    x = vectors[:, 0]
    nrm = scaled_norm(a)
    resid = float(np.max(np.abs(a @ x - lam * x)))
    if resid > 1e-9 * nrm:
        raise NoConvergence(
            f"eigen residual {resid:.3e} exceeds 1e-9 * ||M|| = {1e-9 * nrm:.3e}"
        )
    return lam, x


def general_eigenvalues(m) -> np.ndarray:
    """Eigenvalue multiset of a general square matrix (unordered).

    The eigenvalue sum is checked against the trace to 1e-8 * ||M|| * n.
    """
    a = as_square_matrix(m)
    return stacked_eigenvalues(a[None])[0]


def stacked_eigenvalues(ms) -> np.ndarray:
    """Eigenvalues of every matrix of an (k, n, n) stack, from one call.

    Returns an (k, n) array; each row passes the
    :func:`general_eigenvalues` trace check against its own matrix.
    """
    a = np.asarray(ms)
    if a.ndim != 3 or a.shape[0] == 0 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise InvalidParams(f"expected a stack of square matrices, got shape {a.shape}")
    try:
        values = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    n = a.shape[1]
    gap = np.abs(np.sum(values, axis=1) - np.trace(a, axis1=1, axis2=2))
    bound = 1e-8 * np.max(np.abs(a), axis=(1, 2)) * n * n
    if np.any(gap > bound):
        worst = int(np.argmax(gap - bound))
        raise NoConvergence(f"eigenvalue sum deviates from trace by {gap[worst]:.3e}")
    return values


def poly_roots(coeffs) -> np.ndarray:
    """Roots of ``c[0] + c[1] z + ... + c[n] z^n`` (constant first).

    Leading coefficients below 1e-14 * max|c| are trimmed first, and
    vanishing trailing ones give exact roots at zero (as :func:`numpy.roots`
    does); the rest go through :func:`stacked_poly_roots` as one row.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise InvalidParams("coefficients must be a non-empty 1-D sequence")
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise ZeroPolynomial("all coefficients vanish")
    keep = np.nonzero(np.abs(c) > 1e-14 * scale)[0]
    degree = keep[-1]
    if degree == 0:
        raise DegenerateLeading("polynomial is constant after trimming")
    zeros = int(np.flatnonzero(c)[0])
    roots = np.zeros(degree, dtype=complex)
    if zeros < degree:
        roots[: degree - zeros] = stacked_poly_roots(c[None, zeros: degree + 1])[0]
    return roots


def stacked_poly_roots(coeffs) -> np.ndarray:
    """Roots of every row ``c[k, 0] + c[k, 1] z + ... + c[k, n] z^n``.

    Computed as eigenvalues of the companion matrices (built as
    :func:`numpy.roots` builds them) in one stacked call; returns an
    (rows, n) array.  Nothing is trimmed, so every row needs a nonzero
    leading coefficient.  Each root is verified to satisfy
    |p(root)| <= 1e-8 * max|c| * (1 + |root|)^n.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] < 2:
        raise InvalidParams("coefficients must be rows of at least two entries")
    lead = c[:, -1]
    if np.any(lead == 0.0):
        raise DegenerateLeading("a leading coefficient vanishes")
    degree = c.shape[1] - 1
    companion = np.zeros((c.shape[0], degree, degree), dtype=complex)
    companion[:, 0, :] = -c[:, -2::-1] / lead[:, None]
    sub = np.arange(degree - 1)
    companion[:, sub + 1, sub] = 1.0
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"companion eigenvalue iteration failed: {exc}") from exc
    value = np.zeros_like(roots)
    for j in range(degree, -1, -1):  # Horner, leading coefficient first
        value = value * roots + c[:, j, None]
    scale = np.max(np.abs(c), axis=1)
    excess = np.abs(value) - 1e-8 * scale[:, None] * (1.0 + np.abs(roots)) ** degree
    if np.any(excess > 0.0):
        row, col = np.unravel_index(int(np.argmax(excess)), excess.shape)
        raise NoConvergence(
            f"root residual {abs(value[row, col]):.3e} exceeds its bound in row {row}")
    return roots


class LinearSolver:
    """Reusable LU factorization of a square matrix.

    Factor once with :func:`solver_for`, then call :meth:`solve` for each
    right-hand side (vector or matrix).  A non-finite right-hand side is
    not rejected: it propagates into the solution, where the overflow
    guard of the theta stepping loop sees it.  Instances are immutable.
    """

    def __init__(self, lu, piv, size: int):
        self._lu = lu
        self._piv = piv
        self.size = size

    def solve(self, b) -> np.ndarray:
        rhs = np.asarray(b)
        if rhs.shape[0] != self.size:
            raise InvalidParams(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self.size}"
            )
        return scipy.linalg.lu_solve((self._lu, self._piv), rhs, check_finite=False)


def solver_for(m) -> LinearSolver:
    """LU-factor a square nonsingular matrix for repeated solves.

    Raises :class:`Singular` when a pivot falls below 1e-14 * scaled_norm(M).
    """
    a = as_square_matrix(m)
    with warnings.catch_warnings():
        # the pivot check below raises Singular; scipy's warning is redundant
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    pivots = np.abs(np.diag(lu))
    floor = 1e-14 * scaled_norm(a)
    if np.min(pivots) <= floor:
        raise Singular(f"pivot {np.min(pivots):.3e} at or below {floor:.3e}")
    return LinearSolver(lu, piv, a.shape[0])

