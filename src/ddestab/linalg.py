"""Dense complex linear-algebra kernels used by every other module.

Thin, contract-checked wrappers around LAPACK (via numpy/scipy): Hermitian
eigendecompositions (full, or the largest eigenpair alone), general
eigenvalues, polynomial roots through the balanced
companion matrix, fractional powers of Hermitian positive definite
matrices, and reusable LU solvers.

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
    NotPositiveDefinite,
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


def require_hermitian(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    a = as_square_matrix(m)
    v = hermitian_violation(a)
    if v > tol:
        raise NotHermitian(f"relative symmetry violation {v:.3e} exceeds {tol:.1e}")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and column eigenvectors of a square matrix.

    For ``kind='hermitian'`` the values are real, sorted ascending, and the
    vectors are orthonormal.
    """

    values: np.ndarray
    vectors: np.ndarray
    kind: str


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
    return EigenDecomposition(values=values, vectors=vectors, kind="hermitian")


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
    try:
        values = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    nrm = scaled_norm(a)
    gap = abs(np.sum(values) - np.trace(a))
    if nrm > 0.0 and gap > 1e-8 * nrm * a.shape[0]:
        raise NoConvergence(f"eigenvalue sum deviates from trace by {gap:.3e}")
    return values


def poly_roots(coeffs) -> np.ndarray:
    """Roots of ``c[0] + c[1] z + ... + c[n] z^n`` (constant first).

    Computed as eigenvalues of the balanced companion matrix.  Leading
    coefficients below 1e-14 * max|c| are trimmed first.  Each root is
    verified to satisfy |p(root)| <= 1e-8 * max|c| * (1 + |root|)^n.
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
    c = c[: degree + 1]
    roots = np.roots(c[::-1])  # np.roots wants the leading coefficient first
    bound = 1e-8 * scale * (1.0 + np.abs(roots)) ** degree
    resid = np.abs(np.polyval(c[::-1], roots))
    if np.any(resid > bound):
        worst = int(np.argmax(resid - bound))
        raise NoConvergence(
            f"root residual {resid[worst]:.3e} exceeds bound {bound[worst]:.3e}"
        )
    return roots


def fractional_power(m, s: float) -> np.ndarray:
    """``M**s`` for Hermitian positive definite M, via the eigenbasis.

    Returns V diag(lam**s) V*; all eigenvalues must exceed
    PD_TOL * scaled_norm(M).
    """
    a = require_hermitian(m)
    dec = hermitian_eigen(a)
    floor = PD_TOL * scaled_norm(a)
    if np.min(dec.values) <= floor:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {np.min(dec.values):.3e} is not above {floor:.3e}"
        )
    powered = dec.values ** float(s)
    return (dec.vectors * powered[None, :]) @ dec.vectors.conj().T


class LinearSolver:
    """Reusable LU factorization of a square matrix.

    Factor once with :func:`solver_for`, then call :meth:`solve` for each
    right-hand side (vector or matrix).  A non-finite right-hand side is
    not rejected: it propagates into the solution, where the overflow
    guard of the theta stepping loop sees it.  Instances are immutable.
    """

    def __init__(self, lu, piv, size: int, dtype):
        self._lu = lu
        self._piv = piv
        self.size = size
        self.dtype = dtype

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
    return LinearSolver(lu, piv, a.shape[0], a.dtype)

