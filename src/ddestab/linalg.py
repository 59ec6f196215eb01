"""Dense complex linear-algebra kernels used by every other module.

Thin, contract-checked wrappers around LAPACK (via numpy/scipy): Hermitian
eigendecompositions (full, or the largest eigenpair alone), general
eigenvalues (of one matrix, or of a stack in one call), the roots of a
stack of polynomials through their balanced companion matrices, proved
upper bounds on their moduli without any eigensolve, and reusable LU
solvers.  ``poly_roots`` trims nothing and solves every row it is given,
the real ones in real arithmetic; callers fold equal rows themselves.

All tolerances are relative to ``scaled_norm`` (max-abs entry times
dimension), so the contracts are scale-free and need it finite: a matrix
whose norm overflows is rejected.  Every function is pure; all returned
arrays are freshly allocated and never aliased to the input.

Only ``largest_eigenpair`` (LAPACK ``evr``), ``solver_for`` and
``LinearSolver.solve`` (LU) use scipy, and each imports ``scipy.linalg``
where it is called: importing it with the package would add about 0.18 s
to every CLI start, also to the calls (``solve`` of example1, ``region``,
``check`` of a pair with modes) that never factor a matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLeading,
    InvalidParams,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    Singular,
    allocating,
)

HERMITIAN_TOL = 1e-10
PD_TOL = 1e-12


def as_square_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a 2-D square ndarray of finite ``scaled_norm``."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidParams(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(scaled_norm(a)):
        raise InvalidParams("matrix contains NaN or Inf entries"
                            if not np.all(np.isfinite(a)) else "matrix scaled norm overflows")
    return a


def square_pair(a, b) -> tuple:
    """``as_square_matrix`` of A and of B, which must have the same shape."""
    am, bm = as_square_matrix(a), as_square_matrix(b)
    if am.shape != bm.shape:
        raise InvalidParams(f"A and B shapes differ: {am.shape} vs {bm.shape}")
    return am, bm


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
    _require_residual(a, np.max(np.abs(a @ vectors - vectors * values[None, :])))
    return EigenDecomposition(values=values, vectors=vectors)


def _require_residual(a, resid) -> None:
    """Raise NoConvergence when an eigen residual of M exceeds 1e-9 * scaled_norm(M)."""
    bound = 1e-9 * scaled_norm(a)
    if resid > bound:
        raise NoConvergence(f"eigen residual {resid:.3e} exceeds 1e-9 * ||M|| = {bound:.3e}")


def require_positive_definite(m, dec: EigenDecomposition | None = None) -> EigenDecomposition:
    """``dec``, M's eigendecomposition, or ``hermitian_eigen(M)``; raises
    NotPositiveDefinite at a smallest eigenvalue <= PD_TOL * scaled_norm(M)."""
    dec = hermitian_eigen(m) if dec is None else dec
    floor = PD_TOL * scaled_norm(m)
    if np.min(dec.values) <= floor:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {np.min(dec.values):.3e} at or below {floor:.3e}")
    return dec


def largest_eigenpair(m) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a Hermitian matrix.

    Only that one pair is computed (LAPACK ``evr`` on the index subset
    [n-1, n-1]); its residual ||M x - lam x||_inf is checked against
    1e-9 * scaled_norm(M).
    """
    import scipy.linalg

    a = require_hermitian(m)
    n = a.shape[0]
    try:
        values, vectors = scipy.linalg.eigh(a, subset_by_index=[n - 1, n - 1],
                                            driver="evr", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"hermitian eigensolver failed: {exc}") from exc
    lam = float(values[0])
    x = vectors[:, 0]
    _require_residual(a, float(np.max(np.abs(a @ x - lam * x))))
    return lam, x


def general_eigenvalues(m) -> np.ndarray:
    """Eigenvalue multiset of a general square matrix (unordered).

    The eigenvalue sum is checked against the trace to 1e-8 * ||M|| * n.
    """
    return stacked_eigenvalues(as_square_matrix(m)[None])[0]


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
    gap = np.abs(values.sum(axis=1) - a.trace(axis1=1, axis2=2))
    bound = 1e-8 * np.abs(a).max(axis=(1, 2)) * n * n
    if (gap > bound).any():
        worst = int(np.argmax(gap - bound))
        raise NoConvergence(f"eigenvalue sum deviates from trace by {gap[worst]:.3e}")
    return values


def poly_roots(coeffs) -> np.ndarray:
    """Roots of every row ``c[k, 0] + c[k, 1] z + ... + c[k, n] z^n``.

    Computed as eigenvalues of the companion matrices (built as
    :func:`numpy.roots` builds them); returns an (rows, n) array.  Nothing
    is trimmed, so every row needs a leading coefficient c_n with every
    c_k / c_n finite (else DegenerateLeading), and nothing is folded:
    every row given is solved.  The real rows go through one stacked real
    eigenvalue call, the others through one complex call; both are
    backward stable (Edelman & Murakami, Math. Comp. 64, 1995).  Every
    root of every row is verified to satisfy |p(root)| <= 1e-8 * max|c| *
    (1 + |root|)^n, divided through by (1 + |root|)^n and summed over the
    columns nonzero in some row, so that no term overflows.

    A caller that needs only the largest modulus over many rows passes
    only the rows that can reach it: :func:`root_modulus_bounds` proves
    the others below it at a small fraction of an eigensolve.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] < 2:
        raise InvalidParams("coefficients must be rows of at least two entries")
    degree = c.shape[1] - 1
    roots = np.empty((c.shape[0], degree), dtype=complex)
    real = ~c.imag.any(axis=1)
    for rows, part in ((real, c.real), (~real, c)):  # each stack in its own arithmetic
        if rows.any():
            count = np.count_nonzero(rows)
            with allocating(f"a stack of {count} companion matrices of size {degree}"):
                companion = np.zeros((count, degree, degree), dtype=part.dtype)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                companion[:, 0, :] = -part[rows, -2::-1] / part[rows, -1:]
            if not np.isfinite(companion[:, 0, :]).all():
                raise DegenerateLeading("a leading coefficient vanishes or c_k / c_n overflows")
            companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
            roots[rows] = stacked_eigenvalues(companion)
    # sum_k c_k z^k / (1 + |z|)^n, each power |z|^k (1 + |z|)^(k - n) at most 1
    cols = np.flatnonzero(c.any(axis=0))
    shrink = 1.0 / (1.0 + np.abs(roots))[:, None, :]
    value = np.sum(c[:, cols, None] * (roots[:, None, :] * shrink) ** cols[:, None]
                   * shrink ** (degree - cols)[:, None], axis=1)
    bad = ~(np.abs(value) <= 1e-8 * np.max(np.abs(c), axis=1)[:, None])  # NaN too
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise NoConvergence(f"root residual |p(z)| / (1 + |z|)^n = "
                            f"{abs(value[row, col]):.3e} exceeds its bound in row {row}")
    return roots


_NEWTON_STEPS = 6  # F < 2e-9 after them on the benchmark's mode rows; any count is sound


def root_modulus_bounds(coeffs) -> np.ndarray:
    """A proved upper bound on the modulus of every root of each row
    ``c[k, 0] + c[k, 1] z + ... + c[k, n] z^n``; returns an (rows,) array.

    The bound is Cauchy's R, the positive root of |c_n| r^n = sum_{k<n}
    |c_k| r^k (Marden, *Geometry of Polynomials*, 1966, section 27): for
    |z| >= R the leading term outweighs the rest, so every root has
    |z| < R.  R lies in [r_lo, 2 r_lo), r_lo = max_k a_k^{1/(n-k)} with
    a_k = |c_k / c_n|.  Only the columns that are nonzero in some row
    enter, so a sparse row costs its few terms, not n.

    With t = log r, F(t) = log sum_k a_k e^{-(n-k) t} is convex and falls
    with slope at most -1, and F = 0 at log R.  Newton steps from log r_lo
    approach log R from below; then t + max(F(t), 0) is above log R.  The
    returned R is e^{t + max(F(t), 0) + 4 d}, and it must pass the check
    sum_k a_k R^{k-n} <= 1 - d, evaluated in logarithms, with the rounding
    allowance d = 16 eps (1 + K + |log |c_n|| + n |log R|) for K nonzero
    columns: each log and exp is within 4 ulps, the error of term k's
    exponent log a_k - (n - k) log R is at most 9 eps times
    1 + |log |c_n|| + (n - k) |log R| plus 5 eps times the exponent's own
    size, and term k weighs e^{exponent} <= 1.  A row that fails the check
    (an overflow, a zero leading coefficient, NaN, or lower coefficients
    that are all zero) gets ``inf``, never a finite wrong bound.
    """
    c = np.asarray(coeffs)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] < 2:
        raise InvalidParams("coefficients must be rows of at least two entries")
    n = c.shape[1] - 1
    cols = np.flatnonzero(np.any(c[:, :-1], axis=0))
    if not cols.size:
        return np.full(c.shape[0], np.inf)
    expo = (n - cols)[:, None].astype(float)
    weights = np.stack([np.ones(cols.size), expo[:, 0]])  # the sum and the slope
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lead = np.log(np.abs(c[:, -1]))
        logs = np.log(np.abs(c[:, cols].T)) - lead  # log a_k
        t = np.max(logs / expo, axis=0)  # log r_lo
        for _ in range(_NEWTON_STEPS):
            total, slope = weights @ np.exp(logs - expo * t)
            t += np.log(total) * total / slope
        t += np.maximum(np.log(np.exp(logs - expo * t).sum(axis=0)), 0.0)
        allowance = 16.0 * np.finfo(float).eps * (1.0 + cols.size + np.abs(lead) + n * np.abs(t))
        bound = np.exp(t + 4.0 * allowance)  # F falls by at least 4 d on the way
        g = np.exp(logs - expo * np.log(bound)).sum(axis=0)
    return np.where(g <= 1.0 - allowance, bound, np.inf)


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
        import scipy.linalg

        rhs = np.asarray(b)
        if rhs.shape[0] != self.size:
            raise InvalidParams(f"rhs has leading dimension {rhs.shape[0]}, "
                                f"expected {self.size}")
        return scipy.linalg.lu_solve((self._lu, self._piv), rhs, check_finite=False)


def require_pivots(d) -> np.ndarray:
    """Return the diagonal ``d`` of a diagonal matrix, or raise
    :class:`Singular` if some |d_i| is at or below 1e-14 times the largest."""
    smallest, floor = np.min(np.abs(d)), 1e-14 * np.max(np.abs(d))
    if smallest <= floor:
        raise Singular(f"pivot {smallest:.3e} at or below {floor:.3e}")
    return d


def solver_for(m) -> LinearSolver:
    """LU-factor a square nonsingular matrix for repeated solves.

    Raises :class:`Singular` when a pivot falls below 1e-14 * scaled_norm(M).
    """
    import scipy.linalg

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

