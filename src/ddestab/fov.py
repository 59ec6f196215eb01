"""Field of values (numerical range) boundary computation and queries.

The boundary of F(M) = { x* M x : ||x|| = 1 } is sampled with the classic
angle sweep: for each direction phi only the largest eigenpair
(lam, x) of the Hermitian part H(phi) = (e^{i phi} M + e^{-i phi} M*) / 2
is computed, and x yields the boundary point x* M x.  H(phi) is formed as
cos(phi) H1 - sin(phi) K from the Hermitian part H1 and K = -i times the
skew-Hermitian part of M, both computed once per sweep.  For real M,
H(-phi) = conj H(phi), so the point at 2 pi - phi is the conjugate of the
point at phi: only half of the angles are solved and the rest mirrored.

The sampled points are genuine elements of F(M), so queries built on them,
such as :func:`numerical_radius`, are inner estimates.  The eigenvalues
give the other side: every supporting line Re(e^{i phi} z) <= lam encloses
F(M), and with n equispaced directions the numerical radius is at most
max lam / cos(pi / n) (C. R. Johnson, SIAM J. Numer. Anal. 15, 1978).
That outer bound, raised by the eigensolver's rounding allowance
(:meth:`FovBoundary.outer_radius`), decides the unit-disk test of the
unconditional certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._csv import write_csv
from .errors import InvalidParams, NotPositiveDefinite

DEFAULT_ANGLES = 256
MIN_ANGLES = 8


# ---------------------------------------------------------------------------
# field-of-values boundary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FovBoundary:
    """Sampled boundary of a field of values, ordered by sweep angle.

    ``points[k]`` is the extreme point found in direction ``angles[k]``;
    the polyline is treated as cyclic.  ``support[k]`` bounds the support
    function from above: the computed largest eigenvalue of H(angles[k])
    plus the eigensolver's rounding allowance, so every z in F(M)
    satisfies Re(e^{i angles[k]} z) <= support[k].
    """

    points: np.ndarray
    angles: np.ndarray
    n_angles: int
    support: np.ndarray

    def max_modulus(self) -> float:
        """Largest |z| over the sampled points: an inner estimate."""
        return float(np.max(np.abs(self.points)))

    def outer_radius(self) -> float:
        """Upper bound on the numerical radius from the supporting lines.

        Every direction lies within pi / n of a sampled one, so the
        polygon cut out by the supporting lines fits in the disk of
        radius max_k support[k] / cos(pi / n).
        """
        return float(np.max(self.support)) / math.cos(math.pi / self.n_angles)

    def to_csv(self, path) -> None:
        """Write angle, re, im rows; ``path=None`` writes to stdout."""
        write_csv(path, "angle,re,im",
                  (self.angles, self.points.real, self.points.imag))


def fov_boundary(m, n_angles: int = DEFAULT_ANGLES) -> FovBoundary:
    """Sample the boundary of F(M) at ``n_angles`` equispaced directions.

    Each direction costs one largest-eigenpair solve of an N x N Hermitian
    matrix; for real M only the angles 0 .. pi are solved and the others
    are mirrored, ``points[k] = conj(points[n - k])``.
    """
    a = linalg.as_square_matrix(m).astype(complex)
    if n_angles < MIN_ANGLES:
        raise InvalidParams(f"n_angles must be at least {MIN_ANGLES}")
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    herm = 0.5 * (a + a.conj().T)
    skew = -0.5j * (a - a.conj().T)  # Hermitian: -i times the skew part
    # backward error of the eigensolver, generously bounded
    allowance = a.shape[0] * np.finfo(float).eps * linalg.scaled_norm(a)
    real = not np.any(a.imag)
    n_solved = n_angles // 2 + 1 if real else n_angles
    points = np.empty(n_angles, dtype=complex)
    support = np.empty(n_angles)
    for k in range(n_solved):
        lam, x = linalg.largest_eigenpair(
            math.cos(angles[k]) * herm - math.sin(angles[k]) * skew)
        points[k] = x.conj() @ (a @ x)
        support[k] = lam + allowance
    if real:
        mirrored = np.arange(n_solved, n_angles)
        points[mirrored] = np.conj(points[n_angles - mirrored])
        support[mirrored] = support[n_angles - mirrored]
    return FovBoundary(points=points, angles=angles, n_angles=n_angles,
                       support=support)


def numerical_radius(m, n_angles: int = DEFAULT_ANGLES) -> float:
    """max |z| over F(M), from the sampled boundary.

    The estimate is refined with the spectral radius (a subset of F(M)),
    which keeps ``numerical_radius >= rho(M)`` even where the angular grid
    straddles the extremal direction, and makes it exact for normal M.
    """
    boundary = fov_boundary(m, n_angles)
    rho = float(np.max(np.abs(linalg.general_eigenvalues(m))))
    return max(boundary.max_modulus(), rho)


def transformed_matrix(a, b, p: float) -> np.ndarray:
    """The similarity-weighted matrix A^{p/2-1} B A^{-p/2}.

    p = 0 and p = 2 give A^{-1} B and B A^{-1} and only need a nonsingular
    A; every other p builds the fractional powers from the eigenbasis of a
    Hermitian positive definite A.
    """
    am, bm = linalg.square_pair(a, b)
    if p == 0.0:
        return linalg.solver_for(am).solve(bm)
    if p == 2.0:
        return linalg.solver_for(am.T).solve(bm.T).T
    dec = linalg.hermitian_eigen(am)
    floor = linalg.PD_TOL * linalg.scaled_norm(am)
    if np.min(dec.values) <= floor:
        raise NotPositiveDefinite("fractional powers need a positive definite matrix")
    v = dec.vectors
    left = (v * dec.values[None, :] ** (0.5 * p - 1.0)) @ v.conj().T
    right = (v * dec.values[None, :] ** (-0.5 * p)) @ v.conj().T
    return left @ bm @ right

