"""Field of values (numerical range) boundary computation and queries.

The boundary of F(M) = { x* M x : ||x|| = 1 } is sampled with the classic
angle sweep on a grid of n equispaced directions phi_k = 2 pi k / n: for
each solved direction only the largest eigenpair (lam, x) of the Hermitian
part H(phi) = (e^{i phi} M + e^{-i phi} M*) / 2 is computed, and x yields
the boundary point x* M x.  H(phi) is formed as cos(phi) H1 - sin(phi) K
from the Hermitian part H1 and K = -i times the skew-Hermitian part of M,
both computed once per sweep.  For real M, H(-phi) = conj H(phi), so the
point at 2 pi - phi is the conjugate of the point at phi: only the
directions 0 .. pi are solved and the rest mirrored.

The sampled points are genuine elements of F(M), so queries built on them,
such as :func:`numerical_radius`, are inner estimates.  The eigenvalues
give the other side: every supporting line Re(e^{i phi_k} z) <= s_k, with
s_k = lam_k plus the eigensolver's rounding allowance, encloses F(M).  The
outer bound on the numerical radius is the per-arc form of Johnson's
bound (C. R. Johnson, SIAM J. Numer. Anal. 15, 1978): if the solved
directions, in angle order, leave gaps g_k (to the next one) all below
pi, then

    w(M) <= max_k max(s_k, s_{k+1}) / cos(g_k / 2).

It is sound because the point z of F(M) with |z| = w(M) lies in some
direction phi, which is within g_k / 2 of an end phi_j of its arc, and
Re(e^{i phi_j} z) = w(M) cos(phi - phi_j) <= s_j.  On the full grid every
g_k is 2 pi / n and the bound is max s / cos(pi / n).  It decides the
unit-disk test of the unconditional certificate, which therefore needs
only the directions that decide it: ``fov_boundary(m, n, radius)`` starts
from ``MIN_ANGLES`` directions of the grid and bisects only the arcs whose
bound is not yet below ``radius`` (:meth:`FovBoundary.outer_radius`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._csv import write_csv
from .errors import InvalidParams, NotHermitian, NotPositiveDefinite, allocating

DEFAULT_ANGLES = 256
MIN_ANGLES = 8


# ---------------------------------------------------------------------------
# field-of-values boundary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FovBoundary:
    """Sampled boundary of a field of values on a grid of ``n_angles``
    equispaced directions, ordered by angle.

    ``indices`` are the grid directions the sweep knows (every one, unless
    it was refined against a radius) and ``angles`` their angles.
    ``points[k]`` is the extreme point found in direction ``angles[k]``;
    the polyline is treated as cyclic.  ``support[k]`` bounds the support
    function from above: the computed largest eigenvalue of H(angles[k])
    plus the eigensolver's rounding allowance, so every z in F(M)
    satisfies Re(e^{i angles[k]} z) <= support[k].
    """

    points: np.ndarray
    n_angles: int
    support: np.ndarray
    indices: np.ndarray

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * self.indices / self.n_angles

    def max_modulus(self) -> float:
        """Largest |z| over the sampled points: an inner estimate."""
        return float(np.max(np.abs(self.points)))

    def outer_radius(self) -> float:
        """Upper bound on the numerical radius from the supporting lines:
        max_k max(support[k], support[k+1]) / cos(g_k / 2), g_k the gap
        from direction k to the next (see the module docstring)."""
        return float(np.max(_arc_bounds(self.support, _gaps(self.indices, self.n_angles),
                                        self.n_angles)))

    def to_csv(self, path) -> None:
        """Write angle, re, im rows; ``path=None`` writes to stdout."""
        write_csv(path, "angle,re,im",
                  (self.angles, self.points.real, self.points.imag))


def _gaps(indices, n_angles: int) -> np.ndarray:
    """Grid steps from each known direction to the next, cyclically."""
    return np.diff(indices, append=indices[0] + n_angles)


def _arc_bounds(support, gaps, n_angles: int) -> np.ndarray:
    """max(s_k, s_{k+1}) / cos(g_k / 2) for every arc; each gap is below
    n_angles / 2 steps, so every cosine is positive."""
    cosines = np.array([math.cos(math.pi * g / n_angles) for g in gaps.tolist()])
    return np.maximum(support, np.roll(support, -1)) / cosines


class _Sweep:
    """The directions of one grid solved so far for one matrix."""

    def __init__(self, matrix: np.ndarray, n_angles: int):
        a = matrix.astype(complex)
        self.a, self.n_angles = a, n_angles
        self.angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
        self.herm = 0.5 * (a + a.conj().T)
        self.skew = -0.5j * (a - a.conj().T)  # Hermitian: -i times the skew part
        # backward error of the eigensolver, generously bounded
        self.allowance = a.shape[0] * np.finfo(float).eps * linalg.scaled_norm(a)
        self.real = not np.any(a.imag)
        self.points = np.empty(n_angles, dtype=complex)
        self.support = np.empty(n_angles)
        self.known = np.zeros(n_angles, dtype=bool)

    def solve(self, ks) -> None:
        """Make every grid direction in ``ks`` known, each solved at most
        once; for real M a direction past pi is the mirror of n - k."""
        n, half = self.n_angles, self.n_angles // 2
        for k in ks:
            k = n - k if self.real and k > half else k
            if self.known[k]:
                continue
            lam, x = linalg.largest_eigenpair(
                math.cos(self.angles[k]) * self.herm - math.sin(self.angles[k]) * self.skew)
            self.points[k] = x.conj() @ (self.a @ x)
            self.support[k] = lam + self.allowance
            self.known[k] = True
            if self.real and 0 < k < n - half:
                self.points[n - k] = np.conj(self.points[k])
                self.support[n - k] = self.support[k]
                self.known[n - k] = True

    def refine(self, radius: float) -> None:
        """Solve ``MIN_ANGLES`` directions of the grid, then bisect the arcs
        whose bound is at least ``radius`` until the outer radius is below
        it, a sampled point has |z| >= radius, or no such arc can be split."""
        n = self.n_angles
        first = MIN_ANGLES // 2 + 1 if self.real else MIN_ANGLES
        self.solve(j * n // MIN_ANGLES for j in range(first))
        while True:
            idx = np.flatnonzero(self.known)
            gaps = _gaps(idx, n)
            bounds = _arc_bounds(self.support[idx], gaps, n)
            if np.max(bounds) < radius or np.max(np.abs(self.points[idx])) >= radius:
                return
            split = (bounds >= radius) & (gaps > 1)
            if self.real:  # the arcs below the real axis mirror those above it
                split &= idx < n // 2
            if not np.any(split):
                return
            self.solve(idx[split] + gaps[split] // 2)

    def boundary(self) -> FovBoundary:
        """The known directions, in angle order."""
        idx = np.flatnonzero(self.known)
        return FovBoundary(points=self.points[idx], n_angles=self.n_angles,
                           support=self.support[idx], indices=idx)


def require_grid(n_angles: int) -> None:
    """Raise ``InvalidParams`` unless a sweep can use the grid of
    ``n_angles`` directions: at least ``MIN_ANGLES`` of them, and few enough
    that numpy can allocate a complex value for each."""
    if n_angles < MIN_ANGLES:
        raise InvalidParams(f"n_angles must be at least {MIN_ANGLES}")
    with allocating(f"{n_angles} directions"):
        np.empty(n_angles, dtype=complex)


def fov_boundary(m, n_angles: int = DEFAULT_ANGLES, radius: float | None = None) -> FovBoundary:
    """Sample the boundary of F(M) on the grid of ``n_angles`` equispaced
    directions.

    Each solved direction costs one largest-eigenpair solve of an N x N
    Hermitian matrix; for real M only the angles 0 .. pi are solved and
    the others are mirrored, ``points[k] = conj(points[n - k])``.  Without
    ``radius`` every direction is known.  With it, the sweep is refined
    only until it decides whether F(M) lies in the open disk of that
    radius: it starts from ``MIN_ANGLES`` directions and bisects only the
    arcs whose bound is not yet below ``radius``, and stops once the outer
    radius is below it, a sampled point lies outside it, or every such
    arc is one grid step wide.
    """
    matrix = linalg.as_square_matrix(m)
    require_grid(n_angles)
    sweep = _Sweep(matrix, n_angles)
    if radius is None:
        sweep.solve(range(n_angles))
    else:
        sweep.refine(radius)
    return sweep.boundary()


def numerical_radius(m, n_angles: int = DEFAULT_ANGLES) -> float:
    """max |z| over F(M), from the sampled boundary.

    The estimate is refined with the spectral radius (a subset of F(M)),
    which keeps ``numerical_radius >= rho(M)`` even where the angular grid
    straddles the extremal direction, and makes it exact for normal M.
    """
    boundary = fov_boundary(m, n_angles)
    rho = float(np.max(np.abs(linalg.general_eigenvalues(m))))
    return max(boundary.max_modulus(), rho)


def transformed_matrix(a, b, p: float, eigen=None) -> np.ndarray:
    """The similarity-weighted matrix A^{p/2-1} B A^{-p/2}.

    p = 0 and p = 2 give A^{-1} B and B A^{-1} and only need a nonsingular
    A; every other p builds the fractional powers from the eigenbasis of a
    Hermitian positive definite A (``linalg.require_positive_definite``):
    ``eigen``, A's ``EigenDecomposition``, when given, else a new one.  An
    A without that hypothesis raises ``NotHermitian`` or
    ``NotPositiveDefinite``, whose message names p and the hypothesis.  An
    overflowing M_p comes back non-finite, without a warning.
    """
    am, bm = linalg.square_pair(a, b)
    if p == 0.0:
        return linalg.solver_for(am).solve(bm)
    if p == 2.0:
        return linalg.solver_for(am.T).solve(bm.T).T
    try:
        dec = linalg.require_positive_definite(am, eigen)
    except (NotHermitian, NotPositiveDefinite) as exc:
        raise type(exc)(f"p = {p:g} needs a Hermitian positive definite A: {exc}") from exc
    v = dec.vectors
    with np.errstate(over="ignore", invalid="ignore"):
        left = (v * dec.values[None, :] ** (0.5 * p - 1.0)) @ v.conj().T
        right = (v * dec.values[None, :] ** (-0.5 * p)) @ v.conj().T
        return left @ bm @ right
