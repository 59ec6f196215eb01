"""Stability machinery for theta-methods applied to y' = -A y + B y(t - tau).

The one-step map of the method acting on the stacked history
(y_n, ..., y_{n-m}) is the companion matrix W; the method is
(asymptotically) stable iff rho(W) < 1.  The scalar reduction replaces a
mode of the system by the pair (y, mu) with y = -h*lambda < 0 and checks
whether all roots of the stability polynomial

    P(z) = a(z) - y c(z) + y mu b(z),
    a(z) = z^{m+1} - z^m,
    b(z) = theta (u z^2 + (1-u) z) + (1-theta) (u z + (1-u)),
    c(z) = theta z^{m+1} + (1-theta) z^m,

lie strictly inside the unit disk (the region D_y); y must be finite.

Membership in D_y is always decided by root computation, never by
point-in-polygon tests against the boundary curve Gamma_y: the curve
self-intersects for larger m and only its innermost loop bounds D_y,
while root-counting is robust for every theta, u, m.  Every D_y question
(``in_dy``, the step certificate, the mode analysis) is one stacked root
call over its (y, mu) rows.  The leading coefficient 1 - y theta >= 1 is
never trimmed: at large |y| the root it carries is the largest one.

Certificates offered, strongest first:

* ``unconditional_certificate`` -- u = 0, theta > 1/2: if the field of
  values F(A^{p/2-1} B A^{-p/2}) fits in the open unit disk for some p,
  the method is stable for every step size.  The disk test uses the
  supporting-line outer bound of the sampled field of values; an
  eigenvalue of A^{-1} B of modulus >= 1 rules out every p before any
  sweep.
* ``step_certificate`` -- theta = 1, u = 0: the regions D_y are nested
  (y1 < y2 < 0 implies D_{y1} subset of D_{y2}), so containment of the
  transformed field of values in D_{-h*lambda_max(A)} certifies stability
  for the given step.  An eigenvalue of A^{-1} B outside that D_y rules
  out every p before any sweep.
* ``simdiag_analysis`` -- A, B simultaneously diagonalizable (a
  Hermitian A may repeat eigenvalues, see ``simdiag_pairs``): exact
  mode-by-mode verdicts from the pairs (lambda_i, gamma_i), with the
  roots of every mode from one batched companion eigenvalue call.
* ``oracle_stability`` -- brute force: the spectral radius of the dense W
  itself, the independent reference of the tests.

``certify`` is the one entry point that merges them.  It computes the
modes once.  When they exist it runs the mode analysis, and the oracle's
rho(W) is the largest root modulus over the N mode polynomials of degree
m + 1: det P(z) factors over the modes, so this is the number the dense
oracle computes, and W is never built.  Otherwise it runs the
unconditional and then the step certificate, and the oracle builds the
dense W.  Either oracle runs while dim W = (m + 1) N stays under
``ORACLE_CAP``; its note names the path ("per-mode over N modes" or
"dense W").  The verdict is, in order of precedence: CertifiedUnstable
(an instability witness from any analysis), UnconditionallyStable,
StableForThisStep, Uncertified.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import fov, linalg
from ._csv import write_csv
from .errors import (
    ComplexSpectrum,
    InvalidParams,
    NotHermitian,
    NotPositiveDefinite,
    NotSimultaneouslyDiagonalizable,
    Singular,
    UnsupportedScheme,
)

ROOT_TOL = 1e-9
DEFAULT_P_GRID = (0.0, 1.0, 2.0)
ORACLE_CAP = 5000  # max (m+1)N for the automatic brute-force check

UNCONDITIONALLY_STABLE = "UnconditionallyStable"
STABLE_FOR_THIS_STEP = "StableForThisStep"
UNCERTIFIED = "Uncertified"
CERTIFIED_UNSTABLE = "CertifiedUnstable"


@dataclass(frozen=True)
class ThetaScheme:
    """Method parameters theta, u plus the delay grid tau = (m - u) h.

    theta in [0, 1] blends the explicit (0) and implicit (1) Euler ends;
    u in [0, 1) offsets the delay from a grid multiple and is resolved by
    linear interpolation.  m >= 3 is required whenever u > 0 (the one-step
    matrix needs three distinct delayed columns); m >= 1 suffices at u = 0.
    """

    theta: float
    u: float
    m: int
    tau: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise InvalidParams(f"theta must lie in [0, 1], got {self.theta}")
        if not 0.0 <= self.u < 1.0:
            raise InvalidParams(f"u must lie in [0, 1), got {self.u}")
        if int(self.m) != self.m or self.m < 1:
            raise InvalidParams(f"m must be a positive integer, got {self.m}")
        if self.u > 0.0 and self.m < 3:
            raise InvalidParams("m >= 3 is required when u > 0")
        if not 0.0 < self.tau < math.inf:
            raise InvalidParams(f"tau must be finite and positive, got {self.tau}")
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "tau", float(self.tau))

    @property
    def h(self) -> float:
        """Step size tau / (m - u)."""
        return self.tau / (self.m - self.u)

    def to_dict(self) -> dict:
        return {"theta": self.theta, "u": self.u, "m": self.m,
                "tau": self.tau, "h": self.h}


def _delayed_weights(theta: float, u: float) -> np.ndarray:
    # b(z) coefficients: constant, z, z^2
    return np.array([
        (1.0 - theta) * (1.0 - u),
        theta * (1.0 - u) + (1.0 - theta) * u,
        theta * u,
    ])


def _coefficient_rows(ys, mus, scheme: ThetaScheme) -> np.ndarray:
    """One row of P(z) coefficients (constant first) per finite y < 0 and mu."""
    m, theta = scheme.m, scheme.theta
    coeffs = np.zeros((len(mus), m + 2), dtype=complex)
    coeffs[:, m + 1] += 1.0 - ys * theta
    coeffs[:, m] += -1.0 - ys * (1.0 - theta)
    coeffs[:, :3] += (ys * mus)[:, None] * _delayed_weights(theta, scheme.u)
    return coeffs


@dataclass(frozen=True)
class DyMembership:
    """Outcome of a D_y membership test.

    ``margin`` is 1 - max|root|: positive inside, negative outside,
    within ROOT_TOL of zero means marginal (no stability claim either way).
    """

    inside: bool
    margin: float
    max_root_modulus: float

    def __bool__(self) -> bool:
        return self.inside

    @property
    def marginal(self) -> bool:
        return abs(self.margin) <= ROOT_TOL

    @classmethod
    def from_radius(cls, radius: float) -> DyMembership:
        """The membership decided by a largest root modulus."""
        return cls(inside=radius < 1.0 - ROOT_TOL, margin=1.0 - radius,
                   max_root_modulus=radius)


def _dy_radii(ys, mus, scheme: ThetaScheme) -> np.ndarray:
    """Largest root modulus of P(z) for every row (y, mu), from one
    stacked root call; ``ys`` is one y for all rows or one per row."""
    ys = np.asarray(ys, dtype=float)
    ok = (ys < 0.0) & np.isfinite(ys)
    if not np.all(ok):
        raise InvalidParams(f"y must be finite and negative, got {ys[~ok][0]}")
    roots = linalg.stacked_poly_roots(_coefficient_rows(ys, mus, scheme))
    return np.max(np.abs(roots), axis=1)


def in_dy(mu: complex, y: float, scheme: ThetaScheme) -> DyMembership:
    """Does mu belong to the stability region D_y (y finite, negative)?

    Decided by all roots of the stability polynomial, the one-row case of
    the stacked root call; true iff every modulus is below 1 - ROOT_TOL.
    """
    return DyMembership.from_radius(float(_dy_radii(y, np.array([mu]), scheme)[0]))


# ---------------------------------------------------------------------------
# boundary curve Gamma_y (u = 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionBoundary:
    """Samples mu(alpha, y) of the curve Gamma_y, symmetric in alpha."""

    alphas: np.ndarray
    mus: np.ndarray

    def to_csv(self, path) -> None:
        """Write alpha, re, im rows; ``path=None`` writes to stdout."""
        write_csv(path, "alpha,re,im", (self.alphas, self.mus.real, self.mus.imag))


def gamma_y(scheme: ThetaScheme, y: float, n_samples: int = 512) -> RegionBoundary:
    """Trace mu(alpha, y) = z^m (1 - z + y(1-theta+z theta)) / (y(1-theta+z theta))
    with z = e^{i alpha} on a symmetric alpha grid through 0 (u = 0 only).
    """
    if scheme.u != 0.0:
        raise UnsupportedScheme("Gamma_y is parametrized only for u = 0")
    if not -math.inf < y < 0.0:  # the rule of _dy_radii; y = -inf gives nan
        raise InvalidParams(f"y must be finite and negative, got {y}")
    if n_samples < 16:
        raise InvalidParams("n_samples must be at least 16")
    # build the grid from a half axis so alpha -> -alpha symmetry is exact
    half = np.linspace(0.0, np.pi, n_samples // 2 + 1)
    alphas = np.concatenate([-half[:0:-1], half])
    z = np.exp(1j * alphas)
    denom = y * (1.0 - scheme.theta + z * scheme.theta)
    mus = z ** scheme.m * (1.0 - z + denom) / denom
    return RegionBoundary(alphas=alphas, mus=mus)


# ---------------------------------------------------------------------------
# companion matrix and brute-force oracle
# ---------------------------------------------------------------------------

def build_w(a, b, scheme: ThetaScheme) -> np.ndarray:
    """One-step matrix W mapping (y_n, ..., y_{n-m}) to (y_{n+1}, ..., y_{n-m+1}).

    First block row: (I + theta h A)^{-1} applied to
    [I - (1-theta) h A | ... | h B theta u | hB(theta(1-u)+(1-theta)u) | hB(1-theta)(1-u)]
    at the block columns of y_n, y_{n-m+2}, y_{n-m+1} and y_{n-m};
    coinciding columns accumulate.  Rows below shift the history.
    """
    am = linalg.as_square_matrix(a)
    bm = linalg.as_square_matrix(b)
    if am.shape != bm.shape:
        raise InvalidParams(f"A and B shapes differ: {am.shape} vs {bm.shape}")
    n = am.shape[0]
    m, h, theta, u = scheme.m, scheme.h, scheme.theta, scheme.u
    dtype = np.result_type(am, bm, 1.0)
    eye = np.eye(n, dtype=dtype)
    weights = h * _delayed_weights(theta, u)  # columns y_{n-m}, y_{n-m+1}, y_{n-m+2}

    row0 = np.zeros((n, (m + 1) * n), dtype=dtype)
    row0[:, :n] += eye - (1.0 - theta) * h * am
    for k, w in enumerate(weights):
        if w != 0.0:
            col = m - k
            row0[:, col * n:(col + 1) * n] += w * bm

    solver = linalg.solver_for(eye + theta * h * am)
    w_mat = np.zeros(((m + 1) * n, (m + 1) * n), dtype=dtype)
    w_mat[:n, :] = solver.solve(row0)
    for r in range(1, m + 1):
        w_mat[r * n:(r + 1) * n, (r - 1) * n:r * n] = eye
    return w_mat


@dataclass(frozen=True)
class OracleVerdict:
    """Spectral-radius verdict for the one-step matrix W."""

    stable: bool
    spectral_radius: float
    dim: int

    def __bool__(self) -> bool:
        return self.stable

    @property
    def certified_unstable(self) -> bool:
        return self.spectral_radius >= 1.0 + ROOT_TOL

    @classmethod
    def from_radius(cls, radius: float, dim: int) -> OracleVerdict:
        """The verdict decided by rho(W) of a W of dimension ``dim``."""
        return cls(stable=radius < 1.0 - ROOT_TOL, spectral_radius=radius, dim=dim)


def oracle_stability(a, b, scheme: ThetaScheme) -> OracleVerdict:
    """Brute-force check: build the dense W and test rho(W) < 1 - ROOT_TOL.

    ``certify`` calls it only when A, B have no modes; with modes it takes
    the same radius from the mode polynomials.
    """
    w_mat = build_w(a, b, scheme)
    return OracleVerdict.from_radius(
        float(np.max(np.abs(linalg.general_eigenvalues(w_mat)))), w_mat.shape[0])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Evidence:
    """One recorded check: name, parameter (p value or eigen-pair index),
    margin (sign convention of the check) and an optional note."""

    check: str
    index: object = None
    margin: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {"check": self.check, "index": self.index,
                "margin": self.margin, "note": self.note}


@dataclass(frozen=True)
class StabilityReport:
    """A verdict, the evidence behind it in order, and its scheme."""

    verdict: str
    evidence: tuple = field(default_factory=tuple)
    scheme: ThetaScheme | None = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "evidence": [e.to_dict() for e in self.evidence],
            "scheme": self.scheme.to_dict() if self.scheme else None,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _spectrum_a_inv_b(a, b) -> np.ndarray:
    """sigma(A^{-1} B) = sigma(A^{p/2-1} B A^{-p/2}) for every p (a
    similarity), and it lies inside each of those fields of values; so one
    failed spectral check rules the whole p family out."""
    return linalg.general_eigenvalues(fov.transformed_matrix(a, b, 0.0))


def unconditional_certificate(a, b, scheme: ThetaScheme,
                              p_grid=DEFAULT_P_GRID,
                              n_angles: int = fov.DEFAULT_ANGLES) -> StabilityReport:
    """Certify stability for every step size (u = 0, theta > 1/2 only).

    Scans the p grid for F(A^{p/2-1} B A^{-p/2}) inside the open unit
    disk.  A p is accepted only when the supporting-line outer bound on
    the numerical radius (:meth:`fov.FovBoundary.outer_radius`, rounding
    allowance included) is below 1, so an acceptance is one-sided sound;
    that bound is recorded as the ``fov-unit-disk`` margin 1 - bound.
    Outside the scheme hypotheses the verdict is Uncertified with the
    reason recorded (for theta <= 1/2 no mu can ever qualify).
    """
    if scheme.u != 0.0 or scheme.theta <= 0.5:
        reason = ("unconditional region is empty for theta <= 1/2"
                  if scheme.u == 0.0 else "certificate requires u = 0")
        return StabilityReport(UNCERTIFIED, (Evidence("scheme-hypotheses", note=reason),),
                               scheme)
    evidence = []
    rho = float(np.max(np.abs(_spectrum_a_inv_b(a, b))))
    if rho >= 1.0:
        evidence.append(Evidence("spectrum-obstruction", margin=1.0 - rho,
                                 note="an eigenvalue of A^{p/2-1} B A^{-p/2} has "
                                      "modulus >= 1 for every p; certificate inapplicable"))
        return StabilityReport(UNCERTIFIED, tuple(evidence), scheme)
    for p in p_grid:
        try:
            t_mat = fov.transformed_matrix(a, b, p)
        except (NotHermitian, NotPositiveDefinite) as exc:
            evidence.append(Evidence("fov-unit-disk", index=p, note=f"skipped: {exc}"))
            continue
        outer = fov.fov_boundary(t_mat, n_angles).outer_radius()
        evidence.append(Evidence("fov-unit-disk", index=p, margin=1.0 - outer,
                                 note="outer bound on the numerical radius"))
        if outer < 1.0:
            return StabilityReport(UNCONDITIONALLY_STABLE, tuple(evidence), scheme)
    return StabilityReport(UNCERTIFIED, tuple(evidence), scheme)


def step_certificate(a, b, scheme: ThetaScheme,
                     p_grid=DEFAULT_P_GRID,
                     n_angles: int = fov.DEFAULT_ANGLES) -> StabilityReport:
    """Certify stability for this particular step size (theta = 1, u = 0).

    Region nesting collapses the intersection of D_y over y in -h F(A) to
    the single worst parameter y = -h lambda_max(A); each sampled point of
    the transformed field of values must lie in D_y with margin at least
    the inflation margin.

    Before any sweep, the eigenvalues of A^{-1} B are tested: they lie in
    the transformed field of values for every p, so if one of them has
    D_y margin <= 0 at y, no p can pass.  The report is then Uncertified
    with a single ``spectrum-obstruction`` entry (margin = the worst
    eigenvalue margin) and nothing is swept.  This check can only withhold
    a certificate, never grant one.

    The margins come from one stacked root call over sigma(A^{-1} B) and
    one per swept p over its sampled points.
    """
    if scheme.theta != 1.0 or scheme.u != 0.0:
        return StabilityReport(
            UNCERTIFIED,
            (Evidence("scheme-hypotheses",
                      note="step certificate requires theta = 1 and u = 0"),),
            scheme)
    dec = linalg.hermitian_eigen(a)
    floor = linalg.PD_TOL * linalg.scaled_norm(a)
    if np.min(dec.values) <= floor:
        raise NotPositiveDefinite("step certificate needs positive definite A")
    y_worst = -scheme.h * float(dec.values[-1])
    spectral = 1.0 - float(np.max(_dy_radii(y_worst, _spectrum_a_inv_b(a, b), scheme)))
    if spectral <= 0.0:
        return StabilityReport(
            UNCERTIFIED,
            (Evidence("spectrum-obstruction", margin=spectral,
                      note=f"an eigenvalue of A^{{-1}} B lies outside D_y at "
                           f"y = {y_worst:.6g}, which rules out every p"),),
            scheme)
    evidence = []
    for p in p_grid:
        try:
            t_mat = fov.transformed_matrix(a, b, p)
        except (NotHermitian, NotPositiveDefinite) as exc:
            evidence.append(Evidence("fov-in-dy", index=p, note=f"skipped: {exc}"))
            continue
        boundary = fov.fov_boundary(t_mat, n_angles)
        needed = fov.fov_margin(t_mat)
        worst = 1.0 - float(np.max(_dy_radii(y_worst, boundary.points, scheme)))
        evidence.append(Evidence("fov-in-dy", index=p, margin=worst,
                                 note=f"y = {y_worst:.6g}"))
        if worst >= needed:
            return StabilityReport(STABLE_FOR_THIS_STEP, tuple(evidence), scheme)
    return StabilityReport(UNCERTIFIED, tuple(evidence), scheme)


def simdiag_pairs(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Mode pairs (lambda_i, gamma_i) of simultaneously diagonalizable A, B,
    N of them, sorted by descending lambda.

    Eigenvalues count as equal when they agree to within eigh's backward
    error, 16 N eps max|lambda|.  A Hermitian A (to that relative
    tolerance) goes through ``linalg.hermitian_eigen``; its eigenvalues form
    clusters where consecutive gaps are at most that tolerance, and a
    cluster spanning more than it from end to end is rejected.  The part
    of V^H B V outside the diagonal cluster blocks must be at most 1e-8
    scaled_norm(B).  A cluster c then gives the modes (lambda_c, gamma) for
    every eigenvalue gamma of its block B_c, with lambda_c the cluster
    mean.  On a cluster A is lambda_c I up to rounding, so det P(z) factors
    over the eigenvalues of B_c and the modes are exact also when B_c is
    not diagonalizable (a Jordan block).  Eigenvalues of A any further
    apart are separate clusters, so a B coupling them is rejected: a
    non-normal B_c on a spread cluster would move the roots by the square
    root of the spread.

    Any other A goes through ``eig``: every eigenvalue is its own cluster,
    the eigenvector matrix must be nonsingular, and V^{-1} B V must be
    diagonal to the same 1e-8 relative tolerance.

    Raises ComplexSpectrum when A's spectrum is not real and positive,
    NotSimultaneouslyDiagonalizable when a test above fails.
    """
    am = linalg.as_square_matrix(a)
    bm = linalg.as_square_matrix(b)
    if am.shape != bm.shape:
        raise InvalidParams(f"A and B shapes differ: {am.shape} vs {bm.shape}")
    equal = 16 * am.shape[0] * np.finfo(float).eps
    if linalg.hermitian_violation(am) <= equal:
        dec = linalg.hermitian_eigen(am)
        lam, vec = dec.values, dec.vectors
        d_b = vec.conj().T @ (bm @ vec)
        cuts = np.flatnonzero(np.diff(lam) > equal * np.max(np.abs(lam))) + 1
    else:
        lam, vec = np.linalg.eig(am)
        try:
            d_b = linalg.solver_for(vec).solve(bm @ vec)
        except Singular as exc:
            raise NotSimultaneouslyDiagonalizable(
                f"eigenvectors of A are linearly dependent ({exc})") from exc
        cuts = np.arange(1, lam.size)
    scale = float(np.max(np.abs(lam)))
    if scale == 0.0 or np.max(np.abs(lam.imag)) > 1e-8 * scale or np.min(lam.real) <= 0.0:
        raise ComplexSpectrum("eigenvalues of A must be real and positive")
    lam = lam.real
    starts = np.concatenate([[0], cuts])
    sizes = np.diff(np.append(starts, lam.size))
    labels = np.repeat(np.arange(starts.size), sizes)
    off = np.where(labels[:, None] == labels[None, :], 0.0, d_b)
    b_norm = linalg.scaled_norm(bm)
    if b_norm > 0.0 and linalg.scaled_norm(off) > 1e-8 * b_norm:
        raise NotSimultaneouslyDiagonalizable(
            "eigenvectors of A do not block-diagonalize B to 1e-8 relative")
    spread = np.maximum.reduceat(lam, starts) - np.minimum.reduceat(lam, starts)
    if np.max(spread) > equal * scale:
        i = starts[int(np.argmax(spread))]
        raise NotSimultaneouslyDiagonalizable(
            f"eigenvalues of A near {lam[i]:.6g} chain into one cluster wider "
            "than rounding")
    mode_lam = np.repeat(np.add.reduceat(lam, starts) / sizes, sizes)
    gamma = np.diag(d_b).copy()
    for k in np.unique(sizes[sizes > 1]):  # one eigenvalue call per block size
        idx = starts[sizes == k][:, None] + np.arange(k)
        values = linalg.stacked_eigenvalues(d_b[idx[:, :, None], idx[:, None, :]])
        gamma = gamma.astype(np.result_type(gamma, values))
        gamma[idx] = values
    order = np.argsort(-mode_lam, kind="stable")
    return mode_lam[order], gamma[order]


def simdiag_analysis(a, b, scheme: ThetaScheme) -> StabilityReport:
    """Mode-by-mode verdict for simultaneously diagonalizable A, B.

    With mu_i = gamma_i / lambda_i and y_i = -lambda_i h:

    * all |mu_i| < 1, u = 0, theta > 1/2   -> UnconditionallyStable;
    * some Re(mu_i) >= 1, u = 0, theta = 1 -> CertifiedUnstable
      (unstable for every step size);
    * all mu_i in D_{y_i}                  -> StableForThisStep;
    * anything else                        -> Uncertified.

    The D_{y_i} tests are one stacked root call over the rows (y_i, mu_i).
    """
    lam, gamma = simdiag_pairs(a, b)
    radii = _dy_radii(-scheme.h * lam, gamma / lam, scheme)
    return _mode_report(lam, gamma, radii, scheme)


def _mode_report(lam, gamma, radii, scheme: ThetaScheme) -> StabilityReport:
    """The verdict of :func:`simdiag_analysis` from the mode pairs and
    their largest root moduli ``radii``."""
    mus = gamma / lam
    evidence = []

    if scheme.u == 0.0 and scheme.theta > 0.5:
        worst = 1.0 - float(np.max(np.abs(mus)))
        evidence.append(Evidence("all-mu-in-unit-disk", margin=worst))
        if worst > ROOT_TOL:
            return StabilityReport(UNCONDITIONALLY_STABLE, tuple(evidence), scheme)

    if scheme.u == 0.0 and scheme.theta == 1.0:
        real_parts = mus.real
        if np.max(real_parts) >= 1.0:
            i = int(np.argmax(real_parts))
            evidence.append(Evidence("re-mu-at-least-one", index=i,
                                     margin=float(real_parts[i] - 1.0),
                                     note=f"mu_{i} = {mus[i]:.6g}"))
            return StabilityReport(CERTIFIED_UNSTABLE, tuple(evidence), scheme)

    for i, (lam_i, mu_i, radius) in enumerate(zip(lam, mus, radii)):
        evidence.append(Evidence("mu-in-dy", index=i, margin=1.0 - float(radius),
                                 note=f"lambda = {lam_i:.6g}, mu = {mu_i:.6g}"))
    if np.all(radii < 1.0 - ROOT_TOL):
        return StabilityReport(STABLE_FOR_THIS_STEP, tuple(evidence), scheme)
    return StabilityReport(UNCERTIFIED, tuple(evidence), scheme)


def certify(a, b, scheme: ThetaScheme,
            p_grid=DEFAULT_P_GRID,
            n_angles: int = fov.DEFAULT_ANGLES,
            oracle_cap: int = ORACLE_CAP) -> StabilityReport:
    """Run the applicable analyses and merge them into one report.

    The modes of A, B are computed once.  When they exist (simultaneously
    diagonalizable, real positive spectrum of A) the mode analysis runs;
    otherwise the field-of-values certificates.  The spectral radius of W
    is added whenever its dimension fits under ``oracle_cap``: as the
    largest root modulus over the modes when they exist (W is never
    built), else from the dense W.  Verdict precedence: a concrete
    instability witness, then an unconditional certificate, then any
    per-step certificate, else Uncertified.
    """
    evidence = []
    verdicts = []
    dim = (scheme.m + 1) * np.asarray(a).shape[0]

    try:
        modes = simdiag_pairs(a, b)
    except (NotSimultaneouslyDiagonalizable, ComplexSpectrum) as exc:
        modes = None
        evidence.append(Evidence("simdiag", note=f"not applicable: {exc}"))

    if modes is not None:
        lam, gamma = modes
        radii = _dy_radii(-scheme.h * lam, gamma / lam, scheme)
        report = _mode_report(lam, gamma, radii, scheme)
        evidence.extend(report.evidence)
        verdicts.append(report.verdict)
    else:
        report = unconditional_certificate(a, b, scheme, p_grid, n_angles)
        evidence.extend(report.evidence)
        verdicts.append(report.verdict)
        if report.verdict != UNCONDITIONALLY_STABLE:
            try:
                step = step_certificate(a, b, scheme, p_grid, n_angles)
                evidence.extend(step.evidence)
                verdicts.append(step.verdict)
            except (NotHermitian, NotPositiveDefinite) as exc:
                evidence.append(Evidence(
                    "step-certificate", note=f"not applicable: {exc}"))

    oracle = None
    if dim <= oracle_cap:
        if modes is None:
            oracle, path = oracle_stability(a, b, scheme), "dense W"
        else:
            oracle = OracleVerdict.from_radius(float(np.max(radii)), dim)
            path = f"per-mode over {radii.size} modes"
        evidence.append(Evidence(
            "oracle-spectral-radius", margin=1.0 - oracle.spectral_radius,
            note=f"rho(W) = {oracle.spectral_radius:.12g}, dim {oracle.dim}, {path}"))
    else:
        evidence.append(Evidence(
            "oracle-spectral-radius", note=f"skipped: dim {dim} exceeds {oracle_cap}"))

    if (oracle is not None and oracle.certified_unstable) \
            or CERTIFIED_UNSTABLE in verdicts:
        verdict = CERTIFIED_UNSTABLE
    elif UNCONDITIONALLY_STABLE in verdicts:
        verdict = UNCONDITIONALLY_STABLE
    elif STABLE_FOR_THIS_STEP in verdicts or (oracle is not None and oracle.stable):
        verdict = STABLE_FOR_THIS_STEP
    else:
        verdict = UNCERTIFIED
    return StabilityReport(verdict, tuple(evidence), scheme)
