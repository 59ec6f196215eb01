"""Stability machinery for theta-methods applied to y' = -A y + B y(t - tau).

The method with step h is one matrix polynomial (``_polynomial``),

    T(z) = sum_{k=0}^{m+1} z^k (e_k I + a_k h A + b_k h B),
    e(z) = z^{m+1} - z^m,   a(z) = theta z^{m+1} + (1-theta) z^m,
    b(z) = -theta (u z^2 + (1-u) z) - (1-theta) (u z + (1-u)),

whose zeros are the eigenvalues of the one-step matrix W on the stacked
history (y_n, ..., y_{n-m}) (``build_w``); the method is (asymptotically)
stable iff rho(W) < 1.  A mode (y, mu), y = -h lambda < 0 and mu = gamma /
lambda, has the scalar row P(z) = e(z) - y a(z) - y mu b(z), and D_y is
the set of mu whose row has every root strictly inside the unit disk; y
must be finite.  Each row is written as P(z) / s, with s >= 1 a power of
two that brings y / s into (-1, 0) (``_coefficient_rows``): an exact
scaling, which keeps the roots and the companion matrix of P(z).

Membership in D_y is always decided by root computation, never by
point-in-polygon tests against the boundary curve Gamma_y: the curve
self-intersects for larger m and only its innermost loop bounds D_y,
while root-counting is robust for every theta, u, m.  Every D_y question
(``in_dy``, the step certificate, the mode analysis) goes through
``_dy_radii``, which solves only the rows whose proved bound on the root
moduli reaches the largest root modulus.

``certify`` is the one entry point.  It validates the pair once, in a
``_Facts``, which then computes each shared fact when a stage first asks
for it and keeps its value (an error is not kept): the one
eigendecomposition of a Hermitian A and whether A is positive definite,
the modes, the transformed matrix M_p = A^{p/2-1} B A^{-p/2} of each p
and sigma(A^{-1} B), taken from M_0.  Each field-of-values stage sweeps
F(M_p) itself, with one ``fov.fov_boundary`` call per p.  The stages each take the facts and return a ``StabilityReport``:

* ``simdiag_analysis`` -- A, B simultaneously diagonalizable with finite
  mu_i = gamma_i / lambda_i (``_Facts.modes``): exact verdicts mode by
  mode, from one ``_dy_radii`` question over the modes, and rho(W) as the
  largest mode radius, at any dim W.  Its report is the whole verdict.
* ``unconditional_certificate`` -- no modes, u = 0, theta > 1/2: F(M_p)
  inside the open unit disk for some p means stability for every step
  size, tested on an outer bound of w(M_p) (``FovBoundary.outer_radius``).
* ``step_certificate`` -- no modes and no unconditional certificate,
  theta = 1, u = 0: F(M_p) inside D_{-h lambda_max(A)} means stability
  for this step.  It sweeps every direction of the grid, as ``ddestab
  fov`` does.
* ``_oracle`` -- no modes: rho of the dense W of ``oracle_stability``, the
  tests' reference, while dim W = (m + 1) N fits under ``ORACLE_CAP``.
  The cap bounds only this dense W.

Both field-of-values stages need a Hermitian positive definite A, the
paper's hypothesis (``unconditional_certificate`` shows why), and any
other A gets one refusal entry from each.  sigma(A^{-1} B) = sigma(M_p)
lies in F(M_p) for every p, so both then test it before any sweep: one
eigenvalue outside the target region rules out every p.  The verdict is
the first of CertifiedUnstable, UnconditionallyStable and
StableForThisStep that some stage reached, else Uncertified.

Every stable/unstable decision is the rule ``_side``: radius r with bound e
is inside if r < 1 - e, outside if r >= 1 + e, else undecided.  The bound
is ROOT_TOL for root moduli, rho(W) and max|mu_i|; 0 for Re(mu_i), the
spectrum obstructions and the outer numerical radius; ``_inflation_margin``
for the sampled points of the step certificate.
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
    allocating,
)

ROOT_TOL = 1e-9
DEFAULT_P_GRID = (0.0, 1.0, 2.0)
ORACLE_CAP = 5000  # max (m+1)N of the dense W the oracle builds
_INSIDE, _OUTSIDE, _UNDECIDED = "inside", "outside", "undecided"  # sides of _side

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
        if not (1 <= self.m < math.inf and int(self.m) == self.m):  # not NaN either
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


def _polynomial(scheme: ThetaScheme) -> np.ndarray:
    """The weight rows (e, a, b) of T(z), constant term first, each of
    length m + 2; b_{m+1} = 0, since u > 0 needs m >= 3."""
    m, theta, u = scheme.m, scheme.theta, scheme.u
    with allocating(f"the 3x{m + 2} weights of T(z)"):
        weights = np.zeros((3, m + 2))
    weights[:2, m:] = [[-1.0, 1.0], [1.0 - theta, theta]]
    weights[2, :3] = [-(1.0 - theta) * (1.0 - u),
                      -(theta * (1.0 - u) + (1.0 - theta) * u), -(theta * u)]
    return weights


def _coefficient_rows(ys, mus, scheme: ThetaScheme, h: float = 1.0) -> np.ndarray:
    """One row of P(z) / s coefficients (constant first) per y = h ys < 0
    and finite mu, from y / s and 1 / s, never from h ys; 1 / s may
    underflow to its limit 0.  InvalidParams names a y not finite and < 0."""
    ys = np.broadcast_to(ys, np.shape(mus))
    frac, expo = np.frexp(ys)
    h_frac, h_expo = math.frexp(h)
    k = np.maximum(expo + h_expo, 0)
    y_s = np.ldexp(frac * h_frac, expo + h_expo - k)  # y / s, exact unless subnormal
    ok = (y_s < 0.0) & np.isfinite(y_s)
    if not np.all(ok):
        raise InvalidParams(f"y must be finite and negative, got {h * ys[~ok][0]}")
    e, a, b = _polynomial(scheme)
    with allocating(f"{y_s.size} rows of {e.size} coefficients"):
        return (np.ldexp(1.0, -k)[:, None] * e - y_s[:, None] * a
                - (y_s * mus)[:, None] * b)


def _side(radius: float, bound: float) -> str:
    """The rule: inside if radius < 1 - bound, outside if radius >= 1 + bound."""
    if radius < 1.0 - bound:
        return _INSIDE
    return _OUTSIDE if radius >= 1.0 + bound else _UNDECIDED


def _inflation_margin(m) -> float:
    """The bound of the sampled points of F(M): 1e-7 * (1 + scaled_norm(M))."""
    return 1e-7 * (1.0 + linalg.scaled_norm(m))


@dataclass(frozen=True)
class DyMembership:
    """Outcome of a D_y membership test: ``inside`` by the rule (``_side``) with
    bound ROOT_TOL on ``max_root_modulus``, and ``margin`` = 1 - max|root|."""

    inside: bool
    margin: float
    max_root_modulus: float

    def __bool__(self) -> bool:
        return self.inside


def _dy_radii(ys, mus, scheme: ThetaScheme, h: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Largest root modulus of P(z), or a proved upper bound on it below
    the maximum, for every row (y, mu) with y = h ys (``ys`` one value or
    one per row; every y and mu finite), and which rows were solved.  No
    leading coefficient is trimmed: at large |y| its root is the largest.

    y and the weights are real, so the row of conj(mu) is the conjugate of
    the row of mu: rows are built from the mu with Im mu <= 0, so that
    conjugate twins and duplicates are equal rows with equal bounds.  At
    most two stacked root calls, each over the distinct rows of its set:
    the rows of largest bound (``linalg.root_modulus_bounds``), then the
    other rows whose bound reaches the largest computed radius.  A row
    neither call solved keeps its bound, below that radius, so the maximum
    is that of one call over every row, and 1 - the entry of an unsolved
    row bounds its margin below."""
    mus = np.asarray(mus, dtype=complex)
    ok = np.isfinite(mus)
    if not np.all(ok):
        raise InvalidParams(f"mu must be finite, got {mus[~ok][0]}")
    coeffs = _coefficient_rows(ys, np.where(mus.imag > 0.0, mus.conj(), mus), scheme, h)
    radii = linalg.root_modulus_bounds(coeffs)

    def solve(rows):
        first = {}  # row bytes -> the first index of an equal row
        firsts = [first.setdefault(coeffs[i].tobytes(), i) for i in np.flatnonzero(rows)]
        distinct = list(first.values())
        radii[distinct] = np.max(np.abs(linalg.poly_roots(coeffs[distinct])), axis=1)
        radii[rows] = radii[firsts]

    top = radii == np.max(radii)
    solve(top)
    rest = ~top & (radii >= np.max(radii[top]))
    if np.any(rest):
        solve(rest)
    return radii, top | rest


def in_dy(mu: complex, y: float, scheme: ThetaScheme) -> DyMembership:
    """Does a finite mu lie in D_y (y finite, negative)?  The rule with bound
    ROOT_TOL on the largest root modulus of P(z), a one-row stacked root call."""
    radius = float(_dy_radii(y, np.array([mu]), scheme)[0][0])
    return DyMembership(_side(radius, ROOT_TOL) == _INSIDE, 1.0 - radius, radius)


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
    with z = e^{i alpha} on a symmetric alpha grid through 0 (u = 0 only):
    n_samples // 2 + 1 equispaced points of [0, pi] and their mirror images,
    2 (n_samples // 2) + 1 samples in all (513 for the default 512).
    This closed form, not ``_polynomial``, gives mu = 1 exactly at alpha =
    0 (``reproduce figures`` checks it) and the bytes of the region CSV.
    """
    if scheme.u != 0.0:
        raise UnsupportedScheme("Gamma_y is parametrized only for u = 0")
    if not -math.inf < y < 0.0:  # in_dy's rule; at y = -inf mu(alpha, y) is inf / inf
        raise InvalidParams(f"y must be finite and negative, got {y}")
    if n_samples < 16:
        raise InvalidParams("n_samples must be at least 16")
    # build the grid from a half axis so alpha -> -alpha symmetry is exact
    with allocating(f"{2 * (n_samples // 2) + 1} samples"):
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

    The method reads T_{m+1} y_{n+1} + T_m y_n + ... + T_0 y_{n-m} = 0
    (``_polynomial``), so the first block row is -T_{m+1}^{-1} [T_m | ...
    | T_0], the h A and h B terms of T_k added only where their weights are
    nonzero; InvalidParams says when one of these blocks or that row
    overflows, or when W is too large to allocate.  Rows below shift the
    history, so z is an eigenvalue of W iff T(z) is singular.  The
    benchmark builds its own W, a reference for it.
    """
    am, bm = linalg.square_pair(a, b)
    n, m, h = am.shape[0], scheme.m, scheme.h
    dtype, diag = np.result_type(am, bm, 1.0), np.arange(n)
    with allocating(f"W's {n}x{(m + 1) * n} first block row"):
        lead, row0 = np.zeros((n, n), dtype=dtype), np.zeros((n, (m + 1) * n), dtype=dtype)
    for k, (e, wa, wb) in enumerate(_polynomial(scheme).T):  # lead = T_{m+1}, row0 -T_k
        out, sign = (lead, 1.0) if k == m + 1 else (row0[:, (m - k) * n:(m - k + 1) * n], -1.0)
        out[diag, diag] += sign * e
        for w, mat in ((wa, am), (wb, bm)):
            if w:
                try:
                    with np.errstate(over="raise"):
                        out += (sign * w * h) * mat
                except FloatingPointError as exc:
                    raise InvalidParams(f"h A or h B overflows at h = {h:.6g}") from exc
    with allocating(f"the {(m + 1) * n}x{(m + 1) * n} matrix W"):
        w_mat = np.zeros(((m + 1) * n, (m + 1) * n), dtype=dtype)
    w_mat[:n, :] = linalg.solver_for(lead).solve(row0)
    if not np.all(np.isfinite(w_mat[:n, :])):
        raise InvalidParams(f"W's first block row overflows at h = {h:.6g}")
    w_mat[np.arange(n, (m + 1) * n), np.arange(m * n)] = 1.0
    return w_mat


@dataclass(frozen=True)
class OracleVerdict:
    """rho(W) of a one-step matrix W of dimension ``dim``; ``stable`` when
    it is inside by the rule (:func:`_side`) with bound ROOT_TOL."""

    spectral_radius: float
    dim: int

    def __bool__(self) -> bool:
        return self.stable

    @property
    def stable(self) -> bool:
        return _side(self.spectral_radius, ROOT_TOL) == _INSIDE


def oracle_stability(a, b, scheme: ThetaScheme) -> OracleVerdict:
    """Brute-force check: rho of the dense W, decided by the rule (``_side``)."""
    w_mat = build_w(a, b, scheme)
    return OracleVerdict(float(np.max(np.abs(linalg.general_eigenvalues(w_mat)))),
                         w_mat.shape[0])


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
# shared facts and the certification stages
# ---------------------------------------------------------------------------

class _Facts:
    """The facts the stages share about one pair (A, B), each computed on
    first use and kept.  An error is not kept: it propagates from where it
    was raised, and asking again repeats the check that raised it."""

    def __init__(self, a, b, n_angles: int = fov.DEFAULT_ANGLES):
        fov.require_grid(n_angles)  # the rule of fov_boundary, checked on every path
        self.a, self.b = linalg.square_pair(a, b)
        self.n_angles = n_angles
        self._known = {}  # (fact, p) -> value

    def eigen_a(self) -> linalg.EigenDecomposition:
        """``linalg.hermitian_eigen`` of A, the one decomposition of A."""
        return self._once("eigen", None, lambda: linalg.hermitian_eigen(self.a))

    def positive_definite_a(self) -> linalg.EigenDecomposition:
        """``eigen_a`` once A passed ``linalg.require_positive_definite``."""
        return self._once("positive definite", None,
                          lambda: linalg.require_positive_definite(self.a, self.eigen_a()))

    def spectrum(self) -> np.ndarray:
        """sigma(A^{-1} B), from the p = 0 transform."""
        return self._once("spectrum", None,
                          lambda: linalg.general_eigenvalues(self.transform(0.0)))

    def transform(self, p: float) -> np.ndarray:
        """M_p (``fov.transformed_matrix``) of A once ``positive_definite_a`` passed."""
        return self._once("transform", p, lambda: fov.transformed_matrix(
            self.a, self.b, p, self.positive_definite_a()))

    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        """``simdiag_pairs`` of the pair; InvalidParams names a ratio
        gamma_i / lambda_i that overflows."""
        def compute():
            lam, gamma = _simdiag(self)
            with np.errstate(over="ignore"):
                i = np.flatnonzero(~np.isfinite(gamma / lam))[:1]
            if i.size:
                raise InvalidParams(f"the mode ratio gamma / lambda = {gamma[i][0]:.6g} / "
                                    f"{lam[i][0]:.6g} overflows")
            return lam, gamma
        return self._once("modes", None, compute)

    def _once(self, fact: str, p, compute):
        """The value kept under (fact, p), else ``compute()``, kept once it returns."""
        if (fact, p) not in self._known:
            self._known[fact, p] = compute()
        return self._known[fact, p]


def _refusal(check: str, note: str, scheme=None, margin=None) -> StabilityReport:
    """An Uncertified report whose one entry says why ``check`` grants nothing."""
    return StabilityReport(UNCERTIFIED, (Evidence(check, margin=margin, note=note),), scheme)


def _obstruction(facts: _Facts, stage: str, scheme: ThetaScheme, test):
    """The refusal of a field-of-values stage before any sweep, else None:
    one ``stage`` entry unless A is Hermitian positive definite, then the
    refusal when the radius of ``test(sigma, lambda_max(A)) -> (radius,
    note)`` over sigma(A^{-1} B), which lies in F(M_p) for every p, is
    outside by the rule with bound 0.  The spectrum test is skipped when
    the scaled norm of M_0 overflows (each p whose M_p overflows too is
    then skipped with a note)."""
    try:
        lam_max = float(facts.positive_definite_a().values[-1])
    except (NotHermitian, NotPositiveDefinite) as exc:
        return _refusal(stage, f"needs a Hermitian positive definite A: {exc}", scheme)
    try:
        spectrum = facts.spectrum()
    except InvalidParams:
        return None
    worst, note = test(spectrum, lam_max)
    if _side(worst, 0.0) == _OUTSIDE:
        return _refusal("spectrum-obstruction", note, scheme, 1.0 - worst)
    return None


def unconditional_certificate(facts: _Facts, scheme: ThetaScheme,
                              p_grid) -> StabilityReport:
    """Certify stability for every step size (u = 0, theta > 1/2 only; for
    theta <= 1/2 no mu can ever qualify) of a Hermitian positive definite
    A; any other A gets one ``unconditional-certificate`` refusal.  A
    positive definite Hermitian part is not enough: A = [[1.6, -3.3],
    [3.9, 0.8]] and B = [[0.8, -0.4], [0.6, 2.1]] have w(A^{-1} B) < 0.48,
    yet -A + B has the eigenvalues 0.25 +- 2.91i, and at theta = 1, m = 2,
    tau = 0.01, rho(W) = 1.00102.

    A p is accepted only when the supporting-line outer bound on the
    numerical radius of M_p (:meth:`fov.FovBoundary.outer_radius`,
    rounding allowance included) is below 1, so an acceptance is
    one-sided sound; the ``fov-unit-disk`` margin is 1 - that bound, and
    the note says how many of the grid's directions the sweep needed.
    """
    if scheme.u != 0.0 or scheme.theta <= 0.5:
        return _refusal("scheme-hypotheses", "certificate requires u = 0" if scheme.u
                        else "unconditional region is empty for theta <= 1/2", scheme)
    refusal = _obstruction(facts, "unconditional-certificate", scheme, lambda s, lam: (
        float(np.max(np.abs(s))), "an eigenvalue of A^{p/2-1} B A^{-p/2} has modulus >= 1 "
                                  "for every p; certificate inapplicable"))
    if refusal is not None:
        return refusal
    evidence = []
    for p in p_grid:
        try:
            boundary = fov.fov_boundary(facts.transform(p), facts.n_angles, 1.0)
        except InvalidParams as exc:  # M_p or its scaled norm overflows
            evidence.append(Evidence("fov-unit-disk", index=p, note=f"skipped: {exc}"))
            continue
        outer = boundary.outer_radius()
        evidence.append(Evidence(
            "fov-unit-disk", index=p, margin=1.0 - outer,
            note=f"outer bound on the numerical radius from {boundary.indices.size} "
                 f"of {boundary.n_angles} directions"))
        if _side(outer, 0.0) == _INSIDE:
            return StabilityReport(UNCONDITIONALLY_STABLE, tuple(evidence), scheme)
    return StabilityReport(UNCERTIFIED, tuple(evidence), scheme)


def step_certificate(facts: _Facts, scheme: ThetaScheme, p_grid) -> StabilityReport:
    """Certify stability for this particular step size (theta = 1, u = 0)
    of a Hermitian positive definite A; any other A gets one
    ``step-certificate`` refusal.

    Region nesting (y1 < y2 < 0 implies D_{y1} subset of D_{y2}) reduces
    the intersection of D_y over y in -h F(A) to y = -h lambda_max(A).
    Each sampled point of F(M_p) must lie in that D_y by the rule with the
    inflation margin as its bound.  The margins come from one ``_dy_radii``
    question over sigma(A^{-1} B) and one per swept p, each handed
    -lambda_max(A) and h apart, so y is never formed as a product there.
    """
    if scheme.theta != 1.0 or scheme.u != 0.0:
        return _refusal("scheme-hypotheses", "step certificate requires theta = 1 and u = 0",
                        scheme)
    refusal = _obstruction(facts, "step-certificate", scheme, lambda s, lam: (
        float(np.max(_dy_radii(-lam, s, scheme, scheme.h)[0])),
        f"an eigenvalue of A^{{-1}} B lies outside D_y at y = {-scheme.h * lam:.6g}, "
        "which rules out every p"))
    if refusal is not None:
        return refusal
    lam_max = float(facts.positive_definite_a().values[-1])
    evidence = []
    for p in p_grid:
        try:
            t_mat = facts.transform(p)
            boundary = fov.fov_boundary(t_mat, facts.n_angles)
        except InvalidParams as exc:  # M_p or its scaled norm overflows
            evidence.append(Evidence("fov-in-dy", index=p, note=f"skipped: {exc}"))
            continue
        worst = float(np.max(_dy_radii(-lam_max, boundary.points, scheme, scheme.h)[0]))
        evidence.append(Evidence("fov-in-dy", index=p, margin=1.0 - worst,
                                 note=f"y = {-scheme.h * lam_max:.6g}"))
        if _side(worst, _inflation_margin(t_mat)) == _INSIDE:
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
    mean.  On a cluster A is lambda_c I up to rounding, so det T(z) factors
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
    return _simdiag(_Facts(a, b))


def _simdiag(facts: _Facts) -> tuple[np.ndarray, np.ndarray]:
    """``simdiag_pairs`` of the facts' pair; the Hermitian branch takes
    A's eigendecomposition from the facts, so later stages reuse it."""
    am, bm = facts.a, facts.b
    equal = 16 * am.shape[0] * np.finfo(float).eps
    if linalg.hermitian_violation(am) <= equal:
        dec = facts.eigen_a()
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


def simdiag_analysis(facts: _Facts, scheme: ThetaScheme) -> StabilityReport:
    """The whole verdict of a pair with modes (:func:`_mode_report`), from
    one ``_dy_radii`` question over the rows (y_i, mu_i).  Raises what
    ``_Facts.modes`` raises for a pair without modes."""
    lam, gamma = facts.modes()
    radii, solved = _dy_radii(-lam, gamma / lam, scheme, scheme.h)
    return _mode_report(lam, gamma, radii, solved, scheme)


def _mode_report(lam, gamma, radii, solved, scheme: ThetaScheme) -> StabilityReport:
    """Mode-by-mode verdict from the pairs (lambda_i, gamma_i) of
    simultaneously diagonalizable A, B and their largest root moduli, where
    ``solved``; elsewhere ``radii`` holds a proved upper bound on it (as
    ``_dy_radii`` returns them), below the largest radius.

    With mu_i = gamma_i / lambda_i and y_i = -lambda_i h, two closed-form
    tests come first:

    * all |mu_i| < 1, u = 0, theta > 1/2   -> UnconditionallyStable;
    * some Re(mu_i) >= 1, u = 0, theta = 1 -> CertifiedUnstable
      (unstable for every step size).

    When neither decides, every mode's ``mu-in-dy`` margin follows: 1 - its
    radius, or for a mode not solved 1 - its bound, a proved lower bound on
    the margin, as the ``fov-unit-disk`` margins are, and its note says so.
    The last entry is always rho(W), the largest radius: det T(z) factors
    over the modes, so it needs no W and no cap.  The verdict is that of
    :func:`_merge` over the closed-form tests and rho(W).
    """
    mus = gamma / lam
    evidence, verdict = [], UNCERTIFIED

    if scheme.u == 0.0 and scheme.theta > 0.5:
        worst = float(np.max(np.abs(mus)))
        evidence.append(Evidence("all-mu-in-unit-disk", margin=1.0 - worst))
        if _side(worst, ROOT_TOL) == _INSIDE:
            verdict = UNCONDITIONALLY_STABLE

    # |mu_i| < 1 rules out Re(mu_i) >= 1, so at most one of the tests decides
    if scheme.u == 0.0 and scheme.theta == 1.0 and _side(np.max(mus.real), 0.0) == _OUTSIDE:
        i = int(np.argmax(mus.real))
        evidence.append(Evidence("re-mu-at-least-one", index=i,
                                 margin=float(mus.real[i] - 1.0),
                                 note=f"mu_{i} = {mus[i]:.6g}"))
        verdict = CERTIFIED_UNSTABLE

    if verdict == UNCERTIFIED:
        for i, (lam_i, mu_i, radius) in enumerate(zip(lam, mus, radii)):
            note = f"lambda = {lam_i:.6g}, mu = {mu_i:.6g}"
            evidence.append(Evidence("mu-in-dy", index=i, margin=1.0 - float(radius),
                                     note=note if solved[i] else
                                     f"{note}; lower bound from Cauchy's root bound"))
    rho = OracleVerdict(float(np.max(radii)), (scheme.m + 1) * lam.size)
    return _merge([StabilityReport(verdict, tuple(evidence)),
                   _rho_report(rho, f"per-mode over {lam.size} modes")], scheme)


def _rho_report(oracle: OracleVerdict, path: str) -> StabilityReport:
    """The ``oracle-spectral-radius`` entry of a rho(W) and its verdict; the
    note names the path ("per-mode over N modes" or "dense W")."""
    verdict = {_INSIDE: STABLE_FOR_THIS_STEP, _OUTSIDE: CERTIFIED_UNSTABLE,
               _UNDECIDED: UNCERTIFIED}[_side(oracle.spectral_radius, ROOT_TOL)]
    return StabilityReport(verdict, (Evidence(
        "oracle-spectral-radius", margin=1.0 - oracle.spectral_radius,
        note=f"rho(W) = {oracle.spectral_radius:.12g}, dim {oracle.dim}, {path}"),))


def _oracle(facts: _Facts, scheme: ThetaScheme, cap: int) -> StabilityReport:
    """rho of the dense W (``oracle_stability``) while dim W fits under
    ``cap`` and its first block row does not overflow; a pair with modes
    never comes here."""
    dim = (scheme.m + 1) * facts.a.shape[0]
    if dim > cap:
        return _refusal("oracle-spectral-radius", f"skipped: dim {dim} exceeds {cap}")
    try:
        oracle = oracle_stability(facts.a, facts.b, scheme)
    except InvalidParams as exc:  # W overflows or is too large
        return _refusal("oracle-spectral-radius", f"skipped: {exc}")
    return _rho_report(oracle, "dense W")


def _merge(reports, scheme: ThetaScheme) -> StabilityReport:
    """The reports' evidence in order, under the first of CertifiedUnstable,
    UnconditionallyStable and StableForThisStep that one of them reached,
    else Uncertified."""
    verdicts = {r.verdict for r in reports}
    verdict = next((v for v in (CERTIFIED_UNSTABLE, UNCONDITIONALLY_STABLE,
                                STABLE_FOR_THIS_STEP) if v in verdicts), UNCERTIFIED)
    return StabilityReport(verdict, tuple(e for r in reports for e in r.evidence), scheme)


def certify(a, b, scheme: ThetaScheme,
            p_grid=DEFAULT_P_GRID,
            n_angles: int = fov.DEFAULT_ANGLES,
            oracle_cap: int = ORACLE_CAP) -> StabilityReport:
    """The report of ``simdiag_analysis`` when A, B have modes.  Otherwise
    the merge (:func:`_merge`) of the unconditional stage, the step stage
    unless the first certified, and the dense oracle under ``oracle_cap``.
    The oracle runs before the sweeps, so W is never held with their
    matrices; its evidence comes last."""
    facts = _Facts(a, b, n_angles)
    try:
        facts.modes()
    except (NotSimultaneouslyDiagonalizable, ComplexSpectrum, InvalidParams) as exc:
        reports = [_refusal("simdiag", f"not applicable: {exc}")]
    else:
        return simdiag_analysis(facts, scheme)
    oracle = _oracle(facts, scheme, oracle_cap)
    reports.append(unconditional_certificate(facts, scheme, p_grid))
    if reports[-1].verdict != UNCONDITIONALLY_STABLE:
        reports.append(step_certificate(facts, scheme, p_grid))
    return _merge(reports + [oracle], scheme)
