"""Theta-method time stepping for constant-delay systems.

One driver integrates z'(t) = M z(t) + g(z(t - tau))
(:class:`SemilinearDDE`) on the uniform grid t_n = n h with
h = tau / (m - u).  The linear system y'(t) = -A y(t) + B y(t - tau)
(:class:`LinearDDE`) is its special case M = -A, g(d) = B d.  One step
advances

    z_{n+1} = z_n + h (1-theta) [M z_n + g(d_n)]
                  + h theta [M z_{n+1} + g(d_{n+1})],

with the delayed value of the implicit stage interpolated linearly,
d_{n+1} = (1-u) z_{n-m+1} + u z_{n-m+2}.  g acts on the delayed state
only, so the implicit stage stays linear: one solver for I - theta h M
serves the whole run.  g is called once per step; the explicit stage
reuses the previous step's value, and at theta = 1 there is no explicit
delayed term.

The linear part M is one of

* a dense array: the inverse K = (I - theta h M)^{-1} is computed once
  from the LU factors of ``linalg.solver_for`` (whose pivot rule raises
  ``Singular``), and each step applies it as one matvec;
* a scipy.sparse matrix: I - theta h M is factored once with ``splu``;
* an operator that provides its own shifted solve: ``shifted_solver(c)``
  returns a callable for (I + c M)^{-1}, ``tocsr()`` the sparse matrix
  the explicit stage multiplies with, plus ``shape`` and ``dtype``
  (``mol.KroneckerLaplacian`` is one).

Each :class:`Trajectory` the driver returns carries :class:`SolveStats`:
which of these three implicit-solve paths ran, the steps and g calls,
and the seconds spent setting up the solve and stepping.

The history is sampled at the grid times max(-k h, -tau), k = 0..m.  When
u > 0 (or by rounding at u = 0) the time -m h lies below -tau; there the
history is extended as a constant, so the sample taken is history(-tau).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import linalg
from ._csv import write_csv
from .errors import InvalidParams, TimeOffGrid
from .stability import ThetaScheme

OVERFLOW_GUARD = 1e100


@dataclass(frozen=True)
class LinearDDE:
    """y'(t) = -a y(t) + b y(t - tau); ``a`` is the (expected positive
    definite) factor on the minus sign.  ``history(t)`` is called for t in
    [-tau, 0] only; before -tau the solver extends it as the constant
    history(-tau)."""

    a: np.ndarray
    b: np.ndarray
    tau: float
    history: object

    def __post_init__(self):
        am = linalg.as_square_matrix(self.a)
        bm = linalg.as_square_matrix(self.b)
        if am.shape != bm.shape:
            raise InvalidParams(f"A and B shapes differ: {am.shape} vs {bm.shape}")
        if not self.tau > 0.0:
            raise InvalidParams("tau must be positive")

    @property
    def dim(self) -> int:
        return np.asarray(self.a).shape[0]


@dataclass(frozen=True)
class SemilinearDDE:
    """z'(t) = m_linear z(t) + g(z(t - tau)) with a delayed-only
    nonlinearity; ``m_linear`` may be dense, scipy.sparse or an operator
    with its own shifted solve (see the module docstring).  ``history(t)``
    is called for t in [-tau, 0] only; before -tau the solver extends it
    as the constant history(-tau)."""

    m_linear: object
    g: object
    tau: float
    history: object

    def __post_init__(self):
        shape = self.m_linear.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise InvalidParams(f"linear part must be square, got shape {shape}")
        if not self.tau > 0.0:
            raise InvalidParams("tau must be positive")

    @property
    def dim(self) -> int:
        return self.m_linear.shape[0]


@dataclass(frozen=True)
class SolveStats:
    """How the stepping driver produced a trajectory.

    ``path`` names the implicit solve: ``"dense-inverse"``, ``"sparse-lu"``
    or ``"shifted"`` (the linear part's own shifted solve).  ``steps`` and
    ``g_calls`` count what the run did, up to a halt by the overflow
    guard.  ``setup_s`` is the time to build the implicit solve and the
    explicit stage (for the dense path, the factorization and the
    inverse); ``stepping_s`` the time of the step loop."""

    path: str
    steps: int
    g_calls: int
    setup_s: float
    stepping_s: float


@dataclass(frozen=True)
class Trajectory:
    """States on the uniform grid.  With full retention times[0] = 0;
    in window mode only the trailing m+2 grid points are kept.  ``diverged``
    marks a run halted by the overflow guard (a state above 1e100 in max
    norm, or NaN); states beyond the halt do not exist.  ``peak_max_norm``
    is the largest max norm over every state the run computed, z(0)
    included and NaN once a state held one; with full retention it equals
    ``np.max(np.abs(states))``.  It is None on a hand-built trajectory,
    and so is ``stats`` (see :class:`SolveStats`)."""

    times: np.ndarray
    states: np.ndarray
    scheme: ThetaScheme
    diverged: bool = False
    peak_max_norm: float | None = None
    stats: SolveStats | None = None

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def index_of_time(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise TimeOffGrid(f"t = {t} is not on the trajectory grid")
        return idx

    def state_at(self, t: float) -> np.ndarray:
        return self.states[self.index_of_time(t)]

    def to_csv(self, path, norm_only: bool = False) -> None:
        """Write t plus one column per component (re/im pairs when
        complex), or t plus the 2-norm in norm-only mode."""
        if norm_only:
            norms = (np.linalg.norm(row) for row in self.states)
            write_csv(path, "t,norm2", (self.times, norms))
            return
        n = self.states.shape[1]
        if np.iscomplexobj(self.states):
            header = ",".join(f"y{j}_re,y{j}_im" for j in range(n))
            parts = (self.states.real, self.states.imag)
            columns = [part[:, j] for j in range(n) for part in parts]
        else:
            header = ",".join(f"y{j}" for j in range(n))
            columns = list(self.states.T)
        write_csv(path, "t," + header, [self.times] + columns)


def _check_delay(scheme: ThetaScheme, tau: float) -> None:
    if abs(scheme.tau - tau) > 1e-12 * max(1.0, abs(tau)):
        raise InvalidParams(
            f"scheme delay {scheme.tau} does not match the problem delay {tau}")


def _implicit_solver(mat):
    """Return the path name and a solve callable for ``mat``, built once.

    A sparse ``mat`` is factored with ``splu``.  A dense one is a
    precomputed inverse: ``linalg.solver_for`` LU-factors it (raising
    ``Singular`` by its pivot rule), its solve of the identity gives
    mat^{-1}, and each step applies that inverse as one matvec.
    """
    if scipy.sparse.issparse(mat):
        return "sparse-lu", scipy.sparse.linalg.splu(mat.tocsc()).solve
    inverse = linalg.solver_for(mat).solve(np.eye(mat.shape[0], dtype=mat.dtype))
    return "dense-inverse", inverse.__matmul__


def _n_steps(t_end: float, h: float) -> int:
    if t_end < h:
        raise InvalidParams(f"t_end = {t_end} is below one step h = {h}")
    return int(math.ceil(t_end / h - 1e-9))


def _integrate(prob, scheme: ThetaScheme, m_linear, g, dtype, t_end: float,
               keep_trajectory: bool) -> Trajectory:
    """The one stepping driver, for z' = M z + g(z(t - tau)).

    A ring buffer of m+2 states is indexed modulo by the absolute step
    index n.  g is called once per step, on the implicit-stage delayed
    value; the explicit stage of step n+1 reuses that result, since its
    delayed value is the same interpolant of the same buffer rows.  At
    theta = 1 the explicit stage is the current state itself: no matvec
    and no explicit delayed term.
    """
    _check_delay(scheme, prob.tau)
    m, h, u, theta = scheme.m, scheme.h, scheme.u, scheme.theta
    dim = prob.dim
    probe = np.asarray(prob.history(0.0))
    if probe.shape != (dim,):
        raise InvalidParams(
            f"history must return vectors of length {dim}, got {probe.shape}")
    dtype = np.result_type(dtype, probe, np.float64)

    t_setup = time.perf_counter()
    shifted_solver = getattr(m_linear, "shifted_solver", None)
    if shifted_solver is not None:
        path, solve_step = "shifted", shifted_solver(-theta * h)
        m_linear = m_linear.tocsr()
    if scipy.sparse.issparse(m_linear):
        eye = scipy.sparse.identity(dim, dtype=dtype, format="csr")
    else:
        eye = np.eye(dim, dtype=dtype)
        m_linear = np.asarray(m_linear)
    explicit = None if theta == 1.0 else eye + (1.0 - theta) * h * m_linear
    if shifted_solver is None:
        path, solve_step = _implicit_solver(eye - theta * h * m_linear)
    setup_s = time.perf_counter() - t_setup
    w_exp = h * (1.0 - theta)
    w_imp = h * theta

    n_steps = _n_steps(t_end, h)
    size = m + 2
    buf = np.zeros((size, dim), dtype=dtype)
    # -m h lies below -tau when u > 0 (or by rounding): use history(-tau)
    t_first = max(-m * h, -prob.tau)
    for k in range(-m, 1):
        buf[k % size] = np.asarray(prob.history(k * h if k > -m else t_first),
                                   dtype=dtype)
    if not np.all(np.isfinite(buf)):
        raise InvalidParams(
            f"history is not finite at every grid time in [{t_first:.6g}, 0]")

    if keep_trajectory:
        states = np.empty((n_steps + 1, dim), dtype=dtype)
        states[0] = buf[0]
    peak = np.max(np.abs(buf[0]))

    def delayed(n):
        """Interpolated delayed state of the implicit stage of step n."""
        z1 = buf[(n - m + 1) % size]
        if u == 0.0:
            return z1
        return (1.0 - u) * z1 + u * buf[(n - m + 2) % size]

    if theta < 1.0:
        g_prev = np.asarray(g(delayed(-1)))
    diverged = False
    last = 0
    t_stepping = time.perf_counter()
    for n in range(n_steps):
        g_new = np.asarray(g(delayed(n)))
        rhs = buf[n % size] if explicit is None else explicit @ buf[n % size]
        if theta < 1.0:
            rhs = rhs + w_exp * g_prev
            g_prev = g_new
        new = solve_step(rhs + w_imp * g_new)
        buf[(n + 1) % size] = new
        last = n + 1
        if keep_trajectory:
            states[n + 1] = new
        step_max = np.max(np.abs(new))
        if not step_max <= peak:  # a NaN replaces the peak too
            peak = step_max
        if not step_max <= OVERFLOW_GUARD:  # NaN counts as diverged
            diverged = True
            break
    # g ran once per step taken, plus once before the loop when theta < 1
    stats = SolveStats(path=path, steps=last, g_calls=last + int(theta < 1.0),
                       setup_s=setup_s,
                       stepping_s=time.perf_counter() - t_stepping)

    if keep_trajectory:
        times = h * np.arange(last + 1)
        return Trajectory(times=times, states=states[:last + 1], scheme=scheme,
                          diverged=diverged, peak_max_norm=float(peak),
                          stats=stats)
    # window mode: return the trailing buffer in time order
    n_keep = min(size, last + m + 1)
    idx = np.arange(last - n_keep + 1, last + 1)
    return Trajectory(times=h * idx.astype(float),
                      states=buf[idx % size].copy(), scheme=scheme,
                      diverged=diverged, peak_max_norm=float(peak),
                      stats=stats)


def solve_linear(prob: LinearDDE, scheme: ThetaScheme, t_end: float,
                 keep_trajectory: bool = True) -> Trajectory:
    """Integrate y' = -A y + B y(t - tau) up to (at least) t_end.

    The inverse of the implicit matrix I + theta h A is computed once and
    applied as one matvec per step; the run halts early with
    ``diverged=True`` if any state exceeds the overflow guard of 1e100 in
    max norm or holds a NaN.
    """
    am = np.asarray(prob.a)
    bm = np.asarray(prob.b)
    return _integrate(prob, scheme, -am, lambda d: bm @ d,
                      np.result_type(am, bm), t_end, keep_trajectory)


def solve_semilinear(prob: SemilinearDDE, scheme: ThetaScheme, t_end: float,
                     keep_trajectory: bool = True) -> Trajectory:
    """Integrate z' = M z + g(z(t - tau)) up to (at least) t_end.

    g is evaluated at the interpolated delayed state, so each step solves
    the single linear system (I - theta h M) z_{n+1} = rhs.
    """
    mm = prob.m_linear
    dtype = mm.dtype if hasattr(mm, "dtype") else np.asarray(mm).dtype
    return _integrate(prob, scheme, mm, prob.g, dtype, t_end, keep_trajectory)
