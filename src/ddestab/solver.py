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

The linear part M is a dense numpy array or an operator (anything else,
scipy.sparse included, raises ``InvalidParams``), and the driver takes
one of three paths, named in :class:`SolveStats`:

* ``"dense-inverse"``, a dense M: one matvec per step with (I - theta h
  M)^{-1}, formed once from ``linalg.solver_for`` (which raises ``Singular``);
* ``"shifted"``, a semilinear problem whose M has its own
  ``shifted_solver(c)``, a callable for (I + c M)^{-1}: one call per step;
* ``"modes"``, a linear problem whose A has a sine basis (``to_modes``,
  ``from_modes``, the eigenvalues ``omega`` and negation).  In a block of
  L <= m steps (m - 1 when u > 0) every delayed value is known (the
  method of steps), so a block's delayed terms are one product with
  B^ = T B T^{-1}, T = to_modes, and its implicit stage is the elementwise
  w_{n+1} = kappa w_n + f_n, kappa = (1 + h (1-theta) omega) /
  (1 - h theta omega) with omega the eigenvalues of M = -A.  The block goes
  back to physical space in one transform, for the guard and retention.

The history is sampled at the grid times max(-k h, -tau), k = 0..m.  When
u > 0 (or by rounding at u = 0) the time -m h lies below -tau; there the
history is extended as a constant, so the sample taken is history(-tau).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._csv import write_csv
from .errors import InvalidParams, TimeOffGrid
from .stability import ThetaScheme

OVERFLOW_GUARD = 1e100
BLOCK_STEPS = 128


@dataclass(frozen=True)
class LinearDDE:
    """y'(t) = -a y(t) + b y(t - tau); ``a`` is the (expected positive
    definite) factor on the minus sign, dense or an operator with a sine
    basis (see the module docstring).  ``history(t)`` is called for t in
    [-tau, 0] only; before -tau the solver extends it as history(-tau)."""

    a: object
    b: np.ndarray
    tau: float
    history: object

    def __post_init__(self):
        if not callable(getattr(self.a, "to_modes", None)):
            object.__setattr__(self, "a", linalg.square_pair(self.a, self.b)[0])
        elif linalg.as_square_matrix(self.b).shape != self.a.shape:
            raise InvalidParams(f"A and B shapes differ: {self.a.shape} vs {np.shape(self.b)}")
        if not 0.0 < self.tau < math.inf:
            raise InvalidParams("tau must be finite and positive")

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class SemilinearDDE:
    """z'(t) = m_linear z(t) + g(z(t - tau)) with a delayed-only
    nonlinearity; ``m_linear`` is a dense numpy array or an operator with
    its own ``shifted_solver(c)`` (see the module docstring), and any
    other kind raises ``InvalidParams``.  ``history(t)`` is called for t
    in [-tau, 0] only; before -tau the solver extends it as the constant
    history(-tau)."""

    m_linear: object
    g: object
    tau: float
    history: object

    def __post_init__(self):
        if not (isinstance(self.m_linear, np.ndarray)
                or callable(getattr(self.m_linear, "shifted_solver", None))):
            raise InvalidParams(
                "linear part must be a dense numpy array or an operator with "
                f"shifted_solver(c), got {type(self.m_linear).__name__}")
        shape = self.m_linear.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise InvalidParams(f"linear part must be square, got shape {shape}")
        if not 0.0 < self.tau < math.inf:
            raise InvalidParams("tau must be finite and positive")

    @property
    def dim(self) -> int:
        return self.m_linear.shape[0]


@dataclass(frozen=True)
class SolveStats:
    """How the stepping driver produced a trajectory.

    ``path`` is ``"dense-inverse"``, ``"shifted"`` or ``"modes"`` (see
    the module docstring).  ``steps`` and ``g_calls`` count the steps taken
    and the delayed terms they used, up to a halt by the overflow guard.
    ``setup_s`` is the time to build the implicit solve (the inverse; on
    the modes path, B^ and kappa); ``stepping_s`` the time of the steps."""

    path: str
    steps: int
    g_calls: int
    setup_s: float
    stepping_s: float


def state_norm(state) -> float:
    """2-norm of a state.  Where the squares overflow, ``np.hypot.reduce``
    over the moduli gives the norm, finite when every entry is; a state
    holding inf or NaN gives inf or NaN."""
    with np.errstate(over="ignore"):
        value = float(np.linalg.norm(state))
    if not math.isfinite(value):
        value = float(np.hypot.reduce(np.abs(state)))
    return value


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
        complex), or t plus the 2-norm (:func:`state_norm`) in norm-only
        mode."""
        if norm_only:
            norms = (state_norm(row) for row in self.states)
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


def _n_steps(t_end: float, h: float) -> int:
    if not h <= t_end < math.inf:
        raise InvalidParams(f"t_end = {t_end} must be finite and at least h = {h}")
    return int(math.ceil(t_end / h - 1e-9))


def _integrate(prob, scheme: ThetaScheme, m_linear, g, dtype, t_end: float,
               keep_trajectory: bool) -> Trajectory:
    """The one stepping driver, for z' = M z + g(z(t - tau)).

    A ring buffer of m+2 states is indexed modulo by the absolute step
    index n.  On the per-step paths g is called once per step, on the
    implicit-stage delayed value; the explicit stage of step n+1 reuses
    that result, since its delayed value is the same interpolant of the
    same buffer rows.  At theta = 1 the explicit stage is the current
    state itself: no matvec and no explicit delayed term.
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
    if isinstance(m_linear, np.ndarray):
        eye = np.eye(dim, dtype=dtype)
        inverse = linalg.solver_for(eye - theta * h * m_linear).solve(eye)
        path, solve_step = "dense-inverse", inverse.__matmul__
    elif isinstance(prob, LinearDDE):
        path, march = "modes", _mode_blocks(m_linear, np.asarray(prob.b), scheme, dtype)
    else:
        path, solve_step = "shifted", m_linear.shifted_solver(-theta * h)
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

    states = None
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

    diverged = False
    last = 0
    # a step may overflow straight to inf or NaN; the overflow guard
    # reports that as divergence, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        t_stepping = time.perf_counter()
        if path == "modes":
            last, diverged, peak = march(buf, states, n_steps, peak)
        else:
            if theta < 1.0:
                g_prev = np.asarray(g(delayed(-1)))
            for n in range(n_steps):
                g_new = np.asarray(g(delayed(n)))
                rhs = buf[n % size]
                if theta < 1.0:
                    rhs = rhs + w_exp * (m_linear @ rhs + g_prev)
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
    # one delayed term per step taken, plus step 0's explicit one when theta < 1
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


def _mode_blocks(m_op, b: np.ndarray, scheme: ThetaScheme, dtype):
    """Set up the modes path for z' = M z + B z(t - tau), M the operator
    ``m_op``; return its march (buf, states, n_steps, peak) -> (steps taken,
    diverged, peak).  A block holds at most ``BLOCK_STEPS`` steps, so its
    scratch memory does not grow with m."""
    m, h, u, theta = scheme.m, scheme.h, scheme.u, scheme.theta
    size = m + 2
    span = min(m if u == 0.0 else m - 1, BLOCK_STEPS)
    ring = m + 1 + span
    lhs = linalg.require_pivots(1.0 - theta * h * m_op.omega)
    kappa = (1.0 + (1.0 - theta) * h * m_op.omega) / lhs
    w_exp, w_imp = (1.0 - theta) * h / lhs, theta * h / lhs
    # rows of mode coefficients times B^ = T B T^{-1}, for T = to_modes
    b_hat_t = m_op.to_modes(m_op.from_modes(np.eye(b.shape[0], dtype=dtype)) @ b.T)

    def march(buf, states, n_steps, peak):
        w = np.empty((ring, b.shape[0]), dtype=dtype)  # row n % ring: modes of state n
        w[np.arange(-m, 1) % ring] = m_op.to_modes(buf[np.arange(-m, 1) % size])
        n0 = 0
        while n0 < n_steps:
            k = min(span, n_steps - n0)
            # B^ times the implicit-stage delayed values of steps n0-1 .. n0+k-1
            d = w[np.arange(n0 - m, n0 - m + k + 1) % ring]
            if u != 0.0:
                d = (1.0 - u) * d + u * w[np.arange(n0 - m + 1, n0 - m + k + 2) % ring]
            g = d @ b_hat_t
            new = w_imp * g[1:]
            if theta < 1.0:
                new += w_exp * g[:-1]
            prev = w[n0 % ring]
            for row in new:
                row += kappa * prev
                prev = row
            w[np.arange(n0 + 1, n0 + k + 1) % ring] = new
            z = m_op.from_modes(new)
            row_max = np.max(np.abs(z), axis=1)
            tripped = np.flatnonzero(~(row_max <= OVERFLOW_GUARD))  # NaN trips it
            k = int(tripped[0]) + 1 if tripped.size else k
            peak = np.maximum(peak, np.max(row_max[:k]))  # a NaN replaces the peak too
            buf[np.arange(n0 + 1, n0 + 1 + k) % size] = z[:k]
            if states is not None:
                states[n0 + 1:n0 + 1 + k] = z[:k]
            n0 += k
            if tripped.size:
                return n0, True, peak
        return n_steps, False, peak

    return march


def solve_linear(prob: LinearDDE, scheme: ThetaScheme, t_end: float,
                 keep_trajectory: bool = True) -> Trajectory:
    """Integrate y' = -A y + B y(t - tau) up to (at least) t_end.

    A dense A takes the ``"dense-inverse"`` path, an operator the
    ``"modes"`` path; the run halts early with ``diverged=True`` if any
    state exceeds the overflow guard of 1e100 in max norm or holds a NaN.
    """
    bm = np.asarray(prob.b)
    return _integrate(prob, scheme, -prob.a, lambda d: bm @ d,
                      np.result_type(prob.a.dtype, bm), t_end, keep_trajectory)


def solve_semilinear(prob: SemilinearDDE, scheme: ThetaScheme, t_end: float,
                     keep_trajectory: bool = True) -> Trajectory:
    """Integrate z' = M z + g(z(t - tau)) up to (at least) t_end.

    g is evaluated at the interpolated delayed state, so each step solves
    the single linear system (I - theta h M) z_{n+1} = rhs.
    """
    mm = prob.m_linear
    return _integrate(prob, scheme, mm, prob.g, mm.dtype, t_end, keep_trajectory)
