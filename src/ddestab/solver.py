"""Theta-method time stepping for constant-delay systems.

Two problem shapes are integrated on the uniform grid t_n = n h with
h = tau / (m - u) and linear interpolation of the delayed state:

* linear,      y'(t) = -A y(t) + B y(t - tau)         (:class:`LinearDDE`)
* semilinear,  z'(t) = M z(t) + g(z(t - tau))         (:class:`SemilinearDDE`)

One step advances

    y_{n+1} = y_n + h (1-theta) [rhs(t_n)] + h theta [rhs(t_{n+1})],

with the delayed value at stage n approximated by
(1-u) y_{n-m} + u y_{n-m+1} (and shifted one index for the implicit
stage).  The nonlinearity g acts on the delayed state only, so the
implicit stage stays linear and the factored matrix is reused for the
whole run.  Pre-time-zero values come from sampling the history function
at the grid times -k h, k = 0..m.
"""

from __future__ import annotations

import math
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
    definite) factor on the minus sign.  ``history(t)`` must be callable
    for t in [-tau, 0]."""

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
    nonlinearity; ``m_linear`` may be dense or scipy.sparse."""

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
class Trajectory:
    """States on the uniform grid.  With full retention times[0] = 0;
    in window mode only the trailing m+2 grid points are kept.  ``diverged``
    marks a run halted by the overflow guard (a state above 1e100 in max
    norm, or NaN); states beyond the halt do not exist."""

    times: np.ndarray
    states: np.ndarray
    scheme: ThetaScheme
    diverged: bool = False

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
    """Factor once, return a solve callable; dense or sparse."""
    if scipy.sparse.issparse(mat):
        lu = scipy.sparse.linalg.splu(mat.tocsc())
        return lu.solve
    return linalg.solver_for(mat).solve


def _n_steps(t_end: float, h: float) -> int:
    if t_end < h:
        raise InvalidParams(f"t_end = {t_end} is below one step h = {h}")
    return int(math.ceil(t_end / h - 1e-9))


def _run(scheme, dim, dtype, history, explicit_apply, delayed_explicit,
         delayed_implicit, solve_step, t_end, keep_trajectory):
    """Shared driver: ring buffer of m+2 states indexed modulo, absolute
    step index n, history pre-filled at grid times -m h .. 0."""
    m, h, u = scheme.m, scheme.h, scheme.u
    n_steps = _n_steps(t_end, h)
    size = m + 2
    buf = np.zeros((size, dim), dtype=dtype)
    for k in range(-m, 1):
        buf[k % size] = np.asarray(history(k * h), dtype=dtype)
    if not np.all(np.isfinite(buf)):
        raise InvalidParams(f"history is not finite at every grid time in [{-m * h:.6g}, 0]")

    if keep_trajectory:
        states = np.empty((n_steps + 1, dim), dtype=dtype)
        states[0] = buf[0]

    diverged = False
    last = 0
    for n in range(n_steps):
        z0 = buf[(n - m) % size]
        z1 = buf[(n - m + 1) % size]
        d_exp = (1.0 - u) * z0 + u * z1
        if u > 0.0:
            z2 = buf[(n - m + 2) % size]
            d_imp = (1.0 - u) * z1 + u * z2
        else:
            d_imp = z1
        rhs = explicit_apply(buf[n % size]) + delayed_explicit(d_exp) + delayed_implicit(d_imp)
        new = solve_step(rhs)
        buf[(n + 1) % size] = new
        last = n + 1
        if keep_trajectory:
            states[n + 1] = new
        if not np.max(np.abs(new)) <= OVERFLOW_GUARD:  # NaN counts as diverged
            diverged = True
            break

    if keep_trajectory:
        times = h * np.arange(last + 1)
        return Trajectory(times=times, states=states[:last + 1],
                          scheme=scheme, diverged=diverged)
    # window mode: return the trailing buffer in time order
    n_keep = min(size, last + m + 1)
    idx = np.arange(last - n_keep + 1, last + 1)
    return Trajectory(times=h * idx.astype(float),
                      states=buf[idx % size].copy(),
                      scheme=scheme, diverged=diverged)


def solve_linear(prob: LinearDDE, scheme: ThetaScheme, t_end: float,
                 keep_trajectory: bool = True) -> Trajectory:
    """Integrate y' = -A y + B y(t - tau) up to (at least) t_end.

    The implicit matrix I + theta h A is factored once and reused; the run
    halts early with ``diverged=True`` if any state exceeds the overflow
    guard of 1e100 in max norm or holds a NaN.
    """
    _check_delay(scheme, prob.tau)
    h, theta = scheme.h, scheme.theta
    am = np.asarray(prob.a)
    bm = np.asarray(prob.b)
    probe = np.asarray(prob.history(0.0))
    if probe.shape != (prob.dim,):
        raise InvalidParams(
            f"history must return vectors of length {prob.dim}, got {probe.shape}")
    dtype = np.result_type(am, bm, probe, np.float64)

    eye = np.eye(prob.dim, dtype=dtype)
    explicit = eye - (1.0 - theta) * h * am
    solve_step = _implicit_solver(eye + theta * h * am.astype(dtype))
    w_exp = h * (1.0 - theta)
    w_imp = h * theta
    return _run(
        scheme, prob.dim, dtype, prob.history,
        explicit_apply=lambda y: explicit @ y,
        delayed_explicit=lambda d: w_exp * (bm @ d),
        delayed_implicit=lambda d: w_imp * (bm @ d),
        solve_step=solve_step,
        t_end=t_end, keep_trajectory=keep_trajectory)


def solve_semilinear(prob: SemilinearDDE, scheme: ThetaScheme, t_end: float,
                     keep_trajectory: bool = True) -> Trajectory:
    """Integrate z' = M z + g(z(t - tau)) up to (at least) t_end.

    g is evaluated at the interpolated delayed state, so each step solves
    the single linear system (I - theta h M) z_{n+1} = rhs.
    """
    _check_delay(scheme, prob.tau)
    h, theta = scheme.h, scheme.theta
    mm = prob.m_linear
    probe = np.asarray(prob.history(0.0))
    if probe.shape != (prob.dim,):
        raise InvalidParams(
            f"history must return vectors of length {prob.dim}, got {probe.shape}")
    sample_dtype = mm.dtype if hasattr(mm, "dtype") else np.asarray(mm).dtype
    dtype = np.result_type(sample_dtype, probe, np.float64)

    if scipy.sparse.issparse(mm):
        eye = scipy.sparse.identity(prob.dim, dtype=dtype, format="csr")
        explicit = (eye + (1.0 - theta) * h * mm).tocsr()
        implicit = (eye - theta * h * mm).tocsc()
    else:
        eye = np.eye(prob.dim, dtype=dtype)
        explicit = eye + (1.0 - theta) * h * np.asarray(mm)
        implicit = eye - theta * h * np.asarray(mm)
    solve_step = _implicit_solver(implicit)
    g = prob.g
    w_exp = h * (1.0 - theta)
    w_imp = h * theta
    return _run(
        scheme, prob.dim, dtype, prob.history,
        explicit_apply=lambda z: explicit @ z,
        delayed_explicit=(lambda d: w_exp * np.asarray(g(d))) if theta < 1.0
        else (lambda d: 0.0),
        delayed_implicit=lambda d: w_imp * np.asarray(g(d)),
        solve_step=solve_step,
        t_end=t_end, keep_trajectory=keep_trajectory)


def observed_order(prob: LinearDDE, exact, theta: float, m_list,
                   t_end: float, u: float = 0.0) -> float:
    """Least-squares slope of log error versus log h over an m refinement.

    ``exact(t)`` must return the reference state vector; the error at the
    final grid time is measured in the plain root-sum-of-squares norm.
    m_list needs at least three entries.
    """
    m_list = list(m_list)
    if len(m_list) < 3:
        raise InvalidParams("m_list needs at least 3 entries for a slope fit")
    hs, errs = [], []
    for m in m_list:
        scheme = ThetaScheme(theta=theta, u=u, m=m, tau=prob.tau)
        traj = solve_linear(prob, scheme, t_end, keep_trajectory=False)
        t_fin = traj.final_time
        diff = traj.final_state - np.asarray(exact(t_fin))
        errs.append(max(float(np.sqrt(np.sum(np.abs(diff) ** 2))), 1e-300))
        hs.append(scheme.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
