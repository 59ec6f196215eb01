"""Theta-method time stepping for constant-delay systems.

One driver integrates z'(t) = M z(t) + g(z(t - tau))
(:class:`SemilinearDDE`) on the uniform grid t_n = n h with
h = tau / (m - u).  The linear system y'(t) = -A y(t) + B y(t - tau)
(:class:`LinearDDE`) is its special case M = -A, g(d) = B d.  One step
advances

    z_{n+1} = z_n + h (1-theta) [M z_n + g(d_n)]
                  + h theta [M z_{n+1} + g(d_{n+1})],

with the delayed value of the implicit stage interpolated linearly,
d_{n+1} = (1-u) z_{n-m+1} + u z_{n-m+2}; for g(d) = B d this is T(z) of
``stability``, stepped in this form, which fits any g.  g acts on the
delayed state only, and within k <= m steps (m - 1 when u > 0) every
delayed value is already known (the method of steps).  So the driver
marches in blocks of k steps: it evaluates a block's delayed terms f_n
together (g once per step; the explicit stage carries the previous
step's term), advances w_{n+1} = K w_n + f_n state by state and returns
to physical space once per block, for the overflow guard, the peak and
the ring buffer, which holds the last m + 2 states; a run that takes all
its steps returns that buffer itself as its window, not a copy.  Every
state reaches its consumer as it is written: the ``on_block`` callback
of :func:`solve_linear` and :func:`solve_semilinear` receives each block
(:func:`csv_sink` writes them to a CSV file), so no output needs the
whole trajectory in memory.  A run takes at most ``MAX_STEPS`` steps.

The linear part M is a dense numpy array or an operator with a sine
basis (``to_modes``, ``from_modes``, its eigenvalues ``omega``, and
negation); anything else, scipy.sparse included, raises ``InvalidParams``.
The two paths are named in :class:`SolveStats`:

* ``"dense-inverse"``: w is the state, K = (I - theta h M)^{-1}
  (I + (1-theta) h M) one matvec, and f_n carries (I - theta h M)^{-1},
  formed once by ``linalg.solver_for`` (which raises ``Singular``);
* ``"modes"``: w holds mode coefficients and K is the elementwise
  kappa = (1 + h (1-theta) omega) / (1 - h theta omega).  On a linear
  problem a block's delayed terms are one product with to_modes(B^T).

The history is sampled at the grid times max(-k h, -tau), k = 0..m.  When
u > 0 (or by rounding at u = 0) the time -m h lies below -tau; there the
history is extended as a constant, so the sample taken is history(-tau).
The check that they are finite reads these m + 1 samples only.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._csv import csv_writer
from .errors import InvalidParams, allocating
from .stability import ThetaScheme

OVERFLOW_GUARD = 1e100
# far beyond any run that ends in reasonable time: a t_end past it is an error
MAX_STEPS = 10 ** 9
# scratch per array in a block: ~165 steps of example1, 1 of example2 at M = 200
BLOCK_BYTES = 256 * 1024


def _has_modes(op) -> bool:
    return callable(getattr(op, "to_modes", None))


@dataclass(frozen=True)
class LinearDDE:
    """y'(t) = -a y(t) + b y(t - tau); ``a`` is the (expected positive
    definite) factor on the minus sign, a dense array or an operator with
    a sine basis (see the module docstring), ``b`` a dense array.
    ``history(t)`` is called for t in [-tau, 0] only; before -tau the
    solver extends it as history(-tau)."""

    a: object
    b: np.ndarray
    tau: float
    history: object

    def __post_init__(self):
        if not _has_modes(self.a):
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
    a sine basis (see the module docstring), and any other kind raises
    ``InvalidParams``.  ``history(t)`` is called for t in [-tau, 0] only;
    before -tau the solver extends it as the constant history(-tau)."""

    m_linear: object
    g: object
    tau: float
    history: object

    def __post_init__(self):
        if not (isinstance(self.m_linear, np.ndarray) or _has_modes(self.m_linear)):
            raise InvalidParams(
                "linear part must be a dense numpy array or an operator with a "
                f"sine basis (to_modes, from_modes, omega), got {type(self.m_linear).__name__}")
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

    ``path`` is ``"dense-inverse"`` or ``"modes"`` (see the module
    docstring).  ``steps`` and ``g_calls`` count the steps taken and the
    delayed terms they used, up to a halt by the overflow guard.
    ``setup_s`` is the time to build the implicit stage (the inverse and K;
    on the modes path kappa, and to_modes(B^T) for a linear problem);
    ``stepping_s`` the time of the steps, ``on_block`` calls included."""

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
    """The last m + 2 states of a run on the uniform grid, in time order,
    read by position (``final_state`` is ``states[-1]``).  After a run's
    last step they are the stepping driver's ring buffer itself, not a
    copy; only a run halted before it copies the buffer into time order.
    A run halted within its first m + 1 steps leaves history samples, at
    negative times, in the first rows.  A run's ``on_block`` callback is
    handed every state it computed.  ``diverged`` marks a run halted by the
    overflow guard (a state above 1e100 in max norm, or NaN); states beyond
    the halt do not exist.  ``peak_max_norm`` is the largest max norm over
    every state the run computed, z(0) included and NaN once a state held
    one; it equals the largest max norm over the states handed to
    ``on_block``.  It is None on a hand-built trajectory, and so is
    ``stats`` (see :class:`SolveStats`)."""

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

    def to_csv(self, path, norm_only: bool = False) -> None:
        """Write the held states in the format of :func:`csv_sink`."""
        with csv_sink(path, norm_only) as sink:
            sink(self.times, self.states)


def _csv_header(states, norm_only: bool) -> str:
    if norm_only:
        return "t,norm2"
    n = states.shape[1]
    if np.iscomplexobj(states):
        return "t," + ",".join(f"y{j}_re,y{j}_im" for j in range(n))
    return "t," + ",".join(f"y{j}" for j in range(n))


def _csv_rows(times, states, norm_only: bool):
    if norm_only:
        return zip(times.tolist(), map(state_norm, states))
    if np.iscomplexobj(states):  # y0_re, y0_im, y1_re, ... is the memory order
        states = np.ascontiguousarray(states, dtype=complex).view(np.float64)
    return np.column_stack((times, states)).tolist()


@contextmanager
def csv_sink(path, norm_only: bool = False):
    """An ``on_block`` callback that writes the states it is handed to the
    CSV file ``path``: t plus one column per component (re/im pairs when
    complex), or t plus the 2-norm (:func:`state_norm`) in norm-only mode.
    The file is opened at the first block, so a run rejected before it
    steps writes none."""
    with ExitStack() as stack:
        write = None

        def on_block(times, states) -> None:
            nonlocal write
            if write is None:
                write = stack.enter_context(csv_writer(path, _csv_header(states, norm_only)))
            write(_csv_rows(times, states, norm_only))

        yield on_block


def _check_delay(scheme: ThetaScheme, tau: float) -> None:
    if abs(scheme.tau - tau) > 1e-12 * max(1.0, abs(tau)):
        raise InvalidParams(
            f"scheme delay {scheme.tau} does not match the problem delay {tau}")


def _n_steps(t_end: float, h: float) -> int:
    if not h <= t_end < math.inf:
        raise InvalidParams(f"t_end = {t_end} must be finite and at least h = {h}")
    steps = t_end / h - 1e-9
    if not steps <= MAX_STEPS:
        raise InvalidParams(
            f"t_end = {t_end} takes {steps:.3g} steps of h = {h:.6g}, "
            f"more than the {MAX_STEPS:.0e} a run may take")
    return int(math.ceil(steps))


def _integrate(prob, scheme: ThetaScheme, m_linear, g, dtype, t_end: float,
               on_block) -> Trajectory:
    """The one stepping driver, for z' = M z + g(z(t - tau)), on one ring
    buffer of m + 2 states: state n lives in row (n + shift) mod (m + 2),
    with the shift chosen so that the last step, n_steps, lands in the last
    row.  A run that takes every step then returns the buffer as its
    window, in time order with no copy; a run that the overflow guard halts
    earlier returns a copy.  The history check reads the m + 1 history
    rows only.  A block reads every delayed state it needs before it writes
    a state.

    ``on_block(times, states)``, unless None, is called once with t = 0
    and z(0) after the history check, then once per block with the rows
    just written into the ring, a row that tripped the overflow guard
    included.  Its arrays are valid only during the call."""
    _check_delay(scheme, prob.tau)
    m, h, u, theta = scheme.m, scheme.h, scheme.u, scheme.theta
    n_steps = _n_steps(t_end, h)
    dim = prob.dim
    probe = np.asarray(prob.history(0.0))
    if probe.shape != (dim,):
        raise InvalidParams(
            f"history must return vectors of length {dim}, got {probe.shape}")
    dtype = np.result_type(dtype, probe, np.float64)

    t_setup = time.perf_counter()
    w_exp, w_imp = h * (1.0 - theta), h * theta
    if isinstance(m_linear, np.ndarray):
        path = "dense-inverse"
        eye = np.eye(dim, dtype=dtype)
        inverse = linalg.solver_for(eye - w_imp * m_linear).solve(eye)
        step = inverse if theta == 1.0 else inverse @ (eye + w_exp * m_linear)
        to_modes = from_modes = lambda x: x
        lift = lambda g_rows: g_rows @ inverse.T
        advance = step.__matmul__
    else:
        path = "modes"
        lhs = linalg.require_pivots(1.0 - w_imp * m_linear.omega)
        kappa = (1.0 + w_exp * m_linear.omega) / lhs
        w_imp = w_imp / lhs
        if theta < 1.0:  # w_exp is read only then; at theta = 1 it is 0
            w_exp = w_exp / lhs
        del lhs
        to_modes = lift = m_linear.to_modes
        from_modes = m_linear.from_modes
        advance = lambda w: kappa * w
    if path == "modes" and isinstance(prob, LinearDDE):
        fold = to_modes(np.asarray(prob.b).T)
        terms = lambda d: d @ fold
    else:
        def terms(d):
            g_rows = [np.asarray(g(row), dtype=dtype) for row in d]
            return lift(g_rows[0][None] if len(g_rows) == 1 else np.stack(g_rows))
    setup_s = time.perf_counter() - t_setup

    size = m + 2
    with allocating(f"{size:.3g} states of dimension {dim}"):
        buf = np.empty((size, dim), dtype=dtype)
    # state n lives in row (n + shift) % size, so step n_steps lands in the last row
    shift = (m + 1 - n_steps) % size
    # -m h lies below -tau when u > 0 (or by rounding): use history(-tau)
    t_first = max(-m * h, -prob.tau)
    for k in range(-m, 1):
        row = buf[(k + shift) % size]
        row[:] = np.asarray(prob.history(k * h if k > -m else t_first), dtype=dtype)
        if not np.all(np.isfinite(row)):
            raise InvalidParams(
                f"history is not finite at every grid time in [{t_first:.6g}, 0]")
    z0 = buf[shift:shift + 1]
    peak = np.max(np.abs(z0))
    if on_block is not None:
        on_block(np.zeros(1), z0)

    def ring(first, k):
        """States first .. first + k - 1 of the buffer: a view unless they wrap."""
        start = (first + shift) % size
        if start + k <= size:
            return buf[start:start + k]
        return buf[np.arange(start, start + k) % size]

    def delayed_terms(n0, k):
        """Terms of the implicit-stage delayed values of steps n0 .. n0 + k - 1."""
        d = ring(n0 - m + 1, k)
        if u != 0.0:
            d = (1.0 - u) * d + u * ring(n0 - m + 2, k)
        return terms(d)

    span = min(m if u == 0.0 else m - 1,
               max(1, BLOCK_BYTES // (dim * np.dtype(dtype).itemsize)))
    diverged = False
    n0 = 0
    # a step may overflow straight to inf or NaN; the overflow guard
    # reports that as divergence, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        t_stepping = time.perf_counter()
        prev = to_modes(z0[0])
        if theta < 1.0:
            carry = w_exp * delayed_terms(-1, 1)[0]
        while n0 < n_steps:
            k = min(span, n_steps - n0)
            new = delayed_terms(n0, k)  # turned in place into f_n, then w_{n+1}
            if theta < 1.0:  # the explicit stage carries the previous step's term
                explicit = w_exp * new
                new *= w_imp
                new[0] += carry
                new[1:] += explicit[:-1]
                carry = explicit[-1]
            else:
                new *= w_imp
            for row in new:
                row += advance(prev)
                prev = row
            z = from_modes(new)
            row_max = np.max(np.abs(z), axis=1)
            tripped = np.flatnonzero(~(row_max <= OVERFLOW_GUARD))  # NaN trips it
            if tripped.size:
                k, diverged = int(tripped[0]) + 1, True
            peak = np.maximum(peak, np.max(row_max[:k]))  # a NaN replaces the peak too
            idx = np.arange(n0 + 1, n0 + 1 + k)
            buf[(idx + shift) % size] = z[:k]
            if on_block is not None:
                on_block(h * idx, z[:k])
            n0 += k
            if diverged:
                break
    # one delayed term per step taken, plus step 0's explicit one when theta < 1
    stats = SolveStats(path=path, steps=n0, g_calls=n0 + int(theta < 1.0),
                       setup_s=setup_s,
                       stepping_s=time.perf_counter() - t_stepping)

    # n0 >= 1, so the ring's m + 2 rows end at step n0; after the last step
    # they are the buffer in time order, and only a halt earlier needs a copy
    idx = np.arange(n0 + 1 - size, n0 + 1)
    states = buf if n0 == n_steps else buf[(idx + shift) % size]
    return Trajectory(times=h * idx, states=states, scheme=scheme,
                      diverged=diverged, peak_max_norm=float(peak), stats=stats)


def solve_linear(prob: LinearDDE, scheme: ThetaScheme, t_end: float,
                 on_block=None) -> Trajectory:
    """Integrate y' = -A y + B y(t - tau) up to (at least) t_end.

    A dense A takes the ``"dense-inverse"`` path, an operator the
    ``"modes"`` path; the run halts early with ``diverged=True`` if any
    state exceeds the overflow guard of 1e100 in max norm or holds a NaN.
    ``on_block(times, states)`` receives every state from t = 0 on as it
    is stepped, a block at a time (see :func:`csv_sink`); the arrays it is
    handed are valid only during the call.
    """
    bm = np.asarray(prob.b)
    return _integrate(prob, scheme, -prob.a, lambda d: bm @ d,
                      np.result_type(prob.a.dtype, bm), t_end, on_block)


def solve_semilinear(prob: SemilinearDDE, scheme: ThetaScheme, t_end: float,
                     on_block=None) -> Trajectory:
    """Integrate z' = M z + g(z(t - tau)) up to (at least) t_end.

    g is evaluated once per step at the interpolated delayed state, so
    the implicit stage stays linear; a dense M takes the
    ``"dense-inverse"`` path, an operator the ``"modes"`` path.
    ``on_block`` is as in :func:`solve_linear`.
    """
    mm = prob.m_linear
    return _integrate(prob, scheme, mm, prob.g, mm.dtype, t_end, on_block)
