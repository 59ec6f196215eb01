"""Method-of-lines builders for the two built-in delayed parabolic problems.

Both problems discretize Dirichlet Laplacians with second-order centered
differences on a uniform grid and hand the resulting large delay system
to the theta solver:

* ``example1`` -- two coupled 1-D components on [0, 2] with diffusion and
  an antisymmetric delayed coupling whose strength is set by a rate
  parameter ``l``; for unit diffusion and delay pi/2 the exact solution
  e^{l t} (sin t, cos t) sin(pi x / 2) is attached, so discretization
  errors can be measured directly.
* ``example2`` -- a delayed Fisher-Kolmogorov equation on the unit square
  with logistic delayed reaction mu z (1 - z).

Both linear parts are a :class:`SineLaplacian`, the Dirichlet Laplacian
(1-D, or the Kronecker sum L (+) L) times one coefficient per component,
diagonalized by sine modes with the closed-form spectrum, so the solver
steps both problems in mode space: example1 by one product with the
sine matrix, example2 by the 2-D DST-I.  Example2's operator is its
linear part M; example1's is the positive definite A of
y' = -A y + B y(t - tau), which ``stability_matrices`` returns as a dense
array with B.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, allocating
from .solver import LinearDDE, SemilinearDDE

__all__ = [
    "MolProblem", "SineLaplacian", "dirichlet_laplacian", "dirichlet_eigenvalues",
    "build_example1", "build_example2", "example2_condition",
    "Example2Condition",
]


def dirichlet_laplacian(n_interior: int, dx: float) -> np.ndarray:
    """Dense (n x n) tridiagonal (-2, 1) second-difference matrix / dx^2."""
    l_mat = np.zeros((n_interior, n_interior))
    np.fill_diagonal(l_mat, -2.0)
    idx = np.arange(n_interior - 1)
    l_mat[idx, idx + 1] = 1.0
    l_mat[idx + 1, idx] = 1.0
    return l_mat / dx ** 2


def dirichlet_eigenvalues(n_interior: int, dx: float) -> np.ndarray:
    """Closed-form spectrum -(4/dx^2) sin^2(k pi / (2M)), k = 1..M-1."""
    m = n_interior + 1
    k = np.arange(1, m)
    return -(4.0 / dx ** 2) * np.sin(k * np.pi / (2 * m)) ** 2


class SineLaplacian:
    """blockdiag(c_1 D, ..., c_k D), one coefficient per component, D the
    Dirichlet second difference L on n interior nodes (``dims`` = 1) or
    L (+) L on an n x n grid (x fast, y slow): the solver's operator kind.

    Its sine modes diagonalize it: ``to_modes`` and ``from_modes`` map a
    stack of states (over the last axis) to mode coefficients and back,
    and ``omega`` is each mode's closed-form eigenvalue.  In 1-D the map is
    one product with S_jk = sqrt(2/M) sin(pi j k / M), its own inverse; in
    2-D, the 2-D DST-I and its inverse (Buzbee, Golub and Nielson, SIAM J.
    Numer. Anal. 7, 1970).  ``toarray()`` assembles the dense stencil,
    ``shape`` and ``dtype`` are those of ``omega``'s diagonal, and ``-op``
    negates the coefficients."""

    def __init__(self, n: int, dx: float, coefs, dims: int = 1):
        if dims not in (1, 2):
            raise InvalidParams(f"dims must be 1 or 2, got {dims}")
        self._n, self._dx, self._coefs = n, dx, tuple(coefs)
        omega = [c * dirichlet_eigenvalues(n, dx) for c in coefs]
        if dims == 2:
            omega = [(w[:, None] + w[None, :]).ravel() for w in omega]
        self.omega = np.concatenate(omega)
        self._grid = (len(omega),) + (n,) * dims
        self._sine = None
        if dims == 1:  # j k mod 2M keeps every argument of S in [0, 2 pi)
            jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * n + 2)
            self._sine = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * jk)

    @property
    def shape(self) -> tuple:
        return self.omega.shape * 2

    @property
    def dtype(self):
        return self.omega.dtype

    def __neg__(self) -> SineLaplacian:
        neg = copy.copy(self)  # the sine basis is shared
        neg._coefs, neg.omega = tuple(-c for c in self._coefs), -self.omega
        return neg

    def toarray(self) -> np.ndarray:
        block = dirichlet_laplacian(self._n, self._dx)
        if len(self._grid) == 3:
            eye = np.eye(self._n)
            block = np.kron(block, eye) + np.kron(eye, block)
        out = np.kron(np.diag(self._coefs), block)  # blockdiag(c_1 D, ..., c_k D)
        out[out == 0.0] = -0.0  # the zeros example1's dense A had
        return out

    def to_modes(self, states) -> np.ndarray:
        """Mode coefficients of each state in a stack (over the last axis)."""
        return self._transform(states, inverse=False)

    def from_modes(self, coefs) -> np.ndarray:
        """The states with mode coefficients ``coefs``: ``to_modes`` inverted."""
        return self._transform(coefs, inverse=True)

    def _transform(self, x, inverse: bool) -> np.ndarray:
        x = np.asarray(x)
        if self._sine is not None:
            return (x.reshape(-1, self._grid[-1]) @ self._sine).reshape(x.shape)
        # imported here: scipy.fft adds about 0.1 s to every CLI start
        from scipy.fft import dstn, idstn

        grid = x.reshape(x.shape[:-1] + self._grid)
        return (idstn if inverse else dstn)(grid, type=1, axes=(-2, -1)).reshape(x.shape)


@dataclass(frozen=True)
class MolProblem:
    """Assembled MOL system: the DDE, its component count, an optional exact solution.

    ``exact(t)`` (when present) returns the stacked interior state; the
    stacked layout is component-major: component c occupies
    ``[c * n_interior, (c+1) * n_interior)``.
    """

    dde: object
    exact: object = None
    n_components: int = 1

    @property
    def tau(self) -> float:
        return self.dde.tau

    @property
    def n_interior(self) -> int:
        return self.dde.dim // self.n_components

    def stability_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) with A the positive definite factor of y' = -A y + B y(t-tau);
        only defined for the linear problem."""
        if not isinstance(self.dde, LinearDDE):
            raise InvalidParams("stability matrices are defined for linear problems")
        a = self.dde.a
        return (a if isinstance(a, np.ndarray) else a.toarray()), np.asarray(self.dde.b)

    def discrete_error(self, state, t: float, component: int) -> float:
        """Root-sum-of-squares over interior nodes of (state - exact(t)) for
        one component; the caller picks the state (a trajectory row) and t."""
        if self.exact is None:
            raise InvalidParams("no exact solution attached")
        ref = np.asarray(self.exact(t))
        sl = slice(component * self.n_interior, (component + 1) * self.n_interior)
        diff = state[sl] - ref[sl]
        return float(np.sqrt(np.sum(np.abs(diff) ** 2)))


# ---------------------------------------------------------------------------
# example 1: coupled 1-D system with exact solution
# ---------------------------------------------------------------------------

def build_example1(m_grid: int, lambda1: float = 1.0, lambda2: float = 1.0,
                   l: float = -0.1, tau: float = math.pi / 2) -> MolProblem:
    """Two-component delayed reaction-diffusion system on [0, 2].

    The linear part is blockdiag(lambda1 L, lambda2 L), handed to the
    solver as A = -(that), a 1-D :class:`SineLaplacian`; the delayed
    coupling is  e^{l pi / 2} [[-I, cI], [-cI, -I]]  with c = l + pi^2/4.
    For lambda1 = lambda2 = 1 and tau = pi/2 the exact solution
    v1 = e^{lt} sin(t) sin(pi x / 2), v2 = e^{lt} cos(t) sin(pi x / 2)
    is attached and also supplies the history.
    """
    if not (0.0 < lambda1 < math.inf and 0.0 < lambda2 < math.inf):
        raise InvalidParams("diffusion coefficients must be positive and finite")
    if not (math.isfinite(l) and math.isfinite(tau)):
        raise InvalidParams("l and tau must be finite")
    if m_grid < 2:
        raise InvalidParams("grid resolution M must be at least 2")
    dx, n = 2.0 / m_grid, m_grid - 1

    c = l + np.pi ** 2 / 4.0
    scale = math.exp(l * math.pi / 2.0)
    with allocating(f"example1's {2 * n}x{2 * n} matrices"):
        eye = np.eye(n)
    b_mol = scale * np.block([[-eye, c * eye], [-c * eye, -eye]])

    shape = np.sin(np.pi * (dx * np.arange(1, m_grid)) / 2.0)

    def state(t):
        amp = math.exp(l * t)
        return np.concatenate([amp * math.sin(t) * shape,
                               amp * math.cos(t) * shape])

    has_exact = (lambda1 == 1.0 and lambda2 == 1.0
                 and abs(tau - math.pi / 2.0) <= 1e-12)
    dde = LinearDDE(a=SineLaplacian(n, dx, (-lambda1, -lambda2)), b=b_mol,
                    tau=tau, history=state)
    return MolProblem(dde=dde, exact=state if has_exact else None, n_components=2)


# ---------------------------------------------------------------------------
# example 2: delayed Fisher-Kolmogorov on the unit square
# ---------------------------------------------------------------------------

def build_example2(m_grid: int, lam: float = 0.5, reaction_mu: float = 3.0,
                   tau: float = 1.0) -> MolProblem:
    """2-D diffusion with logistic delayed reaction mu z (1 - z).

    The Laplacian lam (L (+) L) on the (M-1)^2 interior nodes (x fast,
    y slow) is a 2-D :class:`SineLaplacian`, which the solver steps in
    its DST-I modes; the history is the stationary initial profile
    sin(pi x) sin(pi y).
    """
    if not (0.0 < lam < math.inf and 0.0 < reaction_mu < math.inf):
        raise InvalidParams("lambda and mu must be positive and finite")
    if m_grid < 2:
        raise InvalidParams("grid resolution M must be at least 2")
    dx, n = 1.0 / m_grid, m_grid - 1

    with allocating(f"example2's {n}x{n} grid"):
        sin_axis = np.sin(np.pi * (dx * np.arange(1, m_grid)))
        state0 = np.outer(sin_axis, sin_axis).ravel()

    def g(z):
        return reaction_mu * z * (1.0 - z)

    dde = SemilinearDDE(m_linear=SineLaplacian(n, dx, (lam,), dims=2), g=g,
                        tau=tau, history=lambda t: state0)
    return MolProblem(dde=dde)


@dataclass(frozen=True)
class Example2Condition:
    """Outcome of the unconditional-stability parameter test for example 2.

    ``holds`` iff lam > 3 mu / (8 M^2 sin^2(pi / (2M))).  The bound chain
    behind it: delayed-reaction slopes stay in ``slope_range`` = (-mu, 3mu)
    while the state is bounded by 1, and the symmetrically weighted field
    of values then lies in ``transformed_interval``, whose left endpoint
    must stay above -1.
    """

    holds: bool
    margin: float
    rhs: float
    slope_range: tuple
    transformed_interval: tuple

    def __bool__(self) -> bool:
        return self.holds


def example2_condition(m_grid: int, lam: float, reaction_mu: float) -> Example2Condition:
    """Example 2's unconditional-stability test on an M-cell grid."""
    if m_grid < 2 or not (0.0 < lam < math.inf and 0.0 < reaction_mu < math.inf):
        raise InvalidParams("need M >= 2 and positive, finite lambda, mu")
    denom = 8.0 * m_grid ** 2 * math.sin(math.pi / (2.0 * m_grid)) ** 2
    rhs = 3.0 * reaction_mu / denom
    return Example2Condition(
        holds=lam > rhs,
        margin=lam - rhs,
        rhs=rhs,
        slope_range=(-reaction_mu, 3.0 * reaction_mu),
        transformed_interval=(-3.0 * reaction_mu / (lam * denom),
                              reaction_mu / (lam * denom)),
    )
