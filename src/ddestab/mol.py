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
  with logistic delayed reaction mu z (1 - z); the Laplacian is the
  Kronecker sum L (+) L, handed to the solver as a structured
  :class:`KroneckerLaplacian`: the 5-point stencil in CSR for products,
  plus shifted solves (I + c M) z = r by 2-D DST-I diagonalization with
  the closed-form spectrum (Buzbee, Golub and Nielson, SIAM J. Numer.
  Anal. 7, 1970), so no sparse factorization is needed.

The solver consumes the linear part with its natural (negative definite)
sign; stability analyses expect the positive definite factor, which
``stability_matrices`` returns for the linear example1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import InvalidParams, Singular
from .solver import LinearDDE, SemilinearDDE, Trajectory

__all__ = [
    "Grid1D", "MolProblem", "KroneckerLaplacian", "dirichlet_laplacian",
    "dirichlet_eigenvalues",
    "build_example1", "build_example2", "example2_condition",
    "Example2Condition",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with M cells on [0, length]; interior nodes 1..M-1."""

    m: int
    length: float

    def __post_init__(self):
        if self.m < 2:
            raise InvalidParams("grid resolution M must be at least 2")
        if not self.length > 0.0:
            raise InvalidParams("domain length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.m

    @property
    def interior(self) -> np.ndarray:
        return self.dx * np.arange(1, self.m)

    @property
    def n_interior(self) -> int:
        return self.m - 1


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


class KroneckerLaplacian:
    """lam (L (+) L) on the n x n interior nodes of a square grid (x fast,
    y slow), L the 1-D Dirichlet second difference.

    Products, ``toarray()``, ``tocsr()``, ``shape`` and ``dtype`` use the
    5-point stencil stored in CSR.  ``shifted_solver(c)`` solves
    (I + c M) z = r without a factorization: the sine modes diagonalize
    both factors of the Kronecker sum, with eigenvalues omega_i + omega_j
    (omega the closed-form spectrum of lam L), so a solve is a 2-D DST-I,
    a divide by 1 + c (omega_i + omega_j) and the inverse DST-I.
    """

    def __init__(self, n_interior: int, dx: float, lam: float):
        n = n_interior
        l_sp = scipy.sparse.csr_matrix(dirichlet_laplacian(n, dx))
        eye = scipy.sparse.identity(n, format="csr")
        self.n_interior = n
        self.omega = lam * dirichlet_eigenvalues(n, dx)
        self._stencil = (lam * (scipy.sparse.kron(l_sp, eye)
                                + scipy.sparse.kron(eye, l_sp))).tocsr()

    @property
    def shape(self) -> tuple:
        return self._stencil.shape

    @property
    def dtype(self):
        return self._stencil.dtype

    def __matmul__(self, x):
        return self._stencil @ x

    def toarray(self) -> np.ndarray:
        return self._stencil.toarray()

    def tocsr(self):
        return self._stencil

    def shifted_solver(self, c: float):
        """Return a callable r -> (I + c M)^{-1} r for flat vectors r, real
        or complex.

        Raises :class:`Singular` when some |1 + c (omega_i + omega_j)| is at
        or below 1e-14 times the largest one (the pivot rule of
        ``linalg.solver_for``).
        """
        # imported here: scipy.fft adds about 0.1 s to every CLI start
        from scipy.fft import dstn, idstn

        denom = 1.0 + c * (self.omega[:, None] + self.omega[None, :])
        smallest, floor = np.min(np.abs(denom)), 1e-14 * np.max(np.abs(denom))
        if smallest <= floor:
            raise Singular(f"shifted eigenvalue {smallest:.3e} at or below {floor:.3e}")
        shape = (self.n_interior, self.n_interior)

        def solve(rhs):
            coef = dstn(np.reshape(rhs, shape), type=1)
            coef /= denom
            return idstn(coef, type=1, overwrite_x=True).reshape(-1)

        return solve


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
        return np.asarray(self.dde.a), np.asarray(self.dde.b)

    def discrete_error(self, traj: Trajectory, t: float, component: int) -> float:
        """Root-sum-of-squares over interior nodes of (numerical - exact) for
        one component at grid time t."""
        if self.exact is None:
            raise InvalidParams("no exact solution attached")
        state = traj.state_at(t)  # raises TimeOffGrid off the grid
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

    The linear part is blockdiag(lambda1 L, lambda2 L); the delayed
    coupling is  e^{l pi / 2} [[-I, cI], [-cI, -I]]  with c = l + pi^2/4.
    For lambda1 = lambda2 = 1 and tau = pi/2 the exact solution
    v1 = e^{lt} sin(t) sin(pi x / 2), v2 = e^{lt} cos(t) sin(pi x / 2)
    is attached and also supplies the history.
    """
    if lambda1 <= 0.0 or lambda2 <= 0.0:
        raise InvalidParams("diffusion coefficients must be positive")
    grid = Grid1D(m=m_grid, length=2.0)
    n = grid.n_interior
    l_mat = dirichlet_laplacian(n, grid.dx)
    a_mol = np.zeros((2 * n, 2 * n))
    a_mol[:n, :n] = lambda1 * l_mat
    a_mol[n:, n:] = lambda2 * l_mat

    c = l + np.pi ** 2 / 4.0
    scale = math.exp(l * math.pi / 2.0)
    eye = np.eye(n)
    b_mol = scale * np.block([[-eye, c * eye], [-c * eye, -eye]])

    shape = np.sin(np.pi * grid.interior / 2.0)

    def state(t):
        amp = math.exp(l * t)
        return np.concatenate([amp * math.sin(t) * shape,
                               amp * math.cos(t) * shape])

    has_exact = (lambda1 == 1.0 and lambda2 == 1.0
                 and abs(tau - math.pi / 2.0) <= 1e-12)
    dde = LinearDDE(a=-a_mol, b=b_mol, tau=tau, history=state)
    return MolProblem(dde=dde, exact=state if has_exact else None, n_components=2)


# ---------------------------------------------------------------------------
# example 2: delayed Fisher-Kolmogorov on the unit square
# ---------------------------------------------------------------------------

def build_example2(m_grid: int, lam: float = 0.5, reaction_mu: float = 3.0,
                   tau: float = 1.0) -> MolProblem:
    """2-D diffusion with logistic delayed reaction mu z (1 - z).

    The Laplacian lam (L (+) L) on the (M-1)^2 interior nodes (x fast,
    y slow) is a :class:`KroneckerLaplacian`: a structured operator whose
    implicit solves are DST-I shifted solves; the history is the
    stationary initial profile sin(pi x) sin(pi y).
    """
    if lam <= 0.0 or reaction_mu <= 0.0:
        raise InvalidParams("lambda and mu must be positive")
    grid = Grid1D(m=m_grid, length=1.0)

    sin_axis = np.sin(np.pi * grid.interior)
    state0 = np.outer(sin_axis, sin_axis).ravel()

    def g(z):
        return reaction_mu * z * (1.0 - z)

    dde = SemilinearDDE(m_linear=KroneckerLaplacian(grid.n_interior, grid.dx, lam),
                        g=g, tau=tau,
                        history=lambda t: state0)
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
    if m_grid < 2 or lam <= 0.0 or reaction_mu <= 0.0:
        raise InvalidParams("need M >= 2 and positive lambda, mu")
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
