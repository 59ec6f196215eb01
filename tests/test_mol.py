import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from numpy.testing import assert_allclose

from ddestab import errors, linalg, mol, solver, stability


class TestGridAndLaplacian:
    def test_grid_basics(self):
        g = mol.Grid1D(m=4, length=2.0)
        assert g.dx == 0.5
        assert_allclose(g.interior, [0.5, 1.0, 1.5])
        with pytest.raises(errors.InvalidParams):
            mol.Grid1D(m=1, length=1.0)

    @pytest.mark.parametrize("length", [1.0, 2.0])
    @pytest.mark.parametrize("m_grid", [4, 16, 64])
    def test_closed_form_spectrum(self, m_grid, length):
        dx = length / m_grid
        l_mat = mol.dirichlet_laplacian(m_grid - 1, dx)
        computed = np.sort(linalg.hermitian_eigen(l_mat).values)
        expected = np.sort(mol.dirichlet_eigenvalues(m_grid - 1, dx))
        assert np.max(np.abs(computed - expected)) <= 1e-9 * np.max(np.abs(expected))


class TestExample1:
    def test_m3_laplacian_block(self):
        # dx = 2/3: L = (9/4) * [[-2, 1], [1, -2]]; stored negated (PD side)
        problem = mol.build_example1(3, 1.0, 1.0, -0.1, math.pi / 2)
        a_pd, _ = problem.stability_matrices()
        expected = -(9.0 / 4.0) * np.array([[-2.0, 1.0], [1.0, -2.0]])
        assert_allclose(a_pd[:2, :2], expected, rtol=1e-14)
        assert_allclose(a_pd[2:, 2:], expected, rtol=1e-14)
        assert np.max(np.abs(a_pd[:2, 2:])) == 0.0

    def test_delay_coupling_magnitudes(self):
        # off-diagonal blocks carry e^{l pi/2} (l + pi^2/4) on the diagonal
        l_val = -0.1
        problem = mol.build_example1(5, 1.0, 1.0, l_val, math.pi / 2)
        _, b = problem.stability_matrices()
        n = 4
        expected = math.exp(-math.pi / 20.0) * (math.pi ** 2 / 4.0 - 0.1)
        assert_allclose(np.diag(b[:n, n:]), expected, rtol=1e-14)
        assert_allclose(np.diag(b[n:, :n]), -expected, rtol=1e-14)
        assert_allclose(np.diag(b[:n, :n]), -math.exp(-math.pi / 20.0), rtol=1e-14)

    def test_exact_solution_satisfies_pdde(self, rng):
        # analytic residual of the continuous system at random (t, x):
        # d v1/dt = l1 v1_xx - e^{l pi/2} v1(t-tau) + (1/4) e^{l pi/2}(4l+pi^2) v2(t-tau)
        l_val = -0.1
        tau = math.pi / 2.0
        scale = math.exp(l_val * math.pi / 2.0)
        c = l_val + math.pi ** 2 / 4.0

        def v1(t, x):
            return math.exp(l_val * t) * math.sin(t) * math.sin(math.pi * x / 2.0)

        def v2(t, x):
            return math.exp(l_val * t) * math.cos(t) * math.sin(math.pi * x / 2.0)

        for _ in range(100):
            t = rng.uniform(0.0, 10.0)
            x = rng.uniform(0.0, 2.0)
            shape = math.sin(math.pi * x / 2.0)
            d1 = math.exp(l_val * t) * (l_val * math.sin(t) + math.cos(t)) * shape
            d2 = math.exp(l_val * t) * (l_val * math.cos(t) - math.sin(t)) * shape
            lap1 = -(math.pi ** 2 / 4.0) * v1(t, x)
            lap2 = -(math.pi ** 2 / 4.0) * v2(t, x)
            r1 = d1 - (lap1 - scale * v1(t - tau, x) + scale * c * v2(t - tau, x))
            r2 = d2 - (lap2 - scale * c * v1(t - tau, x) - scale * v2(t - tau, x))
            assert abs(r1) <= 1e-8 and abs(r2) <= 1e-8

    def test_exact_only_for_reference_parameters(self):
        assert mol.build_example1(4, 1.0, 1.0, -0.1, math.pi / 2).exact is not None
        assert mol.build_example1(4, 2.0, 1.0, -0.1, math.pi / 2).exact is None
        assert mol.build_example1(4, 1.0, 1.0, -0.1, 1.0).exact is None

    def test_exact_vanishes_on_boundary(self):
        problem = mol.build_example1(8, 1.0, 1.0, -0.1, math.pi / 2)
        state = problem.exact(0.7)
        # interior values only; the profile sin(pi x / 2) tends to 0 at x=0
        # and x=2, so the first and last interior values are the smallest
        n = problem.n_interior
        v2 = state[n:]
        assert abs(v2[0]) < abs(v2[n // 2])
        assert abs(v2[-1]) < abs(v2[n // 2])

    def test_rejects_bad_parameters(self):
        with pytest.raises(errors.InvalidParams):
            mol.build_example1(5, -1.0, 1.0, 0.0, 1.0)


class TestExample2:
    def test_m2_reduces_to_single_unknown(self):
        lam = 0.7
        problem = mol.build_example2(2, lam, 3.0, 1.0)
        a = problem.dde.m_linear.toarray()
        assert a.shape == (1, 1)
        assert_allclose(a[0, 0], -16.0 * lam, rtol=1e-14)

    def test_kronecker_sum_spectrum(self):
        lam = 0.5
        for m_grid in (4, 8, 16):
            problem = mol.build_example2(m_grid, lam, 3.0, 1.0)
            a = problem.dde.m_linear.toarray()
            omega = lam * mol.dirichlet_eigenvalues(m_grid - 1, 1.0 / m_grid)
            expected = np.sort((omega[:, None] + omega[None, :]).ravel())
            computed = np.sort(linalg.hermitian_eigen(a).values)
            assert np.max(np.abs(computed - expected)) <= 1e-9 * np.max(np.abs(expected))
            # sigma(A) inside [2 omega_{M-1}, 2 omega_1]
            assert computed[0] >= 2.0 * omega.min() - 1e-9
            assert computed[-1] <= 2.0 * omega.max() + 1e-9

    @pytest.mark.parametrize("m_grid", [4, 12, 32])
    def test_linear_part_symmetric_negative_definite(self, m_grid):
        problem = mol.build_example2(m_grid, 1.0, 1.0, 1.0)
        a = problem.dde.m_linear.toarray()
        assert np.max(np.abs(a - a.T)) == 0.0
        assert linalg.hermitian_eigen(a).values[-1] < 0.0

    @pytest.mark.parametrize("m_grid", [2, 5, 16])
    def test_problem_reads_size_and_delay_from_the_dde(self, m_grid):
        problem = mol.build_example2(m_grid, 0.5, 3.0, 0.75)
        assert problem.n_interior == (m_grid - 1) ** 2 == problem.dde.dim
        assert problem.tau == problem.dde.tau == 0.75

    def test_history_profile(self):
        problem = mol.build_example2(4, 0.5, 3.0, 1.0)
        state = problem.dde.history(-0.3)
        xs = mol.Grid1D(4, 1.0).interior
        expected = np.outer(np.sin(np.pi * xs), np.sin(np.pi * xs)).ravel()
        assert_allclose(state, expected)

    def test_condition_reference_point(self):
        cond = mol.example2_condition(100, 0.5, 3.0)
        assert cond.holds
        expected = 0.5 - 9.0 / (80000.0 * math.sin(math.pi / 200.0) ** 2)
        assert abs(cond.margin - expected) <= 1e-15
        assert cond.slope_range == (-3.0, 9.0)
        assert cond.transformed_interval[0] < 0.0 < cond.transformed_interval[1]

    def test_condition_fails_for_small_diffusion(self):
        assert not mol.example2_condition(100, 1e-4, 3.0).holds

    def test_transformed_interval_double_lower(self):
        # lower endpoint is -3x the upper one by construction
        cond = mol.example2_condition(50, 1.0, 2.0)
        assert_allclose(cond.transformed_interval[0],
                        -3.0 * cond.transformed_interval[1], rtol=1e-14)

    def test_reduced_fov_cross_check(self):
        # the analytic p=2 interval bounds hold numerically at small scale:
        # F(B A^{-1}) for the worst-case constant slope matrix stays in the
        # predicted interval, and the certificate accepts the scheme
        m_grid = 10
        lam, mu = 2.0, 1.0
        cond = mol.example2_condition(m_grid, lam, mu)
        assert cond.holds
        problem = mol.build_example2(m_grid, lam, mu, 1.0)
        a_pd = -problem.dde.m_linear.toarray()
        b_worst = 3.0 * mu * np.eye(a_pd.shape[0])  # max delayed slope
        radius = np.max(np.abs(
            linalg.general_eigenvalues(b_worst @ np.linalg.inv(a_pd))))
        assert radius <= abs(cond.transformed_interval[0]) + 1e-12
        rep = stability.unconditional_certificate(
            a_pd, b_worst, stability.ThetaScheme(1.0, 0.0, 5, 1.0))
        assert rep.verdict == stability.UNCONDITIONALLY_STABLE


def kron_sum_csr(m_grid, lam):
    """lam (L (+) L) assembled as a sparse Kronecker sum."""
    n, dx = m_grid - 1, 1.0 / m_grid
    l_sp = scipy.sparse.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                              offsets=[-1, 0, 1], format="csr") / dx ** 2
    eye = scipy.sparse.identity(n, format="csr")
    return (lam * (scipy.sparse.kron(l_sp, eye) + scipy.sparse.kron(eye, l_sp))).tocsr()


class TestKroneckerLaplacian:
    @pytest.mark.parametrize("m_grid", [2, 3, 4, 17, 64])
    @pytest.mark.parametrize("c", [0.0, -0.05, -0.5])
    def test_shifted_solve_matches_splu(self, rng, m_grid, c):
        op = mol.build_example2(m_grid, 0.5, 3.0, 1.0).dde.m_linear
        dim = (m_grid - 1) ** 2
        shifted = scipy.sparse.identity(dim, dtype=complex) + c * kron_sum_csr(m_grid, 0.5)
        rhs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        expected = scipy.sparse.linalg.splu(shifted.tocsc()).solve(rhs)
        got = op.shifted_solver(c)(rhs)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("m_grid", [2, 5, 32])
    def test_matvec_is_the_stencil(self, rng, m_grid):
        op = mol.build_example2(m_grid, 0.7, 3.0, 1.0).dde.m_linear
        csr = kron_sum_csr(m_grid, 0.7)
        x = rng.standard_normal(csr.shape[0])
        assert np.array_equal(op @ x, csr @ x)
        assert op.shape == csr.shape and op.dtype == csr.dtype
        assert (op.tocsr() != csr).nnz == 0
        assert np.array_equal(op.toarray(), csr.toarray())

    def test_singular_shift_raises(self):
        # 1 + c (omega_2 + omega_5) = delta; the largest |1 + c (...)| is about 0.93
        op = mol.build_example2(8, 0.5, 3.0, 1.0).dde.m_linear
        pair = op.omega[2] + op.omega[5]
        for delta in (0.0, 1e-15):
            with pytest.raises(errors.Singular):
                op.shifted_solver(-(1.0 - delta) / pair)
        op.shifted_solver(-(1.0 - 1e-11) / pair)  # above the 1e-14 floor


class TestDiscreteError:
    def test_exact_feedback_is_zero(self):
        problem = mol.build_example1(6, 1.0, 1.0, -0.1, math.pi / 2)
        s = stability.ThetaScheme(1.0, 0.0, 4, problem.tau)
        h = s.h
        times = h * np.arange(9)
        states = np.stack([problem.exact(t) for t in times])
        traj = solver.Trajectory(times=times, states=states, scheme=s)
        for comp in (0, 1):
            assert problem.discrete_error(traj, times[-1], comp) == 0.0

    def test_off_grid_time_raises(self):
        problem = mol.build_example1(6, 1.0, 1.0, -0.1, math.pi / 2)
        s = stability.ThetaScheme(1.0, 0.0, 4, problem.tau)
        traj = solver.solve_linear(problem.dde, s, 4 * s.h)
        with pytest.raises(errors.TimeOffGrid):
            problem.discrete_error(traj, 0.5 * s.h, 0)

    def test_requires_exact(self):
        problem = mol.build_example2(4, 0.5, 3.0, 1.0)
        s = stability.ThetaScheme(1.0, 0.0, 4, 1.0)
        traj = solver.solve_semilinear(problem.dde, s, 1.0)
        with pytest.raises(errors.InvalidParams):
            problem.discrete_error(traj, 1.0, 0)
