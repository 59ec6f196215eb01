import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from numpy.testing import assert_allclose

from ddestab import errors, linalg, mol, solver, stability


class TestGridAndLaplacian:
    def test_builders_refuse_a_grid_below_two_cells(self):
        for build in (mol.build_example1, mol.build_example2):
            with pytest.raises(errors.InvalidParams, match="grid resolution M"):
                build(1)

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
        for bad in (math.inf, math.nan):
            for args in ((bad, 1.0, 0.0, 1.0), (1.0, bad, 0.0, 1.0),
                         (1.0, 1.0, bad, 1.0), (1.0, 1.0, 0.0, bad)):
                with pytest.raises(errors.InvalidParams):
                    mol.build_example1(5, *args)

    @pytest.mark.parametrize("kwargs, match", [
        ({"l": 452.0}, r"e\^\(l pi / 2\) at l = 452 overflows"),
        ({"l": 450.0}, r"coupling .* at l = 450 overflows"),
        ({"l": -452.0}, r"history e\^\(l t\) at t = -tau = -1.5708 \(l = -452\) overflows"),
        ({"tau": 1e4}, r"history .* \(l = -0.1\) overflows"),
        ({"lambda1": 1e308}, r"coefficient -1e\+308 times the Laplacian's spectrum at dx = 0.2"),
        ({"lambda2": 1e307}, r"coefficient -1e\+307 times .* overflows"),
    ])
    def test_refuses_parameters_that_overflow(self, kwargs, match):
        with pytest.raises(errors.InvalidParams, match=match):
            mol.build_example1(10, **kwargs)

    def test_largest_parameters_in_range_build(self):
        # just inside each refusal: the coupling, the history and the spectrum
        for kwargs in ({"l": 445.0}, {"l": -451.0}, {"tau": 7000.0}, {"lambda1": 1e305}):
            problem = mol.build_example1(10, **kwargs)
            assert np.all(np.isfinite(problem.dde.b))
            assert np.all(np.isfinite(problem.dde.history(-problem.tau)))


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
        xs = np.array([0.25, 0.5, 0.75])
        expected = np.outer(np.sin(np.pi * xs), np.sin(np.pi * xs)).ravel()
        assert_allclose(state, expected)

    def test_condition_reference_point(self):
        cond = mol.example2_condition(100, 0.5, 3.0)
        assert cond.holds
        expected = 0.5 - 9.0 / (80000.0 * math.sin(math.pi / 200.0) ** 2)
        assert abs(cond.margin - expected) <= 1e-15
        assert cond.slope_range == (-3.0, 9.0)
        assert cond.transformed_interval[0] < 0.0 < cond.transformed_interval[1]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_parameters(self, bad):
        for lam, mu in ((bad, 3.0), (0.5, bad)):
            with pytest.raises(errors.InvalidParams):
                mol.build_example2(4, lam, mu, 1.0)
            with pytest.raises(errors.InvalidParams):
                mol.example2_condition(100, lam, mu)

    def test_refuses_a_diffusion_that_overflows(self):
        with pytest.raises(errors.InvalidParams,
                           match=r"coefficient 1e\+308 times the Laplacian's spectrum"):
            mol.build_example2(10, 1e308, 3.0, 1.0)

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
            stability._Facts(a_pd, b_worst), stability.ThetaScheme(1.0, 0.0, 5, 1.0),
            stability.DEFAULT_P_GRID)
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
        # one driver step of example2 with g = 0 from a complex state r solves
        # (I + c M) z_1 = (I + (h + c) M) r with c = -theta h: theta = 1 and
        # h = -c, except at c = 0, the explicit step (theta = 0, h = 0.05)
        op = mol.build_example2(m_grid, 0.5, 3.0, 1.0).dde.m_linear
        theta, h = (1.0, -c) if c else (0.0, 0.05)
        r = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        prob = solver.SemilinearDDE(op, np.zeros_like, h, lambda t: r)
        traj = solver.solve_semilinear(prob, stability.ThetaScheme(theta, 0.0, 1, h), h)
        csr = kron_sum_csr(m_grid, 0.5)
        shifted = scipy.sparse.identity(op.shape[0], dtype=complex) + c * csr
        expected = scipy.sparse.linalg.splu(shifted.tocsc()).solve(r + (h + c) * (csr @ r))
        assert traj.stats.path == "modes" and traj.stats.steps == 1
        assert np.linalg.norm(traj.final_state - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("m_grid", [2, 5, 32])
    def test_matvec_is_the_stencil(self, m_grid):
        op = mol.build_example2(m_grid, 0.7, 3.0, 1.0).dde.m_linear
        csr = kron_sum_csr(m_grid, 0.7)
        assert op.shape == csr.shape and op.dtype == csr.dtype
        assert np.array_equal(op.toarray(), csr.toarray())

    @pytest.mark.parametrize("dims", [1, 2])
    def test_modes_diagonalize_the_stencil(self, rng, dims):
        # two components with their own coefficients, in 1-D and 2-D
        op = mol.SineLaplacian(6, 0.3, (0.7, -1.5), dims=dims)
        dense = op.toarray()
        x = rng.standard_normal((3, op.shape[0]))
        w = op.to_modes(x)
        scale = np.max(np.abs(x))
        assert np.max(np.abs(op.from_modes(w) - x)) <= 1e-14 * scale
        scale *= np.max(np.abs(op.omega))
        assert np.max(np.abs(op.from_modes(op.omega * w) - x @ dense.T)) <= 1e-14 * scale
        neg = -op
        assert np.array_equal(neg.omega, -op.omega)
        assert np.array_equal(neg.toarray(), -dense)

    def test_singular_shift_raises(self):
        # M = -(example2's operator) has the positive eigenvalue pair =
        # omega_2 + omega_5 (mode (2, 5) of the 7 x 7 grid); a theta = 1 step
        # of h = (1 - delta) / pair leaves the pivot 1 - h pair = delta, and
        # the largest |1 - h omega| is about 0.93
        op = mol.build_example2(8, 0.5, 3.0, 1.0).dde.m_linear
        pair = -op.omega[2 * 7 + 5]

        def run(delta):
            h = (1.0 - delta) / pair
            s = stability.ThetaScheme(1.0, 0.0, 1, h)
            hist = lambda t: np.ones(op.shape[0])
            solver.solve_semilinear(solver.SemilinearDDE(-op, np.zeros_like, h, hist), s, h)
            solver.solve_linear(solver.LinearDDE(op, np.zeros(op.shape), h, hist), s, h)

        for delta in (0.0, 1e-15):
            with pytest.raises(errors.Singular):
                run(delta)
        run(1e-11)  # above the 1e-14 floor


class TestDiscreteError:
    def test_exact_feedback_is_zero(self):
        problem = mol.build_example1(6, 1.0, 1.0, -0.1, math.pi / 2)
        s = stability.ThetaScheme(1.0, 0.0, 4, problem.tau)
        h = s.h
        times = h * np.arange(9)
        states = np.stack([problem.exact(t) for t in times])
        traj = solver.Trajectory(times=times, states=states, scheme=s)
        for comp in (0, 1):
            assert problem.discrete_error(traj.final_state, times[-1], comp) == 0.0

    def test_requires_exact(self):
        problem = mol.build_example2(4, 0.5, 3.0, 1.0)
        s = stability.ThetaScheme(1.0, 0.0, 4, 1.0)
        traj = solver.solve_semilinear(problem.dde, s, 1.0)
        with pytest.raises(errors.InvalidParams):
            problem.discrete_error(traj.final_state, 1.0, 0)
