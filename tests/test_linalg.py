import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddestab import errors, linalg
from ddestab.mol import dirichlet_laplacian

from conftest import multiset_distance, random_complex, random_hermitian, random_spd


def characteristic_polynomial(m):
    """Faddeev-LeVerrier coefficients of det(zI - M), constant first.

    Independent of any eigenvalue solver: only matrix products and traces.
    """
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    work = np.array(m, dtype=complex)
    for k in range(1, n + 1):
        coeffs[n - k] = -np.trace(work) / k
        if k < n:
            work = m @ (work + coeffs[n - k] * np.eye(n))
    return coeffs


class TestHermitianEigen:
    def test_identity(self):
        dec = linalg.hermitian_eigen(np.eye(2))
        assert_allclose(dec.values, [1.0, 1.0])

    def test_diagonal(self):
        dec = linalg.hermitian_eigen(np.diag([1.0, 2.0]))
        assert_allclose(dec.values, [1.0, 2.0])
        assert_allclose(np.abs(dec.vectors), np.eye(2), atol=1e-14)

    def test_dirichlet_laplacian_closed_form(self):
        # M = 4 grid on [0, 1]: tridiagonal (-2, 1) scaled by M^2
        m_grid = 4
        l_mat = dirichlet_laplacian(m_grid - 1, 1.0 / m_grid)
        dec = linalg.hermitian_eigen(l_mat)
        k = np.arange(1, m_grid)
        expected = np.sort(-4.0 * m_grid ** 2 * np.sin(k * np.pi / (2 * m_grid)) ** 2)
        assert_allclose(dec.values, expected, rtol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(errors.NotHermitian):
            linalg.hermitian_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_orthonormal_vectors_and_reconstruction(self, rng):
        for n in (2, 7, 13, 20):
            for _ in range(25):
                m = random_hermitian(rng, n)
                dec = linalg.hermitian_eigen(m)
                gram = dec.vectors.conj().T @ dec.vectors
                assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
                rebuilt = (dec.vectors * dec.values[None, :]) @ dec.vectors.conj().T
                assert linalg.scaled_norm(rebuilt - m) <= 1e-9 * linalg.scaled_norm(m)


class TestLargestEigenpair:
    def test_matches_last_pair_of_full_eigh(self, rng):
        for n in (1, 2, 7, 20):
            for _ in range(10):
                m = random_hermitian(rng, n)
                lam, x = linalg.largest_eigenpair(m)
                values, vectors = np.linalg.eigh(m)
                assert abs(lam - values[-1]) <= 1e-12
                assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
                # same vector up to a unit phase factor
                assert abs(abs(vectors[:, -1].conj() @ x) - 1.0) <= 1e-10

    def test_real_symmetric_input(self):
        lam, x = linalg.largest_eigenpair(np.diag([3.0, -1.0, 2.0]))
        assert abs(lam - 3.0) <= 1e-14
        assert_allclose(np.abs(x), [1.0, 0.0, 0.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(errors.NotHermitian):
            linalg.largest_eigenpair(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestGeneralEigenvalues:
    def test_nilpotent(self):
        vals = linalg.general_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert_allclose(np.sort(np.abs(vals)), [0.0, 0.0], atol=1e-12)

    def test_benchmark_3x3_spectrum(self):
        a = np.array([[29.0, -7.0, 1.0], [3.0, 27.0, -7.0], [3.0, 9.0, 11.0]])
        vals = np.sort(linalg.general_eigenvalues(a).real)[::-1]
        assert_allclose(vals, [26.0, 23.0, 18.0], atol=1e-10)

    def test_matches_characteristic_polynomial_roots(self, rng):
        m = random_complex(rng, 5)
        direct = linalg.general_eigenvalues(m)
        via_poly = linalg.poly_roots(characteristic_polynomial(m))
        assert multiset_distance(direct, via_poly) <= 1e-8


class TestPolyRoots:
    def test_quadratic(self):
        roots = np.sort_complex(linalg.poly_roots([-1.0, 0.0, 1.0]))
        assert_allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_stability_polynomial_case(self):
        # P for mu=0, theta=1, u=0, m=2, y=-1: roots {0, 0, 1/2}
        coeffs = [0.0, 0.0, -1.0, 2.0]
        roots = np.sort(np.abs(linalg.poly_roots(coeffs)))
        assert_allclose(roots, [0.0, 0.0, 0.5], atol=1e-12)

    def test_recovers_random_roots_degree_8(self, rng):
        true_roots = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
        coeffs = np.poly(true_roots)[::-1]  # constant-first
        got = linalg.poly_roots(coeffs)
        assert multiset_distance(got, true_roots) <= 1e-6

    def test_random_multisets_up_to_degree_10(self, rng):
        for _ in range(50):
            deg = int(rng.integers(1, 11))
            radii = np.sqrt(rng.uniform(0.0, 4.0, deg))
            true_roots = radii * np.exp(2j * np.pi * rng.uniform(size=deg))
            coeffs = np.poly(true_roots)[::-1]
            got = linalg.poly_roots(coeffs)
            assert multiset_distance(got, true_roots) <= 1e-6

    def test_zero_polynomial(self):
        with pytest.raises(errors.ZeroPolynomial):
            linalg.poly_roots([0.0, 0.0])

    def test_degenerate_leading(self):
        with pytest.raises(errors.DegenerateLeading):
            linalg.poly_roots([5.0, 1e-20])

    def test_trims_negligible_leading(self):
        roots = linalg.poly_roots([-1.0, 0.0, 1.0, 1e-20])
        assert len(roots) == 2


class TestStackedEigenvalues:
    def test_rows_match_general_eigenvalues(self, rng):
        stack = np.stack([random_complex(rng, 4) for _ in range(6)])
        got = linalg.stacked_eigenvalues(stack)
        assert got.shape == (6, 4)
        for m, values in zip(stack, got):
            assert multiset_distance(values, linalg.general_eigenvalues(m)) <= 1e-12

    def test_rejects_non_square_stack(self):
        with pytest.raises(errors.InvalidParams):
            linalg.stacked_eigenvalues(np.zeros((2, 3, 4)))


class TestStackedPolyRoots:
    def test_rows_match_poly_roots(self, rng):
        coeffs = rng.standard_normal((20, 7)) + 1j * rng.standard_normal((20, 7))
        got = linalg.stacked_poly_roots(coeffs)
        assert got.shape == (20, 6)
        for row, roots in zip(coeffs, got):
            assert multiset_distance(roots, linalg.poly_roots(row)) <= 1e-10

    def test_keeps_small_leading_coefficient(self):
        roots = linalg.stacked_poly_roots([[-1.0, 0.0, 1.0, 1e-20]])
        assert roots.shape == (1, 3)
        assert np.max(np.abs(roots)) == pytest.approx(1e20, rel=1e-9)

    def test_zero_leading_coefficient(self):
        with pytest.raises(errors.DegenerateLeading):
            linalg.stacked_poly_roots([[1.0, 2.0], [1.0, 0.0]])



class TestLinearSolver:
    def test_identity(self):
        s = linalg.solver_for(np.eye(3))
        b = np.array([1.0, 2.0, 3.0])
        assert_allclose(s.solve(b), b)

    def test_diagonal(self):
        s = linalg.solver_for(np.diag([2.0, 4.0]))
        assert_allclose(s.solve(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_random_50x50_residual(self, rng):
        m = rng.standard_normal((50, 50)) + 5.0 * np.eye(50)
        s = linalg.solver_for(m)
        b = rng.standard_normal(50)
        x = s.solve(b)
        resid = np.linalg.norm(m @ x - b)
        bound = 1e-10 * (np.linalg.norm(m) * np.linalg.norm(x) + np.linalg.norm(b))
        assert resid <= bound

    def test_matrix_rhs(self, rng):
        m = random_complex(rng, 4) + 4.0 * np.eye(4)
        s = linalg.solver_for(m)
        b = random_complex(rng, 4)
        assert np.max(np.abs(m @ s.solve(b) - b)) <= 1e-10

    def test_singular_raises(self):
        with pytest.raises(errors.Singular):
            linalg.solver_for(np.array([[1.0, 1.0], [1.0, 1.0]]))
