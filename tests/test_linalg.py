import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddestab import errors, linalg, stability
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


class TestSquarePair:
    def test_returns_both_matrices(self):
        a, b = linalg.square_pair([[2.0]], np.array([[1j]]))
        assert a.shape == b.shape == (1, 1) and b[0, 0] == 1j

    @pytest.mark.parametrize("b, message", [
        (np.eye(3), "A and B shapes differ"),
        (np.ones((2, 3)), "expected a square matrix"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "NaN or Inf"),
        (1e308 * np.array([[0.5, 0.9], [0.9, 0.5]]), "scaled norm overflows"),
    ], ids=["shapes-differ", "not-square", "not-finite", "norm-overflows"])
    def test_rejects(self, b, message):
        with pytest.raises(errors.InvalidParams, match=message):
            linalg.square_pair(np.eye(2), b)


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


class TestRequirePositiveDefinite:
    def test_returns_the_given_decomposition(self):
        a = np.diag([1.0, 2.0])
        dec = linalg.hermitian_eigen(a)
        assert linalg.require_positive_definite(a, dec) is dec
        assert_allclose(linalg.require_positive_definite(a).values, [1.0, 2.0])

    @pytest.mark.parametrize("d", [[1.0, -1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1e-13]],
                             ids=["indefinite", "singular", "zero", "below-floor"])
    def test_rejects_at_or_below_the_floor(self, d):
        # the floor is PD_TOL * scaled_norm(A) = 2e-12 for these A
        with pytest.raises(errors.NotPositiveDefinite, match="smallest eigenvalue"):
            linalg.require_positive_definite(np.diag(d))

    def test_rejects_non_hermitian(self):
        with pytest.raises(errors.NotHermitian):
            linalg.require_positive_definite(np.array([[1.0, 2.0], [0.0, 1.0]]))


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
        via_poly = linalg.poly_roots([characteristic_polynomial(m)])[0]
        assert multiset_distance(direct, via_poly) <= 1e-8


class TestPolyRoots:
    def test_quadratic(self):
        roots = np.sort_complex(linalg.poly_roots([[-1.0, 0.0, 1.0]])[0])
        assert_allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_stability_polynomial_case(self):
        # P for mu=0, theta=1, u=0, m=2, y=-1: roots {0, 0, 1/2}
        coeffs = [0.0, 0.0, -1.0, 2.0]
        roots = np.sort(np.abs(linalg.poly_roots([coeffs])[0]))
        assert_allclose(roots, [0.0, 0.0, 0.5], atol=1e-12)

    def test_recovers_random_roots_degree_8(self, rng):
        true_roots = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
        coeffs = np.poly(true_roots)[::-1]  # constant-first
        got = linalg.poly_roots([coeffs])[0]
        assert multiset_distance(got, true_roots) <= 1e-6

    def test_random_multisets_up_to_degree_10(self, rng):
        for _ in range(50):
            deg = int(rng.integers(1, 11))
            radii = np.sqrt(rng.uniform(0.0, 4.0, deg))
            true_roots = radii * np.exp(2j * np.pi * rng.uniform(size=deg))
            coeffs = np.poly(true_roots)[::-1]
            got = linalg.poly_roots([coeffs])[0]
            assert multiset_distance(got, true_roots) <= 1e-6

    def test_companion_stack_too_large_is_refused(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(linalg.np, "zeros", refuse)
        with pytest.raises(errors.InvalidParams, match="cannot allocate a stack of 1 "
                                                       "companion matrices of size 2"):
            linalg.poly_roots([[-1.0, 0.0, 1.0]])



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
        got = linalg.poly_roots(coeffs)
        assert got.shape == (20, 6)
        for row, roots in zip(coeffs, got):
            # numpy.roots takes the leading coefficient first
            assert multiset_distance(roots, np.roots(row[::-1])) <= 1e-10

    def test_keeps_small_leading_coefficient(self):
        roots = linalg.poly_roots([[-1.0, 0.0, 1.0, 1e-20]])
        assert roots.shape == (1, 3)
        assert np.max(np.abs(roots)) == pytest.approx(1e20, rel=1e-9)

    def test_zero_leading_coefficient(self):
        with pytest.raises(errors.DegenerateLeading):
            linalg.poly_roots([[1.0, 2.0], [1.0, 0.0]])

    @pytest.mark.parametrize("row", [[1e300, 0.0, 1e-300], [1e300j, 1.0, 1e-300]],
                             ids=["real", "complex"])
    def test_overflowing_ratio_raises(self, row):
        # c_0 / c_2 overflows: no companion matrix, and no numpy warning
        with pytest.raises(errors.DegenerateLeading, match="overflows"):
            linalg.poly_roots([row])

    @staticmethod
    def mixed_stack(rng):
        """Real rows, conjugate pairs, exact duplicates and generic complex
        rows in a shuffled order; 6 distinct rows up to conjugation.  The
        paired rows end in real coefficients, as stability polynomials do,
        and both rows of a pair hold +0.0 imaginary parts there."""
        real = rng.standard_normal((2, 7)).astype(complex)
        paired = rng.standard_normal((2, 7)) + 1j * rng.standard_normal((2, 7))
        paired[:, -2:] = paired[:, -2:].real
        generic = rng.standard_normal((2, 7)) + 1j * rng.standard_normal((2, 7))
        rows = np.concatenate([real, real[:1], paired, paired.conj() + 0.0, paired[1:],
                               generic, generic[:1]])
        return rows[rng.permutation(len(rows))]

    def test_mixed_stack_matches_per_row_complex_companion(self, rng):
        for _ in range(5):
            coeffs = self.mixed_stack(rng)
            got = linalg.poly_roots(coeffs)
            for row, roots in zip(coeffs, got):
                # numpy.roots takes the leading coefficient first
                assert multiset_distance(roots, np.roots(row[::-1])) <= 1e-10

    @staticmethod
    def patch_eigvals(monkeypatch, mutate):
        original = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: mutate(original(m)))

    @pytest.mark.parametrize("rows", [
        [[2.0, -3.0, 1.0], [2.0, -3.0, 1.0]],
        [[1.0 + 1j, 2.0, 1.0]],
    ], ids=["real", "complex"])
    def test_wrong_roots_raise(self, rows, monkeypatch):
        # the roots spread 10% away from their mean keep their sum, so the
        # trace check passes them and the residual check must fire
        def spread(values):
            mean = values.mean(axis=-1, keepdims=True)
            return mean + 1.1 * (values - mean)

        self.patch_eigvals(monkeypatch, spread)
        with pytest.raises(errors.NoConvergence, match="root residual"):
            linalg.poly_roots(rows)

    def test_wrong_huge_roots_raise_without_overflow(self, monkeypatch):
        # the roots +-1, +-2 of (z^2 - 1)(z^2 - 4) pushed out to +-1e102, in
        # sum still 0, the trace: (1 + |z|)^4 overflows, so an unscaled
        # bound would be inf and accept them
        self.patch_eigvals(monkeypatch, lambda values: values + 1e102 * np.sign(values.real))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.NoConvergence, match="root residual"):
                linalg.poly_roots([[4.0, 0.0, -5.0, 0.0, 1.0]])

    def test_huge_roots_pass_without_overflow(self):
        # the row of check-mode-root-overflow: 1.5 z^3 - z^2 + 5e205 z,
        # whose roots of modulus 5.8e102 make (1 + |z|)^3 overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = linalg.poly_roots([[0.0, 5e205, -1.0, 1.5]])
        assert np.max(np.abs(roots)) == pytest.approx((5e205 / 1.5) ** 0.5, rel=1e-12)


def lower_root_bound(coeffs):
    """r_lo = max_k |c_k / c_n|^{1/(n-k)}, with R in [r_lo, 2 r_lo)."""
    a = np.abs(np.asarray(coeffs))
    n = a.shape[1] - 1
    return np.max((a[:, :-1] / a[:, -1:]) ** (1.0 / (n - np.arange(n))), axis=1)


class TestRootModulusBounds:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 101])
    def test_pure_power_gives_the_root_modulus(self, rng, n):
        # every root of c_n z^n - c has modulus |c / c_n|^{1/n}
        for c, lead in ((rng.standard_normal() + 1j * rng.standard_normal(), 1.0),
                        (3.7e5, -2.5), (1e-30j, 1e-8)):
            row = np.zeros(n + 1, dtype=complex)
            row[0], row[-1] = -c, lead
            got = linalg.root_modulus_bounds([row])[0]
            assert got == pytest.approx(abs(c / lead) ** (1.0 / n), rel=1e-12)

    @staticmethod
    def seeded_rows(gen, kind):
        n = int(gen.integers(1, 40))
        rows = gen.standard_normal((12, n + 1))
        if kind in ("complex", "sparse"):
            rows = rows + 1j * gen.standard_normal((12, n + 1))
        rows *= np.exp(gen.uniform(-8.0, 8.0, rows.shape))
        if kind == "sparse":  # about 4 in 5 lower columns zero, never all of them
            zero = gen.random(n) < 0.8
            zero[gen.integers(n)] = False
            rows[:, :-1][:, zero] = 0.0
        return rows

    @pytest.mark.parametrize("kind", ["real", "complex", "sparse"])
    def test_bounds_every_root_and_stays_below_twice_r_lo(self, kind):
        gen = np.random.default_rng(["real", "complex", "sparse"].index(kind))
        for _ in range(40):
            rows = self.seeded_rows(gen, kind)
            got = linalg.root_modulus_bounds(rows)
            radii = np.max(np.abs(linalg.poly_roots(rows)), axis=1)
            assert np.all(got >= radii)
            r_lo = lower_root_bound(rows)
            assert np.all(r_lo <= got) and np.all(got <= 2.0 * r_lo)

    @pytest.mark.parametrize("theta, u", [(0.5, 0.5), (0.75, 0.0), (1.0, 0.0), (1.0, 0.5)])
    def test_bounds_stability_polynomial_rows(self, rng, theta, u):
        # at theta = 1 the constant term of every row is 0
        for m in (3, 12, 50):
            s = stability.ThetaScheme(theta=theta, u=u, m=m, tau=1.0)
            mus = rng.uniform(-2.0, 2.0, 30) + 1j * rng.uniform(-2.0, 2.0, 30)
            mus[:10] = mus[:10].real
            rows = stability._coefficient_rows(-rng.uniform(0.01, 20.0, 30), mus, s)
            got = linalg.root_modulus_bounds(rows)
            radii = np.max(np.abs(linalg.poly_roots(rows)), axis=1)
            assert np.all(got >= radii)
            assert np.all(got <= 2.0 * lower_root_bound(rows))

    def test_conjugate_rows_get_equal_bounds(self, rng):
        row = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        got = linalg.root_modulus_bounds([row, row.conj(), row])
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("rows", [
        [[1e308, 1e-308]],         # the root -1e616 overflows
        [[1.0, 2.0, 0.0]],         # zero leading coefficient
        [[np.nan, 0.0, 1.0]],
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]],  # a row whose lower part is 0
    ], ids=["overflow", "zero-leading", "nan", "zero-lower-part"])
    def test_inf_never_a_finite_wrong_bound(self, rows):
        assert linalg.root_modulus_bounds(rows)[0] == np.inf

    def test_rejects_malformed_rows(self):
        with pytest.raises(errors.InvalidParams):
            linalg.root_modulus_bounds(np.ones(3))


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
