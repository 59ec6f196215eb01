import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from ddestab import errors, fov, linalg

from conftest import (
    convex_hull,
    hausdorff_distance,
    hull_margin,
    point_polygon_distance,
    random_complex,
    random_unit_vector,
)


def brute_force_radius_2x2(m, n_grid=2000):
    """Independent oracle for 2x2 matrices: max |x* M x| over the unit
    sphere parametrized as (cos t, e^{i phi} sin t)."""
    best = 0.0
    ts = np.linspace(0.0, np.pi / 2.0, n_grid)
    phis = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    for t in ts:
        x0, s = np.cos(t), np.sin(t)
        xs = np.stack([np.full_like(phis, x0), s * np.exp(1j * phis)])
        vals = np.einsum("ik,ij,jk->k", xs.conj(), m, xs)
        best = max(best, float(np.max(np.abs(vals))))
    return best


def reference_sweep(m, n_angles):
    """Boundary points and largest eigenvalues of the Hermitian parts,
    one full np.linalg.eigh per angle, no symmetry used."""
    points, lams = [], []
    for phi in 2.0 * np.pi * np.arange(n_angles) / n_angles:
        rotated = np.exp(1j * phi) * m
        values, vectors = np.linalg.eigh(0.5 * (rotated + rotated.conj().T))
        x = vectors[:, -1]
        points.append(x.conj() @ m @ x)
        lams.append(values[-1])
    return np.array(points), np.array(lams)


def fine_radius(m, n_angles=20000):
    """Numerical radius as max over a fine angle grid of lambda_max(H(phi))."""
    phis = 2.0 * np.pi * np.arange(n_angles) / n_angles
    rotated = np.exp(1j * phis)[:, None, None] * m[None, :, :]
    herm = 0.5 * (rotated + np.conj(np.swapaxes(rotated, 1, 2)))
    return float(np.max(np.linalg.eigvalsh(herm)[:, -1]))


class TestBoundary:
    def test_identity_collapses_to_point(self):
        b = fov.fov_boundary(np.eye(3), 16)
        assert np.max(np.abs(b.points - 1.0)) <= 1e-12

    def test_hermitian_diag_segment(self):
        b = fov.fov_boundary(np.diag([1.0, 2.0]), 64)
        assert np.max(np.abs(b.points.imag)) <= 1e-12
        assert abs(min(b.points.real) - 1.0) <= 1e-9
        assert abs(max(b.points.real) - 2.0) <= 1e-9

    def test_normal_matrix_hull_is_spectral_triangle(self, rng):
        spectrum = np.array([1.0, 1j, -1.0])
        q, _ = np.linalg.qr(random_complex(rng, 3))
        m = (q * spectrum[None, :]) @ q.conj().T
        b = fov.fov_boundary(m, 256)
        assert hausdorff_distance(b.points, spectrum) <= 1e-8

    def test_rejects_tiny_sweep(self):
        with pytest.raises(errors.InvalidParams):
            fov.fov_boundary(np.eye(2), 4)

    @pytest.mark.parametrize("n_angles", [256, 101])
    def test_real_matrix_matches_per_angle_reference(self, n_angles):
        # real M: half of the angles are solved, the rest mirrored
        m = np.random.default_rng(7).standard_normal((40, 40))
        b = fov.fov_boundary(m, n_angles)
        points, lams = reference_sweep(m, n_angles)
        assert b.points.shape == (n_angles,)
        assert np.max(np.abs(b.points - points)) <= 1e-10
        assert np.all(b.support >= lams)
        assert np.max(b.support - lams) <= 1e-10

    def test_complex_matrix_matches_per_angle_reference(self, rng):
        m = random_complex(rng, 12)
        b = fov.fov_boundary(m, 64)
        points, lams = reference_sweep(m, 64)
        assert np.max(np.abs(b.points - points)) <= 1e-10
        assert np.all(b.support >= lams)
        assert np.max(b.support - lams) <= 1e-10

    def test_angles_are_equispaced(self):
        b = fov.fov_boundary(np.eye(2), 32)
        assert_allclose(b.angles, 2 * np.pi * np.arange(32) / 32)


class TestNumericalRadius:
    def test_identity(self):
        assert abs(fov.numerical_radius(np.eye(4)) - 1.0) <= 1e-12

    def test_jordan_block_is_half(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        r = fov.numerical_radius(m, 256)
        assert abs(r - 0.5) <= 1e-6
        assert abs(brute_force_radius_2x2(m) - 0.5) <= 1e-4

    def test_at_least_spectral_radius(self, rng):
        for _ in range(20):
            m = random_complex(rng, 6)
            rho = np.max(np.abs(linalg.general_eigenvalues(m)))
            assert fov.numerical_radius(m, 64) >= rho - 1e-8

    def test_equals_spectral_radius_for_normal(self, rng):
        q, _ = np.linalg.qr(random_complex(rng, 4))
        spectrum = np.array([0.3, -1.2, 0.5j, 1.0 + 0.4j])
        m = (q * spectrum[None, :]) @ q.conj().T
        assert abs(fov.numerical_radius(m) - np.max(np.abs(spectrum))) <= 1e-8


class TestOuterRadius:
    def test_jordan_block(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        for n in (8, 64, 256):
            outer = fov.fov_boundary(m, n).outer_radius()
            assert outer >= fov.numerical_radius(m, n)
            assert outer >= brute_force_radius_2x2(m)
            assert outer <= 0.5 / np.cos(np.pi / n) + 1e-12

    def test_random_complex_encloses_inner_estimates(self, rng):
        for _ in range(20):
            m = random_complex(rng, 6)
            outer = fov.fov_boundary(m, 64).outer_radius()
            assert outer >= fov.numerical_radius(m, 64)
            assert outer >= fine_radius(m)


def seeded_matrices(seed=20261019):
    """Real and complex, normal and non-normal M at N = 2 .. 40, each scaled
    to numerical radius about 1, where refining against the unit disk
    takes the most directions."""
    gen = np.random.default_rng(seed)
    for n in (2, 7, 40):
        q, _ = np.linalg.qr(gen.standard_normal((n, n)))
        u, _ = np.linalg.qr(random_complex(gen, n))
        # real normal: 2x2 rotation-scaling blocks, so the spectrum is complex
        blocks = np.zeros((n, n))
        for k in range(0, n - 1, 2):
            r, t = gen.uniform(0.2, 1.0), gen.uniform(0.0, np.pi)
            blocks[k:k + 2, k:k + 2] = r * np.array([[np.cos(t), -np.sin(t)],
                                                     [np.sin(t), np.cos(t)]])
        if n % 2:
            blocks[-1, -1] = gen.uniform(-1.0, 1.0)
        spectrum = gen.uniform(0.2, 1.0, n) * np.exp(2j * np.pi * gen.uniform(size=n))
        for m in (gen.standard_normal((n, n)), random_complex(gen, n),
                  q @ blocks @ q.T, (u * spectrum) @ u.conj().T):
            yield m / fine_radius(m, 512)


@pytest.fixture(scope="module")
def fine_references():
    """Each seeded M with the largest |z| of its 4096-direction sweep and
    its spectral radius."""
    return [(m, fov.fov_boundary(m, 4096).max_modulus(),
             float(np.max(np.abs(linalg.general_eigenvalues(m)))))
            for m in seeded_matrices()]


class TestAdaptiveOuterRadius:
    @pytest.mark.parametrize("n_angles", [8, 9, 13, 64, 256])
    def test_encloses_the_fine_sweep_and_the_spectrum(self, n_angles, fine_references):
        for m, fine, rho in fine_references:
            for radius in (0.9, 1.0, 1.02, 2.0):
                outer = fov.fov_boundary(m, n_angles, radius).outer_radius()
                assert outer >= fine and outer >= rho, (n_angles, radius)

    @pytest.mark.parametrize("n_angles", [8, 9, 13, 64, 256])
    def test_full_grid_is_johnsons_bound_bit_for_bit(self, n_angles):
        for m in seeded_matrices():
            b = fov.fov_boundary(m, n_angles)
            assert b.indices.tolist() == list(range(n_angles))
            want = float(np.max(b.support)) / math.cos(math.pi / n_angles)
            assert b.outer_radius() == want

    @pytest.mark.parametrize("n_angles", [9, 64, 100])
    def test_stops_where_the_disk_test_is_decided(self, n_angles):
        # below the radius, or a point outside it, or every arc whose bound
        # is not below it is one grid step wide
        for m in seeded_matrices():
            for radius in (0.9, 1.02, 2.0):
                b = fov.fov_boundary(m, n_angles, radius)
                gaps = np.diff(b.indices, append=b.indices[0] + n_angles)
                arcs = (np.maximum(b.support, np.roll(b.support, -1))
                        / np.cos(np.pi * gaps / n_angles))
                assert (b.outer_radius() < radius or b.max_modulus() >= radius
                        or np.all(gaps[arcs >= radius] == 1)), (n_angles, radius)

    @pytest.mark.parametrize("n_angles", [9, 64, 100])
    def test_completed_is_the_full_sweep(self, n_angles):
        for m in seeded_matrices():
            full = fov.fov_boundary(m, n_angles)
            done = fov.fov_boundary(m, n_angles, 1.0).completed()
            for name in ("points", "angles", "support", "indices"):
                assert getattr(done, name).tobytes() == getattr(full, name).tobytes()

    def test_solves_each_direction_at_most_once(self, monkeypatch):
        # a real M solves only the directions 0 .. pi; completing a refined
        # sweep solves the rest of them and none again
        m = np.random.default_rng(2).standard_normal((10, 10))
        m /= fine_radius(m, 512)
        solved = []
        original = linalg.largest_eigenpair
        monkeypatch.setattr(linalg, "largest_eigenpair",
                            lambda h: solved.append(h.tobytes()) or original(h))
        refined = fov.fov_boundary(m, 64, 1.0)
        assert len(solved) < 33
        refined.completed()
        assert len(solved) == len(set(solved)) == 33


class TestTransformed:
    def test_identity_a_reduces_to_plain_boundary(self, rng):
        b_mat = random_complex(rng, 3)
        direct = fov.fov_boundary(b_mat, 64)
        routed = fov.fov_boundary(fov.transformed_matrix(np.eye(3), b_mat, 1.0), 64)
        assert np.max(np.abs(direct.points - routed.points)) <= 1e-10

    def test_p0_and_p2_products(self, rng):
        # p = 0 gives A^{-1} B, p = 2 gives B A^{-1}; valid for
        # nonsingular non-Hermitian A as well
        a = random_complex(rng, 4) + 4.0 * np.eye(4)
        b = random_complex(rng, 4)
        assert np.max(np.abs(fov.transformed_matrix(a, b, 0.0)
                             - np.linalg.inv(a) @ b)) <= 1e-10
        assert np.max(np.abs(fov.transformed_matrix(a, b, 2.0)
                             - b @ np.linalg.inv(a))) <= 1e-10

    def test_fractional_p_matches_explicit_powers(self, rng):
        from conftest import random_spd

        a = random_spd(rng, 4)
        b = random_complex(rng, 4)
        got = fov.transformed_matrix(a, b, 1.0)
        half = scipy.linalg.fractional_matrix_power(a, -0.5)
        assert np.max(np.abs(got - half @ b @ half)) <= 1e-9

    def test_commuting_diagonal_case_is_segment(self):
        a = np.diag([1.0, 4.0])
        b = np.diag([2.0, 2.0])
        for p in (0.0, 1.0, 2.0):
            boundary = fov.fov_boundary(fov.transformed_matrix(a, b, p), 64)
            assert np.max(np.abs(boundary.points.imag)) <= 1e-10
            assert abs(min(boundary.points.real) - 0.5) <= 1e-9
            assert abs(max(boundary.points.real) - 2.0) <= 1e-9

    def test_non_hermitian_fractional_p_rejected(self, rng):
        a = random_complex(rng, 3) + 4.0 * np.eye(3)
        with pytest.raises(errors.NotHermitian, match="^p = 1 needs a Hermitian positive"):
            fov.transformed_matrix(a, np.eye(3), 1.0)

    def test_indefinite_fractional_p_rejected(self):
        with pytest.raises(errors.NotPositiveDefinite, match="^p = 0.5 needs a Hermitian"):
            fov.transformed_matrix(np.diag([1.0, -1.0]), np.eye(2), 0.5)

    def test_given_decomposition_is_not_recomputed(self, rng, monkeypatch):
        from conftest import random_spd

        a = random_spd(rng, 4)
        b = random_complex(rng, 4)
        dec = linalg.hermitian_eigen(a)
        want = fov.transformed_matrix(a, b, 1.0)
        monkeypatch.setattr(linalg, "hermitian_eigen", None)
        assert np.array_equal(fov.transformed_matrix(a, b, 1.0, dec), want)


def assert_spectrum_within_support(m, n_angles):
    """Every eigenvalue satisfies each supporting-line bound of the sweep."""
    b = fov.fov_boundary(m, n_angles)
    lam = linalg.general_eigenvalues(m)
    projected = (np.exp(1j * b.angles)[:, None] * lam[None, :]).real
    assert np.all(projected <= b.support[:, None])


class TestSpectrumContainment:
    def test_diagonal(self):
        assert_spectrum_within_support(np.diag([1.0, 2.0]), 256)

    def test_jordan_block(self):
        assert_spectrum_within_support(np.array([[0.0, 1.0], [0.0, 0.0]]), 256)

    def test_random_8x8(self, rng):
        for _ in range(10):
            assert_spectrum_within_support(random_complex(rng, 8), 64)


class TestHullHelpers:
    def test_degenerate_point(self):
        hull = convex_hull([1 + 1j, 1 + 1j, 1 + 1j])
        assert len(hull) == 1
        assert point_polygon_distance(hull, 1 + 1j) <= 1e-12
        assert not point_polygon_distance(hull, 1.5 + 1j) <= 1e-6

    def test_degenerate_segment(self):
        hull = convex_hull([0j, 1 + 1j, 0.5 + 0.5j])
        assert len(hull) == 2
        assert point_polygon_distance(hull, 0.25 + 0.25j) <= 1e-12
        assert not point_polygon_distance(hull, 0.5 + 0.6j) <= 1e-3

    def test_square_margins(self):
        pts = np.array([0j, 1 + 0j, 1 + 1j, 1j])
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert abs(hull_margin(hull, 0.5 + 0.5j) - 0.5) <= 1e-12
        assert hull_margin(hull, 2 + 0.5j) < 0
        assert abs(point_polygon_distance(hull, 2 + 0.5j) - 1.0) <= 1e-12

    def test_collinear_interior_points_dropped(self):
        pts = np.array([0j, 0.5 + 0j, 1 + 0j, 1 + 1j, 0.5 + 1j, 1j])
        assert len(convex_hull(pts)) == 4


def test_csv_dump(tmp_path):
    b = fov.fov_boundary(np.diag([1.0, 2.0]), 16)
    path = tmp_path / "fov.csv"
    b.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "angle,re,im"
    assert len(lines) == 17
    angle, re, im = map(float, lines[1].split(","))
    assert angle == 0.0 and abs(re - 2.0) <= 1e-9 and abs(im) <= 1e-12
