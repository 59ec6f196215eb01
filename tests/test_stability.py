import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddestab import errors, linalg, stability
from ddestab.stability import NEG_INF, ThetaScheme, gamma_y, in_dy


def scheme(theta=1.0, u=0.0, m=2, tau=1.0):
    return ThetaScheme(theta=theta, u=u, m=m, tau=tau)


def abc_at(z, theta, u, m):
    """Direct evaluation of the three scalar polynomials at a point."""
    a = z ** (m + 1) - z ** m
    b = theta * (u * z ** 2 + (1 - u) * z) + (1 - theta) * (u * z + (1 - u))
    c = theta * z ** (m + 1) + (1 - theta) * z ** m
    return a, b, c


class TestScheme:
    def test_h_matches_delay_identity(self):
        s = scheme(theta=0.7, u=0.4, m=5, tau=2.3)
        assert abs((s.m - s.u) * s.h - s.tau) <= 1e-14 * s.tau

    @pytest.mark.parametrize("kwargs", [
        dict(theta=1.2), dict(theta=-0.1), dict(u=1.0), dict(u=-0.2),
        dict(m=0), dict(m=2, u=0.5), dict(tau=0.0), dict(tau=-1.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        base = dict(theta=1.0, u=0.0, m=4, tau=1.0)
        base.update(kwargs)
        with pytest.raises(errors.InvalidParams):
            ThetaScheme(**base)

    def test_m1_allowed_without_interpolation(self):
        assert scheme(m=1).h == 1.0


class TestStabilityPolynomial:
    def test_matches_direct_evaluation(self, rng):
        # oracle: P(z) = a(z) - y c(z) + y mu b(z) evaluated from powers
        for _ in range(200):
            theta = rng.uniform(0.0, 1.0)
            u = rng.choice([0.0, rng.uniform(0.0, 1.0)])
            m = int(rng.integers(3, 9))
            y = -(10.0 ** rng.uniform(-2, 2))
            mu = rng.normal() + 1j * rng.normal()
            z = rng.normal() + 1j * rng.normal()
            poly = stability.stability_polynomial(scheme(theta, u, m), y, mu)
            a, b, c = abc_at(z, theta, u, m)
            direct = a - y * c + y * mu * b
            via_coeffs = np.polyval(poly.coeffs[::-1], z)
            assert abs(via_coeffs - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_reduced_polynomial_matches_direct(self, rng):
        for _ in range(100):
            theta = rng.uniform(0.1, 1.0)
            m = int(rng.integers(1, 8))
            mu = rng.normal() + 1j * rng.normal()
            z = rng.normal() + 1j * rng.normal()
            poly = stability.stability_polynomial(scheme(theta, 0.0, m), NEG_INF, mu)
            a, b, c = abc_at(z, theta, 0.0, m)
            assert abs(np.polyval(poly.coeffs[::-1], z) - (c - mu * b)) <= 1e-10

    def test_leading_coefficient_positive(self):
        poly = stability.stability_polynomial(scheme(theta=0.8, m=3), -5.0, 1.0)
        assert poly.coeffs[-1].real == 1.0 + 5.0 * 0.8

    def test_rejects_nonnegative_y(self):
        with pytest.raises(errors.InvalidParams):
            stability.stability_polynomial(scheme(), 0.5, 0.0)


class TestInDy:
    def test_mu_zero_implicit_euler(self):
        # roots are 0 (multiplicity m) and 1/(1 - y)
        for m in (1, 2, 5, 10):
            res = in_dy(0.0, -1.0, scheme(m=m))
            assert res.inside
            assert abs(res.max_root_modulus - 0.5) <= 1e-12

    def test_neg_inf_is_unit_disk_for_theta_1(self, rng):
        s = scheme(theta=1.0, m=4)
        for _ in range(100):
            mu = (rng.normal() + 1j * rng.normal()) * 0.7
            assert in_dy(mu, NEG_INF, s).inside == (abs(mu) < 1.0 - 1e-9)
        assert not in_dy(1.5 + 0j, NEG_INF, s).inside

    def test_benchmark_mu2_outside_at_m50(self):
        s = scheme(theta=1.0, m=50, tau=1.0)
        res = in_dy(-24.0 / 23.0, -s.h * 23.0, s)
        assert not res.inside

    def test_boundary_point_is_marginal(self):
        # a Gamma_y point at small alpha lies on the D_y boundary proper:
        # e^{i alpha} is a root of modulus exactly 1 and the rest are inside
        s = scheme(theta=1.0, m=3, tau=1.0)
        boundary = gamma_y(s, -2.0, 64)
        mid = len(boundary.alphas) // 2
        mu = complex(boundary.mus[mid + 1])
        res = in_dy(mu, -2.0, s)
        assert res.marginal

    def test_huge_step_keeps_the_leading_root(self):
        # theta = 0, y = -1e15: the z^3 coefficient 1 is 1e-15 of the
        # largest one, yet the root near -1e15 is the one that decides
        res = in_dy(0.5, -1e15, scheme(theta=0.0, m=2))
        assert not res.inside
        assert res.max_root_modulus == pytest.approx(1e15, rel=1e-9)

    def test_supports_interpolated_delays(self):
        s = scheme(theta=1.0, u=0.5, m=4)
        assert in_dy(0.1 + 0.1j, -1.0, s).inside
        assert not in_dy(5.0 + 0j, -1.0, s).inside


class TestGammaY:
    def test_alpha_zero_maps_to_one_exactly(self):
        for theta in (0.6, 0.75, 1.0):
            for y in (-0.05, -1.0, -40.0):
                b = gamma_y(scheme(theta=theta, m=4), y, 64)
                mid = len(b.alphas) // 2
                assert b.alphas[mid] == 0.0
                assert b.mus[mid] == 1.0 + 0.0j

    def test_m1_circle(self):
        # theta = 1, m = 1, y = -1: circle with center 1/y, radius 1 - 1/y
        b = gamma_y(scheme(theta=1.0, m=1), -1.0, 128)
        assert np.max(np.abs(np.abs(b.mus - (-1.0)) - 2.0)) <= 1e-12

    def test_closed_form_real_imag_parts(self, rng):
        # theta = 1: mu = (1/y) e^{i(m-1)a} (1 + e^{ia}(y-1))
        m, y = 2, -2.0
        s = scheme(theta=1.0, m=m)
        for alpha in rng.uniform(-np.pi, np.pi, 100):
            z = np.exp(1j * alpha)
            denom = y * (1.0 - s.theta + z * s.theta)
            mu = z ** m * (1.0 - z + denom) / denom
            re = (math.cos((m - 1) * alpha) + (y - 1) * math.cos(m * alpha)) / y
            im = (math.sin((m - 1) * alpha) + (y - 1) * math.sin(m * alpha)) / y
            assert abs(mu.real - re) <= 1e-12
            assert abs(mu.imag - im) <= 1e-12

    def test_conjugate_symmetry_exact(self):
        b = gamma_y(scheme(theta=0.8, m=5), -3.0, 128)
        assert np.max(np.abs(b.mus[::-1] - np.conj(b.mus))) == 0.0

    def test_requires_u_zero(self):
        with pytest.raises(errors.UnsupportedScheme):
            gamma_y(scheme(theta=1.0, u=0.5, m=4), -1.0, 64)

    def test_modulus_increases_with_alpha(self):
        # strict growth of |mu(alpha, y)| in |alpha| (theta = 1, u = 0)
        alphas = np.linspace(0.0, np.pi, 201)[1:]
        for m in (1, 2, 5):
            for y in (-0.05, -1.0, -10.0):
                z = np.exp(1j * alphas)
                mus = z ** m * (1.0 - z + y * z) / (y * z)
                mods = np.abs(mus)
                assert np.all(np.diff(mods) > 0.0)

    def test_modulus_increases_with_y(self):
        # y1 < y2 < 0 gives |mu(alpha, y1)| < |mu(alpha, y2)| off alpha = 0
        alphas = np.linspace(0.0, np.pi, 201)[1:]
        z = np.exp(1j * alphas)
        for m in (1, 3):
            for y1, y2 in ((-10.0, -2.0), (-2.0, -0.5), (-0.5, -0.05)):
                mod1 = np.abs(z ** m * (1.0 - z + y1 * z) / (y1 * z))
                mod2 = np.abs(z ** m * (1.0 - z + y2 * z) / (y2 * z))
                assert np.all(mod1 < mod2)


class TestCompanionMatrix:
    def test_scalar_decay_eigenvalues(self):
        # N=1, A=1, B=0, theta=1, h=1, m=1: y_{n+1} = y_n / 2
        w = stability.build_w(np.array([[1.0]]), np.array([[0.0]]),
                              scheme(theta=1.0, m=1, tau=1.0))
        vals = np.sort(np.abs(linalg.general_eigenvalues(w)))
        assert_allclose(vals, [0.0, 0.5], atol=1e-12)

    def test_scalar_delayed_closed_form(self, rng):
        # m=1, h=1, theta=1: nonzero eigenvalue is (1 + b)/2
        for _ in range(25):
            b = rng.uniform(-4.0, 4.0)
            verdict = stability.oracle_stability(
                np.array([[1.0]]), np.array([[b]]), scheme(theta=1.0, m=1, tau=1.0))
            assert abs(verdict.spectral_radius - abs(1.0 + b) / 2.0) <= 1e-12
            if abs(abs(1.0 + b) - 2.0) > 1e-6:
                assert verdict.stable == (abs(1.0 + b) < 2.0)

    def test_benchmark_verdicts(self):
        a = np.array([[29.0, -7.0, 1.0], [3.0, 27.0, -7.0], [3.0, 9.0, 11.0]])
        b = np.array([[-30.0, -27.0, 33.0], [-3.0, -96.0, 75.0], [-3.0, -111.0, 90.0]])
        assert stability.oracle_stability(a, b, scheme(m=2)).stable
        v50 = stability.oracle_stability(a, b, scheme(m=50))
        assert v50.spectral_radius >= 1.0
        assert v50.certified_unstable

    def test_dimension_and_shift_structure(self, rng):
        n, m = 3, 4
        a = rng.standard_normal((n, n)) + 3 * np.eye(n)
        b = rng.standard_normal((n, n))
        w = stability.build_w(a, b, scheme(theta=0.6, m=m, tau=2.0))
        assert w.shape == ((m + 1) * n, (m + 1) * n)
        for r in range(1, m + 1):
            assert_allclose(w[r * n:(r + 1) * n, (r - 1) * n:r * n], np.eye(n))
            block = w[r * n:(r + 1) * n].copy()
            block[:, (r - 1) * n:r * n] -= np.eye(n)
            assert np.max(np.abs(block)) == 0.0

    def test_scalar_roots_match_stability_polynomial(self, rng):
        # characteristic roots of W = roots of P plus structural zeros
        for _ in range(20):
            a_val = rng.uniform(0.2, 4.0)
            b_val = rng.uniform(-3.0, 3.0)
            h = rng.uniform(0.05, 1.5)
            m = int(rng.integers(1, 7))
            s = ThetaScheme(theta=1.0, u=0.0, m=m, tau=m * h)
            w = stability.build_w(np.array([[a_val]]), np.array([[b_val]]), s)
            eig_w = np.sort(np.abs(linalg.general_eigenvalues(w)))[::-1]
            roots = np.sort(np.abs(stability.stability_polynomial(
                s, -h * a_val, b_val / a_val).roots()))[::-1]
            assert np.max(np.abs(eig_w[:len(roots)] - roots)) <= 1e-8


class TestReportSerialization:
    def test_json_round_trip(self):
        import json

        rep = stability.StabilityReport(
            stability.UNCERTIFIED,
            (stability.Evidence("check-name", index=0.0, margin=0.5, note="n"),),
            scheme())
        doc = json.loads(rep.to_json())
        assert doc["verdict"] == "Uncertified"
        assert doc["evidence"][0]["check"] == "check-name"
        assert doc["scheme"]["m"] == 2

    def test_region_csv(self, tmp_path):
        b = gamma_y(scheme(theta=1.0, m=2), -2.0, 64)
        path = tmp_path / "gamma.csv"
        b.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha,re,im"
        assert len(lines) == len(b.alphas) + 1
