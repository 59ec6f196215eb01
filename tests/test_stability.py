import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddestab import errors, linalg, stability
from ddestab.stability import ThetaScheme, gamma_y, in_dy

from conftest import multiset_distance


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
        dict(tau=math.inf), dict(m=math.nan), dict(m=math.inf),
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
        # oracle: P(z) = a(z) - y c(z) + y mu b(z) evaluated from powers.  A
        # row holds P(z) / s for a power of two s >= 1 within 4 |y| of |y|,
        # read off the leading coefficients, where the division is exact
        for _ in range(200):
            theta = rng.uniform(0.0, 1.0)
            u = rng.choice([0.0, rng.uniform(0.0, 1.0)])
            m = int(rng.integers(3, 9))
            y = -(10.0 ** rng.uniform(-2, 2))
            mu = rng.normal() + 1j * rng.normal()
            z = rng.normal() + 1j * rng.normal()
            coeffs = stability._coefficient_rows(
                np.array([y]), np.array([mu]), scheme(theta, u, m))[0]
            power = (1.0 - y * theta) / coeffs[-1].real
            assert math.frexp(power)[0] == 0.5 and 1.0 <= power <= 4.0 * max(1.0, -y)
            a, b, c = abc_at(z, theta, u, m)
            direct = a - y * c + y * mu * b
            via_coeffs = np.polyval(power * coeffs[::-1], z)
            assert abs(via_coeffs - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_leading_coefficient_positive(self):
        # y = -5: s = 16, the power of two with 1/4 <= |y| / s < 1
        coeffs = stability._coefficient_rows(
            np.array([-5.0]), np.array([1.0]), scheme(theta=0.8, m=3))[0]
        assert 16.0 * coeffs[-1].real == 1.0 + 5.0 * 0.8

    def test_rejects_nonnegative_y(self):
        with pytest.raises(errors.InvalidParams):
            in_dy(0.0, 0.5, scheme())


class TestInDy:
    def test_mu_zero_implicit_euler(self):
        # roots are 0 (multiplicity m) and 1/(1 - y)
        for m in (1, 2, 5, 10):
            res = in_dy(0.0, -1.0, scheme(m=m))
            assert res.inside
            assert abs(res.max_root_modulus - 0.5) <= 1e-12

    def test_large_step_is_unit_disk_for_theta_1(self, rng):
        # as y -> -inf the roots tend to 0 and the m-th roots of mu, so D_y
        # tends to the open unit disk; mu near the circle is left out
        s = scheme(theta=1.0, m=4)
        for _ in range(100):
            mu = (rng.normal() + 1j * rng.normal()) * 0.7
            if abs(abs(mu) - 1.0) > 1e-3:
                assert in_dy(mu, -1e8, s).inside == (abs(mu) < 1.0)
        assert not in_dy(1.5 + 0j, -1e8, s).inside

    @pytest.mark.parametrize("y", [0.0, 0.5, -math.inf, math.nan])
    def test_rejects_y_not_finite_negative(self, y):
        with pytest.raises(errors.InvalidParams):
            in_dy(0.1, y, scheme())

    @pytest.mark.parametrize("mu", [math.inf, complex(0.1, -math.inf), math.nan],
                             ids=["inf", "imaginary-inf", "nan"])
    def test_rejects_mu_not_finite(self, mu):
        # before any coefficient row is built, so no warning either
        with pytest.raises(errors.InvalidParams, match="mu must be finite"):
            in_dy(mu, -1.0, scheme())

    def test_overflowing_y_mu_is_outside(self):
        # y mu = -1e400 overflows; the row holds y / s and mu, and its
        # roots 0 and +-1e100 (z^2 = -y mu / (1 - y)) are finite
        res = in_dy(1e200, -1e200, scheme(theta=1.0, m=2))
        assert not res.inside
        assert res.max_root_modulus == pytest.approx(1e100, rel=1e-9)

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
        assert abs(res.margin) <= stability.ROOT_TOL and not res.inside

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


class TestDyRadiiSymmetry:
    @pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_conjugate_mu_gives_identical_radii(self, rng, theta, u):
        s = scheme(theta=theta, u=u, m=6)
        mus = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        ys = -rng.uniform(0.1, 10.0, 40)
        radii, solved = stability._dy_radii(ys, mus, s)
        radii_conj, solved_conj = stability._dy_radii(ys, mus.conj(), s)
        assert np.array_equal(radii_conj, radii)
        assert np.array_equal(solved_conj, solved)

    @pytest.mark.parametrize("theta, u", [(0.75, 0.5), (1.0, 0.0)])
    def test_equal_and_conjugate_rows_get_identical_radii(self, rng, theta, u,
                                                          monkeypatch):
        # the same (y, mu), its conjugate twin and a third copy: one row,
        # one solve, bit-identical radii
        s = scheme(theta=theta, u=u, m=8)
        mu = complex(rng.standard_normal(), rng.standard_normal())
        calls = counted_root_calls(monkeypatch)
        radii, solved = stability._dy_radii(-1.5, np.array([mu, mu.conjugate(), mu]), s)
        assert radii[0] == radii[1] == radii[2] and solved.all()
        assert [len(call) for call in calls] == [1]

    def test_each_distinct_row_solved_once(self, rng, monkeypatch):
        # with every bound inf, every row is in the first call: real mu,
        # duplicates, conjugate twins and generic mu in a shuffled order,
        # 6 distinct up to conjugation
        monkeypatch.setattr(linalg, "root_modulus_bounds", lambda c: np.full(len(c), np.inf))
        s = scheme(theta=0.5, u=0.5, m=6)
        real = rng.standard_normal(2)
        paired = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        generic = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        mus = np.concatenate([real, real[:1], paired, paired.conj(), paired[1:],
                              generic, generic[:1]])[rng.permutation(11)]
        calls = counted_root_calls(monkeypatch)
        radii, solved = stability._dy_radii(-0.8, mus, s)
        assert solved.all()
        assert len(calls) == 1 and len(calls[0]) == len(set(calls[0])) == 6
        for mu, radius in zip(mus, radii):
            row = stability._coefficient_rows(np.array([-0.8]), np.array([mu]), s)[0]
            # numpy.roots takes the leading coefficient first
            assert radius == pytest.approx(np.max(np.abs(np.roots(row[::-1]))), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_mode_path_matches_dense_oracle(self, seed):
        # real A with three double eigenvalues and B acting on each
        # eigenspace by a random real 2 x 2 block, whose two modes are real
        # or an exact conjugate pair (both occur over these seeds)
        gen = np.random.default_rng(seed)
        q, _ = np.linalg.qr(gen.standard_normal((6, 6)))
        lam = np.repeat(gen.uniform(1.0, 5.0, 3), 2)
        blocks = np.zeros((6, 6))
        for k in range(0, 6, 2):
            blocks[k:k + 2, k:k + 2] = gen.uniform(-1.0, 1.0, (2, 2)) * lam[k]
        a, b = (q * lam) @ q.T, q @ blocks @ q.T
        s = ThetaScheme(theta=0.5, u=0.5, m=50, tau=1.0)
        rep = stability.simdiag_analysis(stability._Facts(a, b), s)
        assert rep.evidence[-1].note.endswith("per-mode over 6 modes")
        dense = stability.oracle_stability(a, b, s).spectral_radius
        assert abs(1.0 - rep.evidence[-1].margin - dense) <= 1e-10 * dense


def counted_root_calls(monkeypatch):
    """Patch ``linalg.poly_roots`` to record the bytes of the rows of each call."""
    calls, roots = [], linalg.poly_roots

    def counted(coeffs):
        calls.append([row.tobytes() for row in coeffs])
        return roots(coeffs)

    monkeypatch.setattr(linalg, "poly_roots", counted)
    return calls


def canonical(mus):
    """Each mu, or its conjugate where Im mu > 0: the mu of the same radius
    whose row ``_dy_radii`` solves."""
    mus = np.asarray(mus, dtype=complex)
    return np.where(mus.imag > 0.0, mus.conj(), mus)


def pruning_rows(gen, n):
    """n generic complex rows (y, mu), then real mu, a duplicate, a
    conjugate twin and near-tied rows: mu and y moved by a few ulps."""
    mus = gen.uniform(-1.5, 1.5, n) + 1j * gen.uniform(-1.5, 1.5, n)
    mus[: n // 4] = mus[: n // 4].real
    ys = -gen.uniform(0.05, 5.0, n)
    top = int(np.argmax(np.abs(mus)))
    mus = np.concatenate([mus, [mus[top], np.conj(mus[top]), mus[top] * (1 + 4e-16),
                                mus[1], mus[1].conj()]])
    ys = np.concatenate([ys, [ys[top], ys[top], np.nextafter(ys[top], 0.0),
                              ys[1], ys[1] * (1 + 1e-15)]])
    return ys, mus


class TestDyRadiiPruning:
    @pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("u", [0.0, 0.5])
    @pytest.mark.parametrize("m", [3, 10, 25, 60])
    def test_matches_a_call_over_every_row(self, theta, u, m, monkeypatch):
        gen = np.random.default_rng([m, int(4 * theta), int(2 * u)])
        s = scheme(theta=theta, u=u, m=m)
        ys, mus = pruning_rows(gen, 24)
        coeffs = stability._coefficient_rows(ys, canonical(mus), s)
        every = np.max(np.abs(linalg.poly_roots(coeffs)), axis=1)
        calls = counted_root_calls(monkeypatch)
        radii, solved = stability._dy_radii(ys, mus, s)
        assert np.max(radii) == np.max(every)  # bit for bit
        assert np.array_equal(radii[solved], every[solved])
        assert np.all(every[~solved] <= radii[~solved])
        assert np.all(radii[~solved] < np.max(every))
        # the duplicate and the conjugate twin of the row of largest |mu|
        assert radii[24] == radii[25] == radii[np.argmax(np.abs(mus[:24]))]
        # at most two calls, each over the distinct (y, mu) up to conjugation
        # among the solved rows, so none is solved twice
        distinct = {(y, mu) for y, mu in zip(ys[solved], canonical(mus[solved]))}
        assert 1 <= len(calls) <= 2
        assert all(len(set(call)) == len(call) for call in calls)
        assert sum(map(len, calls)) == len(distinct)
        assert len(calls) == 1 or not set(calls[0]) & set(calls[1])

    def test_thirty_modes_solve_few_rows(self, monkeypatch):
        # distinct real lambda in [1, 20] and real mu in [-0.9, 0.9], the
        # modes of a simultaneously diagonalizable pair at theta = u = 1/2.
        # How many bounds reach the largest radius depends on the pair:
        # over these seeds, 1 to 7 of the 30 rows, and 2 on seed 0
        s = ThetaScheme(theta=0.5, u=0.5, m=50, tau=1.0)
        counts = []
        for seed in range(12):
            gen = np.random.default_rng(seed)
            lam = np.sort(1.0 + 19.0 * (np.arange(30) + gen.uniform(0.2, 0.8, 30)) / 30)
            mus = gen.uniform(-0.9, 0.9, 30)
            calls = counted_root_calls(monkeypatch)
            radii, solved = stability._dy_radii(-s.h * lam, mus, s)
            assert sum(map(len, calls)) == np.count_nonzero(solved)
            counts.append(np.count_nonzero(solved))
            monkeypatch.undo()
        assert counts[0] <= 3
        assert np.median(counts) == 1 and max(counts) <= 30 // 4

    def test_in_dy_solves_its_row(self, monkeypatch):
        s = scheme(theta=0.5, u=0.5, m=8)
        coeffs = stability._coefficient_rows(np.array([-1.5]), np.array([0.3 + 0.2j]), s)
        radius = np.max(np.abs(linalg.poly_roots(coeffs)))
        calls = counted_root_calls(monkeypatch)
        assert in_dy(0.3 + 0.2j, -1.5, s).max_root_modulus == radius
        assert len(calls) == 1 and len(calls[0]) == 1


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

    @pytest.mark.parametrize("y", [0.0, 0.5, -math.inf, math.nan])
    def test_rejects_y_not_finite_negative(self, y):
        # the rule of in_dy: at y = -inf the formula would give nan
        with pytest.raises(errors.InvalidParams):
            gamma_y(scheme(theta=1.0, m=3), y, 64)

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
        assert v50.spectral_radius >= 1.0 + stability.ROOT_TOL

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
        # z is an eigenvalue of W iff T(z) = a(z) I + h c(z) A - h b(z) B is
        # singular, and x = the last block of its eigenvector (y_{n-m}) spans
        # the kernel.  N = 1: W has dimension m + 1 = deg P and, with the
        # leading coefficient 1 - y theta, (1 - y theta) det(zI - W) = P(z)
        # at every z, so the root multisets coincide.  At m = 1 and 2 the
        # delayed columns coincide with y_n's
        cases = [(theta, u, m) for theta in (0.0, 0.5, 1.0)
                 for u, m in ((0.0, 1), (0.0, 2), (0.0, 5), (0.5, 3), (0.5, 5))]
        for theta, u, m in cases:
            for n in (1, 3):
                h = rng.uniform(0.05, 1.5)
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                a_mat = (q * rng.uniform(0.2, 4.0, n)) @ q.T
                b_mat = rng.uniform(-3.0, 3.0, (n, n))
                s = ThetaScheme(theta=theta, u=u, m=m, tau=(m - u) * h)
                w = stability.build_w(a_mat, b_mat, s)
                values, vectors = np.linalg.eig(w)
                for z, v in zip(values, vectors.T):
                    x = v[m * n:]
                    a, b, c = abc_at(z, theta, u, m)
                    t_z = a * np.eye(n) + s.h * c * a_mat - s.h * b * b_mat
                    scale = abs(a) + s.h * (abs(c) * np.abs(a_mat).sum() + abs(b) * np.abs(b_mat).sum())
                    assert np.linalg.norm(t_z @ x) <= 1e-9 * scale * np.linalg.norm(x)
                if n == 1:
                    y, mu = -s.h * a_mat[0, 0], b_mat[0, 0] / a_mat[0, 0]
                    for z in rng.standard_normal(4) + 1j * rng.standard_normal(4):
                        a, b, c = abc_at(z, theta, u, m)
                        p = a - y * c + y * mu * b
                        det = (1.0 - y * theta) * np.linalg.det(z * np.eye(m + 1) - w)
                        assert abs(det - p) <= 1e-10 * (abs(a) + abs(y * c) + abs(y * mu * b))


def test_m_past_numpys_size_limit_is_refused():
    # every array that grows with m needs at least 2^63 bytes here, which
    # numpy refuses before it allocates
    s = scheme(theta=1.0, m=2 * 10 ** 18, tau=1.0)
    with pytest.raises(errors.InvalidParams, match="cannot allocate"):
        stability.in_dy(0.5, -1.0, s)
    with pytest.raises(errors.InvalidParams, match="cannot allocate"):
        stability.oracle_stability(np.array([[1.0]]), np.array([[0.5]]), s)


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
