import math

import numpy as np
import pytest
import scipy.linalg

from ddestab import errors, fov, linalg, mol, stability
from ddestab.stability import (
    CERTIFIED_UNSTABLE,
    STABLE_FOR_THIS_STEP,
    UNCERTIFIED,
    UNCONDITIONALLY_STABLE,
    ThetaScheme,
)

from conftest import random_complex, random_spd

BENCH_A = np.array([[29.0, -7.0, 1.0], [3.0, 27.0, -7.0], [3.0, 9.0, 11.0]])
BENCH_B = np.array([[-30.0, -27.0, 33.0], [-3.0, -96.0, 75.0], [-3.0, -111.0, 90.0]])


def scheme(theta=1.0, u=0.0, m=2, tau=1.0):
    return ThetaScheme(theta=theta, u=u, m=m, tau=tau)


def orthogonal(gen, n):
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return q


def scaled_pair(gen, n, target_radius):
    """Random (A SPD, B) with the numerical radius of A^{-1} B pinned."""
    a = random_spd(gen, n)
    b = random_complex(gen, n)
    r = fov.numerical_radius(fov.transformed_matrix(a, b, 0.0), 128)
    return a, b * (target_radius / r)


class TestUnconditionalCertificate:
    def test_zero_delay_matrix(self, rng):
        a = random_spd(rng, 3)
        rep = stability.unconditional_certificate(a, np.zeros((3, 3)), scheme(0.8))
        assert rep.verdict == UNCONDITIONALLY_STABLE

    def test_small_radius_certifies(self, rng):
        a, b = scaled_pair(rng, 4, 0.6)
        rep = stability.unconditional_certificate(a, b, scheme(theta=1.0, m=3))
        assert rep.verdict == UNCONDITIONALLY_STABLE
        ps = [e.index for e in rep.evidence if e.check == "fov-unit-disk"]
        assert ps[-1] in (0.0, 1.0, 2.0)

    def test_margin_is_the_outer_bound(self, rng):
        a, b = scaled_pair(rng, 4, 0.6)
        rep = stability.unconditional_certificate(a, b, scheme(theta=1.0, m=3), (0.0,), 64)
        outer = fov.fov_boundary(fov.transformed_matrix(a, b, 0.0), 64).outer_radius()
        assert rep.evidence[-1].margin == 1.0 - outer
        # the outer bound never undercuts the sampled inner estimate
        assert outer >= 0.6 - 1e-12

    def test_theta_half_or_below_uncertified_with_reason(self, rng):
        a, b = scaled_pair(rng, 3, 0.2)
        rep = stability.unconditional_certificate(a, b, scheme(theta=0.5))
        assert rep.verdict == UNCERTIFIED
        assert "theta" in rep.evidence[0].note

    def test_u_nonzero_uncertified_with_reason(self, rng):
        a, b = scaled_pair(rng, 3, 0.2)
        rep = stability.unconditional_certificate(a, b, scheme(theta=1.0, u=0.5, m=4))
        assert rep.verdict == UNCERTIFIED
        assert "u = 0" in rep.evidence[0].note

    def test_spectral_obstruction_short_circuits(self, rng):
        # an eigenvalue of A^{-1}B outside the closed unit disk kills every p
        a = np.eye(3)
        b = np.diag([1.5, 0.1, 0.1]).astype(float)
        rep = stability.unconditional_certificate(a, b, scheme(theta=1.0))
        assert rep.verdict == UNCERTIFIED
        assert rep.evidence[0].check == "spectrum-obstruction"

    def test_mol_problem_both_signs(self):
        from ddestab import mol

        for l_val, want in ((-0.1, UNCONDITIONALLY_STABLE), (0.1, UNCERTIFIED)):
            problem = mol.build_example1(30, 1.0, 1.0, l_val, math.pi / 2.0)
            a, b = problem.stability_matrices()
            rep = stability.unconditional_certificate(a, b, scheme(m=5, tau=problem.tau))
            assert rep.verdict == want


class TestStepCertificate:
    def test_zero_delay_matrix_any_step(self, rng):
        a = random_spd(rng, 3)
        for m in (1, 4, 20):
            rep = stability.step_certificate(a, np.zeros((3, 3)), scheme(m=m, tau=3.0))
            assert rep.verdict == STABLE_FOR_THIS_STEP

    def test_requires_theta_one(self, rng):
        a, b = scaled_pair(rng, 3, 0.5)
        rep = stability.step_certificate(a, b, scheme(theta=0.9))
        assert rep.verdict == UNCERTIFIED
        assert "theta = 1" in rep.evidence[0].note

    def test_rejects_indefinite_a(self):
        with pytest.raises(errors.NotPositiveDefinite):
            stability.step_certificate(np.diag([1.0, -1.0]), np.zeros((2, 2)), scheme())

    def test_spectral_obstruction_skips_every_sweep(self, monkeypatch):
        # mu = 1.5 is an eigenvalue of A^{-1} B outside D_y, so no p can pass
        def no_sweep(*args, **kwargs):
            raise AssertionError("fov_boundary must not be called")

        monkeypatch.setattr(fov, "fov_boundary", no_sweep)
        rep = stability.step_certificate(np.eye(3), np.diag([1.5, 0.1, 0.1]),
                                         scheme(theta=1.0))
        assert rep.verdict == UNCERTIFIED
        assert len(rep.evidence) == 1
        assert rep.evidence[0].check == "spectrum-obstruction"
        assert rep.evidence[0].margin < 0.0

    def test_certifies_moderate_radius_for_small_step(self):
        # F(A^{-1}B) = {-1.02} pokes outside the unit disk (so no
        # unconditional certificate) yet sits inside D_{-1/60}
        a = np.eye(2)
        b = -1.02 * np.eye(2)
        s = ThetaScheme(theta=1.0, u=0.0, m=60, tau=1.0)
        assert stability.unconditional_certificate(a, b, s).verdict == UNCERTIFIED
        rep = stability.step_certificate(a, b, s)
        assert rep.verdict == STABLE_FOR_THIS_STEP
        assert stability.oracle_stability(a, b, s).stable


def step_reference(a, b, s, p_grid=stability.DEFAULT_P_GRID):
    """``step_certificate`` with every D_y margin from its own ``in_dy``
    call, one point at a time (theta = 1, u = 0, no skipped p)."""
    y = -s.h * float(linalg.hermitian_eigen(a).values[-1])
    spectrum = linalg.general_eigenvalues(fov.transformed_matrix(a, b, 0.0))
    spectral = min(stability.in_dy(complex(mu), y, s).margin for mu in spectrum)
    if spectral <= 0.0:
        note = (f"an eigenvalue of A^{{-1}} B lies outside D_y at y = {y:.6g}, "
                "which rules out every p")
        return stability.StabilityReport(
            UNCERTIFIED, (stability.Evidence("spectrum-obstruction", margin=spectral,
                                             note=note),), s)
    evidence = []
    for p in p_grid:
        t_mat = fov.transformed_matrix(a, b, p)
        points = fov.fov_boundary(t_mat).points
        worst = min(stability.in_dy(complex(z), y, s).margin for z in points)
        evidence.append(stability.Evidence("fov-in-dy", index=p, margin=worst,
                                           note=f"y = {y:.6g}"))
        if worst >= fov.fov_margin(t_mat):
            return stability.StabilityReport(STABLE_FOR_THIS_STEP, tuple(evidence), s)
    return stability.StabilityReport(UNCERTIFIED, tuple(evidence), s)


def step_cases(n_cases=40, seed=12):
    """Seeded theta = 1, u = 0 pairs: SPD A, dense B with ||B||_2 =
    (0.5 .. 3) lambda_min(A).  They cover a pass at the first p, a pass
    after failed p, a failure at every p and the spectrum obstruction."""
    gen = np.random.default_rng(seed)
    for _ in range(n_cases):
        n = int(gen.integers(2, 6))
        q = orthogonal(gen, n)
        lam = gen.uniform(0.5, 3.0, size=n)
        b = gen.standard_normal((n, n))
        b *= gen.uniform(0.5, 3.0) * lam.min() / np.linalg.norm(b, 2)
        s = ThetaScheme(theta=1.0, u=0.0, m=int(gen.integers(1, 10)),
                        tau=float(gen.uniform(0.5, 4.0)))
        yield (q * lam) @ q.T, b, s


class TestStepCertificateRootCalls:
    def test_matches_per_point_in_dy_reference(self):
        outcomes = set()
        for a, b, s in step_cases():
            rep = stability.step_certificate(a, b, s)
            assert rep.to_dict() == step_reference(a, b, s).to_dict()
            outcomes.add((rep.verdict, len(rep.evidence), rep.evidence[0].check))
        assert (UNCERTIFIED, 1, "spectrum-obstruction") in outcomes
        assert (STABLE_FOR_THIS_STEP, 1, "fov-in-dy") in outcomes
        assert (UNCERTIFIED, 3, "fov-in-dy") in outcomes
        assert any(v == STABLE_FOR_THIS_STEP and k > 1 for v, k, _ in outcomes)

    def test_one_root_call_per_swept_p(self, monkeypatch):
        calls = []
        stacked = linalg.stacked_poly_roots

        def counted(coeffs):
            calls.append(len(coeffs))
            return stacked(coeffs)

        monkeypatch.setattr(linalg, "stacked_poly_roots", counted)
        most_swept = 0
        for a, b, s in step_cases():
            calls.clear()
            rep = stability.step_certificate(a, b, s)
            swept = sum(e.check == "fov-in-dy" for e in rep.evidence)
            assert len(calls) == 1 + swept
            assert calls[0] == a.shape[0]  # the rows are sigma(A^{-1} B)
            most_swept = max(most_swept, swept)
        assert most_swept == 3


class TestSimdiag:
    def test_benchmark_pairs(self):
        lam, gamma = stability.simdiag_pairs(BENCH_A, BENCH_B)
        np.testing.assert_allclose(lam, [26.0, 23.0, 18.0], atol=1e-8)
        np.testing.assert_allclose(gamma.real, [-27.0, -24.0, 15.0], atol=1e-8)
        np.testing.assert_allclose(gamma.imag, 0.0, atol=1e-8)

    def test_benchmark_verdicts(self):
        assert stability.simdiag_analysis(BENCH_A, BENCH_B, scheme(m=2)).verdict \
            == STABLE_FOR_THIS_STEP
        rep50 = stability.simdiag_analysis(BENCH_A, BENCH_B, scheme(m=50))
        assert rep50.verdict == UNCERTIFIED
        failed = [e for e in rep50.evidence if e.check == "mu-in-dy" and e.margin < 0]
        assert failed  # mu_2 outside D_{y_2}

    def test_contraction_unconditional(self):
        rep = stability.simdiag_analysis(np.eye(2), 0.5 * np.eye(2), scheme(theta=0.8))
        assert rep.verdict == UNCONDITIONALLY_STABLE

    def test_expansion_certified_unstable(self):
        rep = stability.simdiag_analysis(np.eye(2), 2.0 * np.eye(2), scheme(theta=1.0))
        assert rep.verdict == CERTIFIED_UNSTABLE
        witness = [e for e in rep.evidence if e.check == "re-mu-at-least-one"]
        assert witness and witness[0].margin >= 0.0

    def test_not_simultaneously_diagonalizable(self, rng):
        a = np.diag([1.0, 2.0])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(errors.NotSimultaneouslyDiagonalizable):
            stability.simdiag_analysis(a, b, scheme())

    def test_complex_spectrum_rejected(self):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(errors.ComplexSpectrum):
            stability.simdiag_analysis(rotation, np.eye(2), scheme())
        with pytest.raises(errors.ComplexSpectrum):
            stability.simdiag_analysis(-np.eye(2), np.eye(2), scheme())

    def test_coupled_eigenspaces_rejected(self, rng):
        # A has the double eigenvalue 1; B maps its eigenspace into that of 2
        q = orthogonal(rng, 3)
        a = (q * [1.0, 1.0, 2.0]) @ q.T
        b = q @ np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.3, 0.0, 0.5]]) @ q.T
        with pytest.raises(errors.NotSimultaneouslyDiagonalizable):
            stability.simdiag_pairs(a, b)

    def test_chained_cluster_rejected(self):
        # gaps of 0.8e-14 relative are each within the rounding tolerance
        # of a 3x3 A (16 * 3 * eps = 1.07e-14), so the three eigenvalues
        # chain into one cluster whose spread, 1.6e-14, exceeds it
        lam = np.array([1.0, 1.0 + 0.8e-14, 1.0 + 1.6e-14])
        with pytest.raises(errors.NotSimultaneouslyDiagonalizable):
            stability.simdiag_pairs(np.diag(lam), np.diag([0.1, 0.2, 0.3]))

    def test_close_eigenvalues_keep_separate_modes(self):
        # A = diag(1, 1 + 5e-9) is not a multiple of I, so a B coupling the
        # two eigenvectors has no modes.  Were the two merged into one mode
        # lambda_c = 1 + 2.5e-9, the non-normal B_c below would pass
        # all-mu-in-unit-disk, while -A + B has an eigenvalue near +4e-5
        # and the DDE a real root s > 0.
        g = 1.0 - 1e-5
        a = np.diag([1.0, 1.0 + 5e-9])
        b = g * np.eye(2) + np.array([[0.5, 0.5], [-0.5, -0.5]])
        s = ThetaScheme(theta=1.0, u=0.0, m=3, tau=1.0)
        with pytest.raises(errors.NotSimultaneouslyDiagonalizable):
            stability.simdiag_pairs(a, b)
        assert stability.oracle_stability(a, b, s).certified_unstable
        assert stability.certify(a, b, s).verdict == CERTIFIED_UNSTABLE
        # with A = I the same B is one exact Jordan mode, stable like the oracle
        rep = stability.certify(np.eye(2), b, s)
        assert rep.verdict == UNCONDITIONALLY_STABLE
        assert stability.oracle_stability(np.eye(2), b, s).stable

    def test_defective_a_rejected(self):
        # eig(A) returns a singular eigenvector matrix for a Jordan block
        with pytest.raises(errors.NotSimultaneouslyDiagonalizable):
            stability.simdiag_pairs(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2)))
        rep = stability.certify(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2)),
                                scheme(m=3))
        oracle = [e for e in rep.evidence if e.check == "oracle-spectral-radius"]
        assert oracle and oracle[0].note.endswith("dense W")

    def test_huge_step_is_not_stable(self):
        # y = -1e15 at theta = 0: P(z) = z^3 + (1e15 - 1) z^2 - 5e14 has a
        # root near -1e15, which trimming the unit leading coefficient lost
        s = ThetaScheme(theta=0.0, u=0.0, m=2, tau=1.0)
        rep = stability.simdiag_analysis([[2e15]], [[1e15]], s)
        assert rep.verdict == UNCERTIFIED
        assert rep.evidence[-1].margin < -1e14


class TestConsolidatedCheck:
    def test_benchmark_m2_stable(self):
        rep = stability.certify(BENCH_A, BENCH_B, scheme(m=2))
        assert rep.verdict == STABLE_FOR_THIS_STEP

    def test_benchmark_m50_unstable_oracle_witness(self):
        rep = stability.certify(BENCH_A, BENCH_B, scheme(m=50))
        assert rep.verdict == CERTIFIED_UNSTABLE
        oracle = [e for e in rep.evidence if e.check == "oracle-spectral-radius"]
        assert oracle and oracle[0].margin < 0.0

    def test_zero_b_unconditional(self, rng):
        a = random_spd(rng, 3).real
        rep = stability.certify(a, np.zeros((3, 3)), scheme(theta=0.75, m=4))
        assert rep.verdict == UNCONDITIONALLY_STABLE

    def test_oracle_skipped_beyond_cap(self):
        rep = stability.certify(BENCH_A, BENCH_B, scheme(m=50), oracle_cap=10)
        notes = [e.note for e in rep.evidence if e.check == "oracle-spectral-radius"]
        assert notes and "skipped" in notes[0]


def block_pair(gen, lams, blocks):
    """A = Q diag(lams) Q^T and B = Q blockdiag(blocks) Q^T, Q random orthogonal."""
    q = orthogonal(gen, len(lams))
    return (q * lams) @ q.T, q @ scipy.linalg.block_diag(*blocks) @ q.T


def dense_rho(a, b, s):
    return float(np.max(np.abs(np.linalg.eigvals(stability.build_w(a, b, s)))))


def per_mode_rho(a, b, s):
    """The oracle radius ``certify`` reports, asserted to come from the modes."""
    rep = stability.certify(a, b, s, n_angles=16)
    (oracle,) = [e for e in rep.evidence if e.check == "oracle-spectral-radius"]
    assert oracle.note.endswith(f"per-mode over {len(a)} modes")
    return 1.0 - oracle.margin


MODE_SCHEMES = [ThetaScheme(theta, u, 5, 1.3) for theta in (0.0, 0.5, 1.0) for u in (0.0, 0.5)]


@pytest.mark.parametrize("s", MODE_SCHEMES, ids=lambda s: f"theta{s.theta}-u{s.u}")
class TestModeOracle:
    """The per-mode rho(W) against eigenvalues of the dense W."""

    def test_multiplicities_two_and_three(self, rng, s):
        blocks = [rng.standard_normal((2, 2)), rng.standard_normal((3, 3)), [[0.4]]]
        a, b = block_pair(rng, [2.0, 2.0, 0.7, 0.7, 0.7, 1.5], blocks)
        assert per_mode_rho(a, b, s) == pytest.approx(dense_rho(a, b, s), rel=1e-10)

    def test_jordan_block(self, rng, s):
        # B_c = [[0.6, 1], [0, 0.6]] gives W a defective eigenvalue, which
        # the dense eigensolver resolves only to about sqrt(eps)
        blocks = [[[0.6, 1.0], [0.0, 0.6]], [[-0.3]]]
        a, b = block_pair(rng, [1.5, 1.5, 0.8], blocks)
        assert per_mode_rho(a, b, s) == pytest.approx(dense_rho(a, b, s), rel=1e-6)

    def test_non_hermitian_distinct(self, rng, s):
        v = orthogonal(rng, 3) @ (np.eye(3) + np.triu(rng.uniform(-0.5, 0.5, (3, 3)), 1))
        v_inv = np.linalg.inv(v)
        a = (v * [0.9, 1.7, 2.6]) @ v_inv
        b = (v * [0.5, -1.2, 0.8]) @ v_inv
        assert np.max(np.abs(a - a.T)) > 1e-3  # takes the eig path
        assert per_mode_rho(a, b, s) == pytest.approx(dense_rho(a, b, s), rel=1e-10)


class TestModePath:
    def test_example1_takes_the_mode_path(self, monkeypatch):
        # A has every eigenvalue twice; certify decides without any sweep
        def no_sweep(*args, **kwargs):
            raise AssertionError("fov_boundary must not be called")

        monkeypatch.setattr(fov, "fov_boundary", no_sweep)
        a, b = mol.build_example1(30, l=-0.1).stability_matrices()
        rep = stability.certify(a, b, ThetaScheme(1.0, 0.0, 25, math.pi / 2.0))
        assert rep.verdict == UNCONDITIONALLY_STABLE
        assert [e.check for e in rep.evidence] == ["all-mu-in-unit-disk",
                                                   "oracle-spectral-radius"]
        assert rep.evidence[-1].note.endswith("dim 1508, per-mode over 58 modes")
        s4 = ThetaScheme(1.0, 0.0, 4, math.pi / 2.0)
        assert per_mode_rho(a, b, s4) == pytest.approx(dense_rho(a, b, s4), rel=1e-10)

    def test_dense_path_says_so(self, rng):
        a, b = scaled_pair(rng, 3, 0.5)
        rep = stability.certify(a, b, scheme(m=3))
        oracle = [e for e in rep.evidence if e.check == "oracle-spectral-radius"]
        assert oracle[0].note.endswith("dim 12, dense W")


class TestModeReportThreshold:
    @pytest.mark.parametrize("direction, verdict", [
        (-math.inf, STABLE_FOR_THIS_STEP),
        (None, UNCERTIFIED),
        (math.inf, UNCERTIFIED),
    ], ids=["below", "at", "above"])
    def test_stable_only_below_one_minus_root_tol(self, direction, verdict):
        # theta = u = 1/2 skips the unit-disk and Re(mu) tests, so the
        # largest root moduli alone decide
        edge = 1.0 - stability.ROOT_TOL
        radius = edge if direction is None else np.nextafter(edge, direction)
        lam, gamma = np.array([2.0, 1.0]), np.array([0.5, -0.25])
        radii = np.array([0.5, radius])
        rep = stability._mode_report(lam, gamma, radii, scheme(theta=0.5, u=0.5, m=3))
        assert rep.verdict == verdict
        assert [e.margin for e in rep.evidence] == [0.5, 1.0 - radius]
