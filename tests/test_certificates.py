import math

import numpy as np
import pytest

from ddestab import errors, fov, stability
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
