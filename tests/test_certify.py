"""Differential test: no stable verdict of ``certify`` without the oracle
agreeing.

Every case runs the certificates alone (``oracle_cap=0``, so the dense
rho(W) cannot vote) and compares each stable verdict with the brute-force
spectral radius of W.  An unconditional verdict must also hold at a
coarser and a finer step for the same delay.  Every commuting pair takes
the mode path, and there the per-mode rho(W) that ``certify`` reports
must match the dense one.
"""

import numpy as np

from ddestab import stability
from ddestab.stability import (
    ROOT_TOL,
    STABLE_FOR_THIS_STEP,
    UNCONDITIONALLY_STABLE,
    ThetaScheme,
)

N_CASES = 300


def commuting_pair(gen, n):
    """A = Q diag(lambda) Q^T with one eigenvalue forced to repeat, and
    B = Q diag(gamma) Q^T; the eigenvectors eig(A) returns on the repeated
    eigenvalue need not diagonalize B."""
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    lam = gen.uniform(0.5, 3.0, size=n - 1)
    lam = np.append(lam, lam[0])
    gamma = gen.uniform(-1.5, 1.5, size=n) * lam
    return (q * lam) @ q.T, (q * gamma) @ q.T


def spd_pair(gen, n):
    """SPD A and a dense B with ||B||_2 = (0.2 .. 2) lambda_min(A)."""
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    lam = gen.uniform(0.5, 3.0, size=n)
    b = gen.standard_normal((n, n))
    b *= gen.uniform(0.2, 2.0) * lam.min() / np.linalg.norm(b, 2)
    return (q * lam) @ q.T, b


def cases(seed=20261018):
    gen = np.random.default_rng(seed)
    for k in range(N_CASES):
        n = int(gen.integers(2, 5))
        a, b = (commuting_pair if k % 2 == 0 else spd_pair)(gen, n)
        scheme = ThetaScheme(theta=float(gen.choice([0.5, 0.75, 1.0])),
                             u=float(gen.choice([0.0, 0.5])),
                             m=int(gen.integers(3, 12)),
                             tau=float(gen.uniform(0.5, 2.0)))
        yield k, a, b, scheme


def test_stable_verdicts_agree_with_oracle():
    violations = []
    verdicts = set()
    mode_cases = 0
    for k, a, b, scheme in cases():
        report = stability.certify(a, b, scheme, n_angles=64, oracle_cap=0)
        verdict = report.verdict
        verdicts.add(verdict)
        if not any(e.check == "simdiag" for e in report.evidence):
            mode_cases += 1
            full = stability.certify(a, b, scheme, n_angles=64)
            (oracle,) = [e for e in full.evidence if e.check == "oracle-spectral-radius"]
            rho = stability.oracle_stability(a, b, scheme).spectral_radius
            if not abs(1.0 - oracle.margin - rho) <= 1e-9 * rho or "per-mode" not in oracle.note:
                violations.append(f"case {k}: {oracle.note}, dense rho(W) = {rho!r}")
        if verdict not in (UNCONDITIONALLY_STABLE, STABLE_FOR_THIS_STEP):
            continue
        checked = [scheme]
        if verdict == UNCONDITIONALLY_STABLE:
            checked += [ThetaScheme(scheme.theta, scheme.u, m, scheme.tau)
                        for m in (3, 2 * scheme.m + 1)]
        for s in checked:
            rho = stability.oracle_stability(a, b, s).spectral_radius
            if not rho < 1.0 + ROOT_TOL:
                violations.append(f"case {k}: {verdict} but rho(W) = {rho!r} at {s}")
    assert not violations, "\n".join(violations)
    # the case set reaches both stable verdicts, so the check is not vacuous
    assert {UNCONDITIONALLY_STABLE, STABLE_FOR_THIS_STEP} <= verdicts
    # the commuting half, repeated eigenvalue and all, is on the mode path
    assert mode_cases == N_CASES // 2
