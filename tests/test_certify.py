"""Differential test: no stable verdict of ``certify`` without the oracle
agreeing.

Every case runs the certificates alone (``oracle_cap=0``, so the dense
rho(W) cannot vote) and compares each stable verdict with the brute-force
spectral radius of W.  An unconditional verdict must also hold at a
coarser and a finer step for the same delay.  Every commuting pair takes
the mode path, and there the per-mode rho(W) that ``certify`` reports
must match the dense one.
"""

import gc
import json

import numpy as np
import pytest

from ddestab import cli, errors, stability
from ddestab.stability import (
    CERTIFIED_UNSTABLE,
    ROOT_TOL,
    STABLE_FOR_THIS_STEP,
    UNCERTIFIED,
    UNCONDITIONALLY_STABLE,
    ThetaScheme,
)

from conftest import write_matrix

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


def non_normal_cases(skew: bool, n_cases=200, seed=5):
    """u = 0, theta > 1/2 pairs with A = S + K, S SPD and K skew (K = 0
    unless ``skew``), and B = A M, M scaled so that the outer bound on
    w(A^{-1} B) from 64 directions is 0.3 .. 0.95."""
    gen = np.random.default_rng(seed)
    angles = np.exp(2j * np.pi * np.arange(64) / 64)
    for _ in range(n_cases):
        n = int(gen.integers(2, 4))
        q, _ = np.linalg.qr(gen.standard_normal((n, n)))
        k = gen.standard_normal((n, n)) * gen.uniform(0.0, 8.0) if skew else np.zeros((n, n))
        a = (q * gen.uniform(0.5, 3.0, size=n)) @ q.T + 0.5 * (k - k.T)
        m = gen.standard_normal((n, n))
        w = max(np.linalg.eigvalsh(0.5 * (z * m + np.conj(z * m).T))[-1] for z in angles)
        b = a @ m * (gen.uniform(0.3, 0.95) * np.cos(np.pi / 64) / w)
        scheme = ThetaScheme(theta=float(gen.choice([0.75, 1.0])), u=0.0,
                             m=int(gen.integers(1, 6)), tau=1.0)
        yield a, b, scheme


def test_field_of_values_needs_a_positive_definite_a():
    # F(A^{-1} B) lies in the unit disk for every case, but with a skew part
    # in A some pairs are unstable at a finer step: -A + B, the limit of
    # small delays, has an eigenvalue in the right half-plane
    violations, finer_unstable = [], 0
    for skew in (True, False):
        for k, (a, b, scheme) in enumerate(non_normal_cases(skew)):
            verdict = stability.certify(a, b, scheme, n_angles=64, oracle_cap=0).verdict
            if not skew and verdict != UNCONDITIONALLY_STABLE:
                violations.append(f"SPD case {k}: {verdict}")
                continue
            steps = [scheme] + [ThetaScheme(scheme.theta, 0.0, m, tau)
                                for m, tau in ((2, 0.01), (1, 1e-3))]
            rhos = [stability.oracle_stability(a, b, s).spectral_radius for s in steps]
            finer_unstable += max(rhos) >= 1.0 + ROOT_TOL
            held = {UNCONDITIONALLY_STABLE: max(rhos), STABLE_FOR_THIS_STEP: rhos[0]}
            if verdict in held and not held[verdict] < 1.0 + ROOT_TOL:
                violations.append(f"case {k}: {verdict} but rho(W) = {held[verdict]!r}")
    assert not violations, "\n".join(violations)
    # the check is not vacuous: the SPD half is certified throughout, and
    # some skew pairs are unstable at a finer step
    assert finer_unstable > 0


def test_non_normal_a_is_not_certified_unconditionally():
    # A's Hermitian part is positive definite and F(A^{-1} B) lies in the
    # unit disk, but -A + B has the eigenvalues 0.25 +- 2.91i
    a = np.array([[1.6, -3.3], [3.9, 0.8]])
    b = np.array([[0.8, -0.4], [0.6, 2.1]])
    for tau, rho in ((1.0, 0.749271), (0.01, 1.00102)):
        scheme = ThetaScheme(theta=1.0, u=0.0, m=2, tau=tau)
        report = stability.certify(a, b, scheme)
        assert report.verdict == (STABLE_FOR_THIS_STEP if rho < 1.0 else CERTIFIED_UNSTABLE)
        assert 1.0 - report.evidence[-1].margin == pytest.approx(rho, abs=1e-5)
        assert [e.check for e in report.evidence[1:3]] == ["unconditional-certificate",
                                                           "step-certificate"]
        assert stability.certify(a, b, scheme, oracle_cap=0).verdict == UNCERTIFIED


def test_singular_a_is_decided_by_the_oracle():
    a = np.diag([1.0, 0.0])
    b = np.array([[0.1, 0.2], [0.3, 0.1]])
    report = stability.certify(a, b, ThetaScheme(theta=1.0, u=0.0, m=2, tau=1.0))
    assert report.verdict == CERTIFIED_UNSTABLE
    assert 1.0 - report.evidence[-1].margin == pytest.approx(1.07017, abs=1e-5)
    assert all("smallest eigenvalue 0.000e+00" in e.note for e in report.evidence[1:3])


def near_commuting_case():
    """A's eigenvalues lie 1e-12 apart, so they form separate clusters, and
    B couples the two modes by e = 0.9e-8 g: A^{-1} B has the eigenvalue
    1 + 6.0e-9 and the dense rho(W) is 1 + 3.0e-9."""
    g = 1.0 - 3e-9
    e = 0.9e-8 * g
    a = np.diag([1.0, 1.0 + 1e-12])
    b = np.array([[g, e], [e, g]])
    return a, b, ThetaScheme(theta=1.0, u=0.0, m=1, tau=1.0)


def test_near_commuting_pair_is_unstable():
    a, b, scheme = near_commuting_case()
    assert stability.oracle_stability(a, b, scheme).certified_unstable


@pytest.mark.xfail(strict=True, reason=(
    "simdiag_pairs accepts and drops an off-block part of B up to "
    "1e-8 scaled_norm(B), which moves mu by more than ROOT_TOL"))
def test_near_commuting_pair_not_certified_stable():
    a, b, scheme = near_commuting_case()
    verdict = stability.certify(a, b, scheme).verdict
    assert verdict not in (UNCONDITIONALLY_STABLE, STABLE_FOR_THIS_STEP)


def norm_overflow_pair():
    """Finite entries whose scaled_norm overflows.  A^{-1} B couples the
    two modes and has the eigenvalue 1.39993."""
    return 1e308 * np.diag([1.0, 1.0001]), 1e308 * np.array([[0.5, 0.9], [0.9, 0.5]])


def test_norm_overflow_is_rejected_not_certified_stable():
    a, b = norm_overflow_pair()
    scheme = ThetaScheme(theta=1.0, u=0.0, m=2, tau=1.0)
    with pytest.raises(errors.InvalidParams, match="scaled norm overflows"):
        stability.certify(a, b, scheme)
    # the same pair scaled into range gets its verdict
    assert stability.certify(1e-300 * a, 1e-300 * b, scheme).verdict == CERTIFIED_UNSTABLE


def test_norm_overflow_check_exits_3(tmp_path, capsys):
    a, b = norm_overflow_pair()
    write_matrix(tmp_path / "a.json", a)
    write_matrix(tmp_path / "b.json", b)
    code = cli.main(["check", "--matrix-a", str(tmp_path / "a.json"), "--matrix-b",
                     str(tmp_path / "b.json"), "--tau", "1", "--m", "2", "--theta", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert "scaled norm overflows" in captured.err
    assert captured.out == ""


def test_overflowing_transform_leaves_the_verdict_to_the_oracle(tmp_path, capsys):
    # A and B are in range, but A^{-1} B and every M_p have finite entries
    # whose scaled norm overflows: each p is skipped, and rho(W) decides
    a = 1e-300 * np.array([[2.0, 1.0], [1.0, 3.0]])
    b = 4e8 * np.array([[0.5, 0.3], [0.2, 0.4]])
    write_matrix(tmp_path / "a.json", a)
    write_matrix(tmp_path / "b.json", b)
    code = cli.main(["check", "--matrix-a", str(tmp_path / "a.json"), "--matrix-b",
                     str(tmp_path / "b.json"), "--tau", "1", "--m", "2", "--theta", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == CERTIFIED_UNSTABLE
    swept = [e for e in report["evidence"] if e["check"] in ("fov-unit-disk", "fov-in-dy")]
    assert [e["index"] for e in swept] == [0.0, 1.0, 2.0] * 2
    assert {e["note"] for e in swept} == {"skipped: matrix scaled norm overflows"}
    oracle = report["evidence"][-1]
    assert oracle["check"] == "oracle-spectral-radius"
    assert 1.0 - oracle["margin"] == pytest.approx(11832.66, rel=1e-6)


def test_overflowing_mode_ratio_is_a_pair_without_modes():
    # gamma / lambda = 1e300 / 1e-10 overflows: no mode row can be built,
    # so the dense rho(W) decides, with no warning on the way (pytest
    # turns warnings into errors)
    report = stability.certify([[1e-10]], [[1e300]], ThetaScheme(theta=1.0, u=0.0, m=2, tau=1.0))
    assert report.verdict == CERTIFIED_UNSTABLE
    refusal = report.evidence[0]
    assert refusal.check == "simdiag"
    assert refusal.note == ("not applicable: the mode ratio gamma / lambda = "
                            "1e+300 / 1e-10 overflows")
    oracle = report.evidence[-1]
    assert oracle.note.endswith("dim 3, dense W")
    assert 1.0 - oracle.margin == pytest.approx(7.0710678116887e149, rel=1e-9)


def test_other_invalid_mode_rows_are_not_swallowed():
    # finite modes whose y = -h lambda underflows to -0.0: the mode path
    # raises, and certify does not turn that into a pair without modes
    with pytest.raises(errors.InvalidParams, match="y must be finite and negative"):
        stability.certify([[1e-300]], [[1e-301]], ThetaScheme(theta=1.0, u=0.0, m=2,
                                                              tau=1e-300))



def finite_json(text):
    """The JSON document, failing on any NaN or infinity in it."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in {text}"))


def test_mode_row_whose_y_mu_overflows_is_unstable(tmp_path, capsys):
    # y mu = -h gamma = -1e310 overflows; the row holds y / s and mu, and
    # its largest root (1 - y mu) / (1 - y) = 1e300 / (1 + 1e-10) is finite
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, [[1.0]])
    write_matrix(b_path, [[1e300]])
    code = cli.main(["check", "--matrix-a", str(a_path), "--matrix-b", str(b_path),
                     "--tau", "1e10", "--m", "1", "--theta", "1"])
    assert code == 0
    report = finite_json(capsys.readouterr().out)
    assert report["verdict"] == CERTIFIED_UNSTABLE
    assert 1.0 - report["evidence"][-1]["margin"] == pytest.approx(1e300 / (1 + 1e-10),
                                                                   rel=1e-9)


def test_mode_whose_y_overflows_is_decided():
    # y = -h lambda = -1e310 overflows; 1 / s = 2^-1031 and y / s are not,
    # and |mu| = 0.1 decides at theta = 1, with rho(W) = (1 - y mu) / (1 - y)
    scheme = ThetaScheme(theta=1.0, u=0.0, m=1, tau=1e10)
    report = stability.certify([[1e300]], [[1e299]], scheme)
    assert report.verdict == UNCONDITIONALLY_STABLE
    finite_json(report.to_json())
    assert 1.0 - report.evidence[-1].margin == pytest.approx(0.1, rel=1e-12)


def test_explicit_mode_whose_root_overflows_raises():
    # theta = 0: the largest root is about |1 + y| = 1e310, past the float
    # range; the row's leading coefficient is 1 / s = 2^-1031, so the ratios
    # of its companion matrix overflow, and poly_roots says so
    scheme = ThetaScheme(theta=0.0, u=0.0, m=1, tau=1e10)
    with pytest.raises(errors.DegenerateLeading, match="overflows"):
        stability.certify([[1e300]], [[1e299]], scheme)


@pytest.mark.parametrize("a, b", [
    (1e-300 * np.array([[2.0, 1.0], [1.0, 3.0]]), 4e8 * np.array([[0.5, 0.3], [0.2, 0.4]])),
    ([[1e-10]], [[1e300]]),
], ids=["transform-overflow", "mode-ratio-overflow"])
def test_fact_errors_leave_no_cycle(a, b):
    # a fact's error propagates and is not kept, so its traceback, whose
    # frames hold the facts, dies with the handler that caught it
    gc.collect()
    gc.disable()
    try:
        report = stability.certify(a, b, ThetaScheme(theta=1.0, u=0.0, m=2, tau=1.0))
        assert report.verdict == CERTIFIED_UNSTABLE
        assert not any(isinstance(o, stability._Facts) for o in gc.get_objects())
    finally:
        gc.enable()


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records the shape of the
    first argument of every call; returns that list."""
    calls, original = [], getattr(module, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_refused_non_hermitian_a_is_never_decomposed(monkeypatch):
    # both field-of-values stages ask for a positive definite A and are
    # refused; the second ask repeats only the Hermitian check
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    a, b = [[1.6, -3.3], [3.9, 0.8]], [[0.8, -0.4], [0.6, 2.1]]
    report = stability.certify(a, b, ThetaScheme(theta=1.0, u=0.0, m=2, tau=1.0))
    assert [e.check for e in report.evidence[1:3]] == ["unconditional-certificate",
                                                       "step-certificate"]
    assert eighs == []


def test_overflowing_transform_asked_twice_solves_one_eigenproblem(monkeypatch):
    # sigma(A^{-1} B) is asked by both stages and M_0 overflows each time;
    # the one general eigenvalue call is that of the dense W
    eigvals = count_calls(monkeypatch, np.linalg, "eigvals")
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    a = 1e-300 * np.array([[2.0, 1.0], [1.0, 3.0]])
    b = 4e8 * np.array([[0.5, 0.3], [0.2, 0.4]])
    report = stability.certify(a, b, ThetaScheme(theta=1.0, u=0.0, m=2, tau=1.0))
    assert report.evidence[-1].note.endswith("dim 6, dense W")
    assert eigvals == [(1, 6, 6)] and eighs == [(2, 2)]


def test_overflowing_w_blocks_skip_the_oracle(tmp_path, capsys):
    # h A = 1e310 overflows, so the dense W is never formed; A fails the
    # positive definite test, so both field-of-values stages refuse too
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, np.diag([1e300, 1.0]))
    write_matrix(b_path, [[0.0, 1e-3], [2e-3, 0.0]])
    code = cli.main(["check", "--matrix-a", str(a_path), "--matrix-b", str(b_path),
                     "--tau", "1e10", "--m", "1", "--theta", "1"])
    assert code == 0
    report = finite_json(capsys.readouterr().out)
    assert report["verdict"] == UNCERTIFIED
    assert [e["check"] for e in report["evidence"]] == [
        "simdiag", "unconditional-certificate", "step-certificate", "oracle-spectral-radius"]
    assert report["evidence"][-1]["note"] == "skipped: h A or h B overflows at h = 1e+10"
    with pytest.raises(errors.InvalidParams, match="overflows at h = 1e"):
        stability.build_w(np.diag([1e300, 1.0]), np.zeros((2, 2)),
                          ThetaScheme(theta=1.0, u=0.0, m=1, tau=1e10))


def test_overflowing_w_row_skips_the_oracle():
    # every block T_k is finite, but T_2^{-1} T_1 = [[0, 1e313], [1e300, 0]]
    # is not; A has eigenvalue -1, so both field-of-values stages refuse
    a, b = np.diag([-1.0 + 1e-13, 1.0]), [[0.0, 1e300], [1e300, 0.0]]
    scheme = ThetaScheme(theta=1.0, u=0.0, m=1, tau=1.0)
    report = stability.certify(a, b, scheme)
    assert report.verdict == UNCERTIFIED
    oracle = report.evidence[-1]
    assert oracle.check == "oracle-spectral-radius"
    assert oracle.note == "skipped: W's first block row overflows at h = 1"
    with pytest.raises(errors.InvalidParams, match="first block row overflows"):
        stability.build_w(a, b, scheme)


def test_step_stage_whose_y_overflows_is_decided():
    # y = -h lambda_max = -2e310 overflows; the step stage hands -lambda_max
    # and h apart to the D_y rows, which need no y
    report = stability.certify(np.diag([2e300, 1e300]), [[0.0, 3e300], [3e300, 0.0]],
                               ThetaScheme(theta=1.0, u=0.0, m=1, tau=1e10), oracle_cap=0)
    assert report.verdict == UNCERTIFIED
    obstructions = [e for e in report.evidence if e.check == "spectrum-obstruction"]
    assert len(obstructions) == 2
    for e in obstructions:
        assert e.margin == pytest.approx(1.0 - 4.5 ** 0.5, rel=1e-12)
    assert obstructions[1].note.startswith("an eigenvalue of A^{-1} B lies outside D_y at "
                                           "y = -inf")


def test_a_pair_without_modes_leaves_no_cycle():
    # certify of a pair without modes must free its facts (the eigen-
    # decomposition of A, every M_p and its sweep) when it returns, not
    # when the garbage collector next runs
    gen = np.random.default_rng(5)
    a, b = np.diag(gen.uniform(1.0, 2.0, 40)), gen.standard_normal((40, 40))
    scheme = ThetaScheme(theta=1.0, u=0.0, m=2, tau=1.0)
    gc.collect()
    gc.disable()
    try:
        stability.certify(a, b, scheme)
        assert not any(isinstance(o, stability._Facts) for o in gc.get_objects())
    finally:
        gc.enable()
