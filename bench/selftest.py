"""Self-tests of the benchmark: references, seeding, failure counting, tracing.

Run from the root of the repository:

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

ddestab = run.import_program()
from ddestab import stability  # noqa: E402


def _oracle_rho(a, b, s: wl.Scheme) -> float:
    scheme = stability.ThetaScheme(theta=s.theta, u=s.u, m=s.m, tau=s.tau)
    return stability.oracle_stability(a, b, scheme).spectral_radius


@pytest.mark.parametrize("m", [2, 50])
def test_reference_rho_matches_oracle_on_example31(m):
    s = wl.Scheme(1.0, 0.0, m, 1.0)
    ref = wl.mode_rho(wl.EX31_LAMBDA, wl.EX31_GAMMA, s)
    assert ref == pytest.approx(_oracle_rho(wl.EX31_A, wl.EX31_B, s), rel=1e-10)
    assert ref == pytest.approx(wl.dense_rho(wl.EX31_A, wl.EX31_B, s), rel=1e-10)


@pytest.mark.parametrize("s", [wl.Scheme(0.75, 0.0, 4, 1.0), wl.Scheme(0.5, 0.5, 5, 1.0),
                               wl.Scheme(1.0, 0.0, 1, 0.5)])
def test_reference_rho_matches_oracle_on_small_seeded_pairs(s):
    a, b = wl.random_pair(11, n=8)
    assert wl.dense_rho(a, b, s) == pytest.approx(_oracle_rho(a, b, s), rel=1e-10)
    a, b, lam, gamma = wl.simdiag_pair(11, n=6)
    assert wl.mode_rho(lam, gamma, s) == pytest.approx(_oracle_rho(a, b, s), rel=1e-10)


def test_example1_modes_match_the_program_matrices():
    a, b = ddestab.mol.build_example1(12, l=0.1).stability_matrices()
    lams, gammas = wl.example1_modes(12, 0.1)
    got = np.sort_complex(np.linalg.eigvals(np.linalg.solve(a, b)))
    assert np.allclose(got, np.sort_complex(gammas / lams), rtol=1e-10)


def _seeded_inputs(seed):
    b = np.eye(5)
    return [*wl.random_pair(seed), wl.perturbation(seed, b), *wl.simdiag_pair(seed)]


def test_same_seed_gives_bit_identical_inputs():
    for x, y in zip(_seeded_inputs(7), _seeded_inputs(7)):
        assert x.tobytes() == y.tobytes()
    for x, y in zip(_seeded_inputs(7), _seeded_inputs(8)):
        assert x.tobytes() != y.tobytes()


def _report(verdict, rho):
    return {"verdict": verdict,
            "evidence": [{"check": "oracle-spectral-radius", "index": None,
                          "margin": 1.0 - rho, "note": ""}]}


def test_judge_check_rejects_forged_verdicts_and_radii():
    assert wl.judge_check(_report("CertifiedUnstable", 1.03), 1.03, 594) is None
    assert wl.judge_check(_report("StableForThisStep", 1.03), 1.03, 594) is not None
    assert wl.judge_check(_report("UnconditionallyStable", 1.03), 1.03, 594) is not None
    assert wl.judge_check(_report("CertifiedUnstable", 0.9), 0.9, 594) is not None
    assert wl.judge_check(_report("CertifiedUnstable", 1.03 * (1 + 1e-6)), 1.03, 594) is not None
    assert wl.judge_check({"verdict": "Uncertified", "evidence": []}, 0.9, 594) is not None
    assert wl.judge_check(_report("Uncertified", 0.9), 0.9, 594, expect="stable") is not None


def test_example1_reference_matches_table1_and_the_program(tmp_path):
    for m, paper in wl.TABLE1.items():
        assert wl.example1_reference(m).errors == pytest.approx(paper, rel=wl.TABLE1_RTOL)
    ref = wl.example1_reference(5)
    op = wl._solve_op("m5", ["--problem", "example1", "--grid-m", "100", "--l", "-0.1",
                             "--t-end", repr(wl.T_END_EX1)], 5, str(tmp_path), ref, csv="norm")
    assert run.run_op(ddestab.cli.main, op, None)[1] is None
    with open(op.outputs[0], encoding="utf-8") as fh:
        errors = json.load(fh)["errors"]
    assert (errors["v1"], errors["v2"]) == pytest.approx(ref.errors, rel=1e-10)


def test_judge_solve_rejects_wrong_errors_and_bad_max_norm():
    ref = wl.example1_reference(100)
    good = {"diverged": False, "errors": {"v1": ref.errors[0], "v2": ref.errors[1]}}
    assert wl.judge_solve(good, 100, ref) is None
    # within 5% of Table 1, but not the discrete solution's error
    near = {**good, "errors": {"v1": 0.001697, "v2": 0.014763}}
    assert wl.judge_solve(near, 100, ref) is not None
    # the right error for m = 100 is not converged enough for m = 1000
    assert wl.judge_solve(good, 1000, wl.example1_reference(1000)) is not None
    assert wl.judge_solve({**good, "diverged": True}, 100, ref) is not None
    assert wl.judge_solve({"diverged": False, "max_abs": 1.0001}) is not None
    assert wl.judge_solve({"diverged": False, "max_abs": 0.99}) is None


def test_judge_norm_csv_rejects_a_wrong_step(tmp_path):
    ref = wl.example1_reference(5)
    path = tmp_path / "norms.csv"
    rows = np.column_stack([ref.times, ref.norms])
    np.savetxt(path, rows, delimiter=",", header="t,norm2", comments="", fmt="%.17g")
    assert wl.judge_norm_csv(path, ref) is None
    rows[50, 1] *= 1.0 + 1e-7
    np.savetxt(path, rows, delimiter=",", header="t,norm2", comments="", fmt="%.17g")
    assert "step 50" in wl.judge_norm_csv(path, ref)
    np.savetxt(path, rows[:-1], delimiter=",", header="t,norm2", comments="", fmt="%.17g")
    assert wl.judge_norm_csv(path, ref) is not None


def test_forged_output_counts_as_failed_operation(tmp_path):
    s = wl.Scheme(1.0, 0.0, 50, 1.0)
    op = wl._check_op("ex31", wl.EX31_A, wl.EX31_B, s,
                      wl.mode_rho(wl.EX31_LAMBDA, wl.EX31_GAMMA, s), str(tmp_path),
                      expect="unstable")
    out = op.outputs[0]
    _, reason = run.run_op(ddestab.cli.main, op, None)
    assert reason is None

    def forged_verdict(argv):
        ddestab.cli.main(argv)
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["verdict"] = "StableForThisStep"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return 0

    def forged_radius(argv):
        ddestab.cli.main(argv)
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        for e in doc["evidence"]:
            if e["check"].startswith("oracle"):
                e["margin"] -= 1e-6
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return 0

    for fake in (forged_verdict, forged_radius, lambda argv: 3):
        plain, traced, failures, speed = run.measure(fake, [op], seconds=0.0)
        assert len(plain) == run.MIN_PASSES and not traced and not speed
        assert [name for name, _ in failures] == ["ex31"] * run.MIN_PASSES


def test_tracer_wraps_every_hook_and_restores_the_originals():
    tracer = layers.Tracer(ddestab)
    assert tracer.absent == []
    originals = (ddestab.fov.fov_boundary, ddestab.linalg.LinearSolver.solve)
    tracer.install()
    try:
        assert ddestab.fov.fov_boundary is not originals[0]
        assert ddestab.linalg.LinearSolver.solve is not originals[1]
    finally:
        tracer.uninstall()
    assert (ddestab.fov.fov_boundary, ddestab.linalg.LinearSolver.solve) == originals


def test_tracer_reports_missing_function_as_absent():
    cli = types.SimpleNamespace(read_matrix=lambda path: path)
    package = types.SimpleNamespace(cli=cli)
    tracer = layers.Tracer(package)
    assert "cli.check" in tracer.absent and "cli.read_matrix" not in tracer.absent
    tracer.install()
    try:
        with tracer.op("x"):
            package.cli.read_matrix("a")
    finally:
        tracer.uninstall()
    out = layers.summarize(tracer.spans, 1, tracer.absent)
    assert out["cli.read_matrix.calls"] == 1
    assert not any(k.startswith("cli.check.") for k in out)
    assert not any(k.startswith("fov.sweep.") for k in out)


def test_unreadable_extra_detail_leaves_derived_metrics_out():
    class Trajectory:       # no ``scheme``, so the solver's step count is unreadable
        final_time = 1.0

    solver = types.SimpleNamespace(solve_linear=lambda *args: Trajectory())
    package = types.SimpleNamespace(solver=solver)
    tracer = layers.Tracer(package)
    tracer.install()
    try:
        with tracer.op("x"):
            package.solver.solve_linear(None)
    finally:
        tracer.uninstall()
    assert tracer.lost == {"solver.linear"}
    out = layers.summarize(tracer.spans, 1, tracer.absent, lost=tracer.lost)
    assert out["solver.linear.calls"] == 1
    for name in ("solver.steps", "solver.linear.us_per_step"):
        assert name not in out
    assert "trace.overhead_frac" in out


def test_self_time_excludes_child_spans():
    spans = [
        ["op", 0.0, 10.0, None, "x", "StableForThisStep"],
        ["stability.cert.step", 1.0, 9.0, 0, "x", "StableForThisStep"],
        ["fov.sweep", 2.0, 5.0, 1, "x", 256],
        ["linalg.eigh", 2.5, 3.0, 2, "x", None],
        ["fov.sweep", 6.0, 8.0, 1, "x", 256],
    ]
    out = layers.summarize(spans, 1)
    assert list(out) == layers.layer_metrics()
    assert out["stability.cert.step.incl_s"] == 8.0
    assert out["stability.cert.step.s"] == 3.0
    assert out["fov.sweep.calls"] == 2 and out["fov.sweep.s"] == 4.5
    assert out["fov.sweep.useful_frac"] == 1.0
    assert out["fov.sweep.ms_per_angle"] == pytest.approx(1e3 * 5.0 / 512)


def test_benchmark_json_has_a_metric_for_every_hook():
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == layers.layer_metrics()
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 and math.isfinite(m["bound"]) for m in spec["end_to_end"])



def test_speed_probe_samples_in_proportion_to_busy_time():
    probe = run.SpeedProbe()
    samples = []
    probe.sample(samples, 0.0)
    assert len(samples) == run.SPEED_SAMPLES_MIN and all(t > 0 for t in samples)
    busy = 40 * statistics.median(samples) / run.SPEED_SHARE
    probe.sample(samples, busy)
    assert sum(samples[run.SPEED_SAMPLES_MIN:]) >= run.SPEED_SHARE * busy
    assert probe.scale([run.PROBE_REF_S / 2.0] * 3) == pytest.approx(2.0)
    # the slowest and fastest tenth do not count
    assert run.SpeedProbe.typical([1.0] * 8 + [0.1, 10.0]) == 1.0
