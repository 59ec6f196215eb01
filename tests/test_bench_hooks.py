"""The benchmark's per-layer trace wraps ddestab functions by name; every
name it hooks must still exist, or its metrics would silently go missing,
and the certification stages must run under those names, or their
metrics would read 0."""

import math
from pathlib import Path

import numpy as np

import ddestab
import ddestab.cli  # noqa: F401  (imported by the benchmark as its entry)
from ddestab.stability import STABLE_FOR_THIS_STEP, UNCONDITIONALLY_STABLE, ThetaScheme

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_bench_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    assert layers.Tracer(ddestab).absent == []


def test_traced_certify_runs_every_stage_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    # a non-commuting SPD pair whose unconditional sweep fails at every p,
    # so the step stage sweeps again; the same A with ||A^{-1} B||_2 = 1/2,
    # which the first sweep certifies; and example1, which has modes
    gen = np.random.default_rng(0)
    q, _ = np.linalg.qr(gen.standard_normal((6, 6)))
    a = (q * np.linspace(1.0, 3.0, 6)) @ q.T
    b = gen.standard_normal((6, 6))
    b_small = b * (0.5 / np.linalg.norm(np.linalg.solve(a, b), 2))
    b *= 0.9 / np.max(np.abs(np.linalg.eigvals(np.linalg.solve(a, b))))
    s = ThetaScheme(1.0, 0.0, 2, 1.0)
    cases = {"spd": (a, b, s), "spd-small": (a, b_small, s),
             "example1": (*ddestab.build_example1(10, l=-0.1).stability_matrices(),
                          ThetaScheme(1.0, 0.0, 2, math.pi / 2.0))}
    tracer = layers.Tracer(ddestab)
    tracer.install()
    try:
        verdicts = {}
        for name, (a, b, scheme) in cases.items():
            with tracer.op(name) as span:
                span[5] = verdicts[name] = ddestab.certify(a, b, scheme).verdict
    finally:
        tracer.uninstall()
    metrics = layers.summarize(tracer.spans, 1)
    for name in ("stability.cert.unconditional", "stability.cert.step",
                 "stability.cert.simdiag", "linalg.roots"):
        assert metrics[f"{name}.calls"] > 0, name
    # the dense oracle decides the first pair, the p = 0 sweep the second
    assert verdicts["spd"] == STABLE_FOR_THIS_STEP
    assert verdicts["spd-small"] == UNCONDITIONALLY_STABLE
    # of the first pair's three unconditional and three step sweeps none decides
    assert metrics["fov.sweep.useful_frac"] == 1.0 / 7.0
