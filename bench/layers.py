"""Per-layer tracing from outside the program.

``HOOKS`` is the one table of traced functions: each row names a public
function of a ddestab module (or a method, as ``Class.method``) and the
layer metric it feeds.  ``Tracer.install`` wraps each of them in place and
``Tracer.uninstall`` puts the originals back; no file under ``src/`` is
touched.  A row whose function no longer exists is reported as absent,
never as zero; so is a derived metric whose hook's extra detail could not
be read (for example after a signature change).  Units and directions of
every metric are in BENCHMARK.json.

Spans are kept in memory as (metric, start, end, parent, operation, extra)
and written out once, when the run ends.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import STABLE_CLASS


def _dim(args, result):
    return len(args[0])


def _verdict(args, result):
    return result.verdict


def _steps(args, result):
    return int(round(result.final_time / result.scheme.h))


def _csv_bytes(args, result):
    return os.path.getsize(args[1])


# (module, attribute, layer metric, extra recorded from (args, result))
HOOKS = (
    ("cli", "read_matrix", "cli.read_matrix", None),
    ("cli", "consolidated_check", "cli.check", None),
    ("stability", "unconditional_certificate", "stability.cert.unconditional", _verdict),
    ("stability", "step_certificate", "stability.cert.step", _verdict),
    ("stability", "simdiag_analysis", "stability.cert.simdiag", _verdict),
    ("stability", "in_dy", "stability.in_dy", None),
    ("stability", "oracle_stability", "stability.oracle", lambda a, r: r.dim),
    ("stability", "build_w", "stability.build_w", None),
    ("fov", "fov_boundary", "fov.sweep", lambda a, r: r.n_angles),
    ("fov", "transformed_matrix", "fov.transform", None),
    ("fov", "numerical_radius", "fov.numerical_radius", None),
    ("linalg", "hermitian_eigen", "linalg.eigh", None),
    ("linalg", "general_eigenvalues", "linalg.eigvals", _dim),
    ("linalg", "poly_roots", "linalg.roots", None),
    ("linalg", "solver_for", "linalg.lu", None),
    ("linalg", "LinearSolver.solve", "linalg.lu_solve", None),
    ("solver", "solve_linear", "solver.linear", _steps),
    ("solver", "solve_semilinear", "solver.semilinear", _steps),
    ("solver", "Trajectory.to_csv", "solver.csv", _csv_bytes),
    ("mol", "build_example1", "mol.build", None),
    ("mol", "build_example2", "mol.build", None),
)

FOV_CERTS = ("stability.cert.unconditional", "stability.cert.step")
OP = "op"
SETUP = "setup"

# derived metric -> the hooks whose extra detail it is computed from
DERIVED = {
    "fov.sweep.ms_per_angle": ("fov.sweep",),
    "fov.sweep.useful_frac": ("fov.sweep",) + FOV_CERTS,
    "stability.oracle.max_dim": ("stability.oracle",),
    "stability.decisive_frac": (),
    "linalg.eigvals.max_dim": ("linalg.eigvals",),
    "linalg.eigvals.gflop": ("linalg.eigvals",),
    "solver.steps": ("solver.linear", "solver.semilinear"),
    "solver.linear.us_per_step": ("solver.linear",),
    "solver.semilinear.us_per_step": ("solver.semilinear",),
    "solver.csv.bytes": ("solver.csv",),
    "trace.overhead_frac": (),
}


def layer_metrics():
    """Every per-layer metric name, in output order."""
    out = []
    for name in dict.fromkeys(row[2] for row in HOOKS):
        out += [f"{name}.calls", f"{name}.incl_s", f"{name}.s"]
    return out + list(DERIVED)


class Tracer:
    """Wraps the hooked functions of one imported ddestab package."""

    def __init__(self, package):
        self.spans = []          # [metric, start, end, parent, operation, extra]
        self._stack = []
        self._saved = []
        self.operation = SETUP
        present = set()
        self._targets = []
        for module, attr, metric, extra in HOOKS:
            owner = getattr(package, module, None)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is not None and callable(getattr(owner, leaf, None)):
                self._targets.append((owner, leaf, metric, extra))
                present.add(metric)
        self.absent = sorted({row[2] for row in HOOKS} - present)
        self.lost = set()        # hooks whose extra detail could not be read

    def install(self) -> None:
        for owner, leaf, metric, extra in self._targets:
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, metric, extra))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _open(self, metric):
        parent = self._stack[-1] if self._stack else None
        span = [metric, time.perf_counter(), None, parent, self.operation, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, metric, extra):
        def traced(*args, **kwargs):
            span = self._open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extra is not None:
                try:
                    span[5] = extra(args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    self.lost.add(metric)  # the call still counts; its detail does not
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, name):
        """Root span of one operation; its ``extra`` is set to the verdict
        by the caller when there is one."""
        self.operation = name
        span = self._open(OP)
        try:
            yield span
        finally:
            self._close(span)
            self.operation = SETUP

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["metric", "start", "end", "parent", "operation", "extra"],
                       "spans": self.spans}, fh)


def summarize(spans, n_passes: int, absent=(), overhead_frac=0.0, lost=()) -> dict:
    """Per-layer metrics, as means over ``n_passes`` traced passes.

    Set-up spans (operation ``setup``) are counted once, on top of the
    per-pass means.  Ratios whose denominator is 0 are reported as 0.  The
    metrics of ``absent`` hooks, and derived metrics that need the extra
    detail of an absent or ``lost`` hook, are left out.
    """
    calls = defaultdict(float)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    extras = defaultdict(list)
    child_time = defaultdict(float)
    roots = []
    for i, (metric, start, end, parent, op, extra) in enumerate(spans):
        roots.append(i if parent is None else roots[parent])
        if parent is not None:
            child_time[parent] += end - start
    for i, (metric, start, end, parent, op, extra) in enumerate(spans):
        weight = 1.0 if op == SETUP else 1.0 / n_passes
        calls[metric] += weight
        incl[metric] += weight * (end - start)
        self_s[metric] += weight * (end - start - child_time[i])
        if extra is not None:
            extras[metric].append(extra)

    # a sweep is useful when its operation's verdict came from a FOV certificate
    decisive = {roots[i] for i, span in enumerate(spans)
                if span[0] in FOV_CERTS and span[5] in STABLE_CLASS
                and spans[roots[i]][0] == OP and spans[roots[i]][5] == span[5]}
    sweep_roots = [roots[i] for i, span in enumerate(spans) if span[0] == "fov.sweep"]
    verdicts = extras[OP]

    def ratio(num, den):
        return num / den if den else 0.0

    lin_steps = sum(extras["solver.linear"]) / n_passes
    semi_steps = sum(extras["solver.semilinear"]) / n_passes
    derived = {
        "fov.sweep.ms_per_angle": ratio(1e3 * incl["fov.sweep"],
                                        sum(extras["fov.sweep"]) / n_passes),
        "fov.sweep.useful_frac": ratio(sum(r in decisive for r in sweep_roots),
                                       len(sweep_roots)),
        "stability.oracle.max_dim": max(extras["stability.oracle"], default=0),
        "stability.decisive_frac": ratio(sum(v != "Uncertified" for v in verdicts),
                                         len(verdicts)),
        "linalg.eigvals.max_dim": max(extras["linalg.eigvals"], default=0),
        "linalg.eigvals.gflop": sum(10.0 * n ** 3 for n in extras["linalg.eigvals"])
        / 1e9 / n_passes,
        "solver.steps": lin_steps + semi_steps,
        "solver.linear.us_per_step": ratio(1e6 * incl["solver.linear"], lin_steps),
        "solver.semilinear.us_per_step": ratio(1e6 * incl["solver.semilinear"], semi_steps),
        "solver.csv.bytes": sum(extras["solver.csv"]) / n_passes,
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name in dict.fromkeys(row[2] for row in HOOKS):
        if name not in absent:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.incl_s"] = incl[name]
            out[f"{name}.s"] = self_s[name]
    missing = set(absent) | set(lost)
    for metric, value in derived.items():
        if missing.isdisjoint(DERIVED[metric]):
            out[metric] = value
    return out
