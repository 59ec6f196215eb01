"""Workload definitions: seeded inputs, operations and independent references.

Everything here uses numpy only.  Nothing in this module imports ddestab:
the references that decide whether an operation's output is correct are
computed from the benchmark's own formulas, so a defect in the program
cannot hide behind a reference that shares its code.

Each workload is a fixed list of operations.  An operation is one call of
the program's public entry, ``ddestab.cli.main(argv)``; its ``verify``
callable inspects the files the call wrote and returns ``None`` when the
output is correct, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# verdict strings of ``ddestab check``
UNCONDITIONALLY_STABLE = "UnconditionallyStable"
STABLE_FOR_THIS_STEP = "StableForThisStep"
UNCERTIFIED = "Uncertified"
CERTIFIED_UNSTABLE = "CertifiedUnstable"
STABLE_CLASS = (UNCONDITIONALLY_STABLE, STABLE_FOR_THIS_STEP)
VERDICTS = STABLE_CLASS + (UNCERTIFIED, CERTIFIED_UNSTABLE)

RHO_TOL = 1e-9          # no verdict is judged within this distance of rho = 1
RADIUS_RTOL = 1e-8      # reported oracle radius vs reference
DEFAULT_ANGLES = 256    # the CLI's default sweep size, recorded per operation
ORACLE_CAP = 5000       # the CLI's default oracle cap: below it rho(W) must be reported

# Paper Table 1: example1 errors (v1, v2) at t = 10 pi, theta = 1, grid M = 100,
# for the m the benchmark holds to it.
TABLE1 = {
    5: (0.018354, 0.196042),
    25: (0.006456, 0.055879),
    50: (0.003399, 0.029162),
    100: (0.001697, 0.014763),
}
TABLE1_RTOL = 0.05
ERRORS_RTOL = 1e-6      # example1 errors vs the benchmark's own discrete solution
NORM_RTOL = 1e-9        # trajectory norms vs the same
T_END_EX1 = 10.0 * math.pi

# Paper example 3.1: a simultaneously diagonalizable 3x3 pair and its
# eigenvalue pairs (lambda_i, gamma_i).
EX31_A = np.array([[29.0, -7.0, 1.0], [3.0, 27.0, -7.0], [3.0, 9.0, 11.0]])
EX31_B = np.array([[-30.0, -27.0, 33.0], [-3.0, -96.0, 75.0], [-3.0, -111.0, 90.0]])
EX31_LAMBDA = np.array([26.0, 23.0, 18.0])
EX31_GAMMA = np.array([-27.0, -24.0, 15.0])


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scheme:
    theta: float
    u: float
    m: int
    tau: float

    @property
    def h(self) -> float:
        return self.tau / (self.m - self.u)


def _delay_weights(s: Scheme):
    """Weights of y_{n-m}, y_{n-m+1}, y_{n-m+2} in one theta step with the
    delayed values (1-u) y_{n-m} + u y_{n-m+1} (explicit stage) and
    (1-u) y_{n-m+1} + u y_{n-m+2} (implicit stage)."""
    return ((1.0 - s.theta) * (1.0 - s.u),
            (1.0 - s.theta) * s.u + s.theta * (1.0 - s.u),
            s.theta * s.u)


def mode_rho(lams, gammas, s: Scheme) -> float:
    """rho(W) of a commuting pair from its eigenvalue pairs (lambda_i, gamma_i).

    For one mode, y_n = z^n solves the step recurrence iff
    z^{m+1} - z^m - y (theta z^{m+1} + (1-theta) z^m)
        + y mu (w2 z^2 + w1 z + w0) = 0
    with y = -h lambda, mu = gamma / lambda and (w0, w1, w2) the delay
    weights; rho(W) is the largest root modulus over all modes.
    """
    w0, w1, w2 = _delay_weights(s)
    m = s.m
    rho = 0.0
    for lam, gam in zip(np.asarray(lams, dtype=float), np.asarray(gammas, dtype=complex)):
        y = -s.h * lam
        ymu = y * gam / lam
        c = np.zeros(m + 2, dtype=complex)  # c[k] multiplies z^(m+1-k)
        c[0] += 1.0 - y * s.theta
        c[1] += -1.0 - y * (1.0 - s.theta)
        c[m - 1] += ymu * w2
        c[m] += ymu * w1
        c[m + 1] += ymu * w0
        rho = max(rho, float(np.max(np.abs(np.roots(c)))))
    return rho


def dense_w(a, b, s: Scheme) -> np.ndarray:
    """The one-step matrix on the stacked history (y_n, ..., y_{n-m})."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    h = s.h
    eye = np.eye(n)
    row = np.zeros((n, (s.m + 1) * n), dtype=np.result_type(a, b, 1.0))
    row[:, :n] += eye - (1.0 - s.theta) * h * a
    for col, w in zip((s.m, s.m - 1, s.m - 2), _delay_weights(s)):
        if w != 0.0:
            row[:, col * n:(col + 1) * n] += h * w * b
    w_mat = np.zeros(((s.m + 1) * n, (s.m + 1) * n), dtype=row.dtype)
    w_mat[:n] = np.linalg.solve(eye + s.theta * h * a, row)
    w_mat[n:, :-n] = np.eye(s.m * n)
    return w_mat


def dense_rho(a, b, s: Scheme) -> float:
    """rho(W) from dense eigenvalues of the benchmark's own W."""
    return float(np.max(np.abs(np.linalg.eigvals(dense_w(a, b, s)))))


@dataclass(frozen=True)
class Ex1Reference:
    """Example1's theta-method solution at one m: grid times, the 2-norm of
    every state, and the final errors (v1, v2) against the exact solution."""

    times: np.ndarray
    norms: np.ndarray
    errors: tuple


def example1_reference(m: int, theta: float = 1.0, grid_m: int = 100, l: float = -0.1,
                       t_end: float = 10.0 * math.pi) -> Ex1Reference:
    """Example1's discrete solution (unit diffusion, tau = pi/2, u = 0),
    computed in its one active mode.

    The history e^{lt} (sin t, cos t) sin(pi x / 2) lies in the first
    Dirichlet mode, which the second-difference matrix scales by -mu, so
    every state is (p_n, q_n) times the grid profile.  With w = p + i q the
    coupling acts as the scalar e^{l pi/2} (-1 - i c), and one step is
    (1 + theta h mu) w_{n+1} = (1 - (1-theta) h mu) w_n
        + h g ((1-theta) w_{n-m} + theta w_{n-m+1}).
    """
    tau = math.pi / 2.0
    h = tau / m
    dx = 2.0 / grid_m
    mu = (4.0 / dx ** 2) * math.sin(math.pi / (2 * grid_m)) ** 2
    profile = float(np.linalg.norm(np.sin(np.pi * dx * np.arange(1, grid_m) / 2.0)))
    g = math.exp(l * tau) * complex(-1.0, -(l + math.pi ** 2 / 4.0))
    n_steps = math.ceil(t_end / h - 1e-9)
    w = [0j] * (m + n_steps + 1)          # w[k] is the state at step k - m
    for k in range(m + 1):
        t = h * (k - m)
        w[k] = math.exp(l * t) * complex(math.sin(t), math.cos(t))
    lhs = 1.0 + theta * h * mu
    keep = 1.0 - (1.0 - theta) * h * mu
    g_exp, g_imp = h * (1.0 - theta) * g, h * theta * g
    for k in range(m, m + n_steps):
        w[k + 1] = (keep * w[k] + g_exp * w[k - m] + g_imp * w[k - m + 1]) / lhs
    t = h * n_steps
    amp = math.exp(l * t)
    final = w[-1]
    errors = (abs(final.real - amp * math.sin(t)) * profile,
              abs(final.imag - amp * math.cos(t)) * profile)
    return Ex1Reference(h * np.arange(n_steps + 1), np.abs(np.array(w[m:])) * profile, errors)


# ---------------------------------------------------------------------------
# seeded and fixed inputs
# ---------------------------------------------------------------------------

def _rng(seed: int, stream: int) -> np.random.Generator:
    """One independent stream per input, so inputs do not shift each other."""
    return np.random.default_rng([seed, stream])


def example1_modes(grid_m: int, l: float):
    """Eigenvalue pairs of example1 (unit diffusion, tau = pi/2): each
    Dirichlet eigenvalue of -d^2/dx^2 on [0, 2] carries both coupling
    eigenvalues e^{l pi/2} (-1 +- i (l + pi^2/4))."""
    dx = 2.0 / grid_m
    lam = (4.0 / dx ** 2) * np.sin(np.arange(1, grid_m) * np.pi / (2 * grid_m)) ** 2
    scale = math.exp(l * math.pi / 2.0)
    c = l + math.pi ** 2 / 4.0
    lams = np.concatenate([lam, lam])
    gammas = np.concatenate([np.full(lam.size, scale * complex(-1.0, c)),
                             np.full(lam.size, scale * complex(-1.0, -c))])
    return lams, gammas


def perturbation(seed: int, b, rel: float = 1e-3) -> np.ndarray:
    """Dense seeded matrix with 2-norm rel * ||B||_2."""
    e = _rng(seed, 1).standard_normal(np.shape(b))
    return e * (rel * np.linalg.norm(b, 2) / np.linalg.norm(e, 2))


def random_pair(seed: int, n: int = 96, target: float = 0.6):
    """SPD A with spectrum in [1, 50] and non-symmetric B with ||A^-1 B||_2 = target."""
    g = _rng(seed, 2)
    q, _ = np.linalg.qr(g.standard_normal((n, n)))
    a = (q * g.uniform(1.0, 50.0, n)) @ q.T
    a = 0.5 * (a + a.T)
    b = g.standard_normal((n, n))
    b *= target / np.linalg.norm(np.linalg.solve(a, b), 2)
    return a, b


def simdiag_pair(seed: int, n: int = 30):
    """A = V diag(lambda) V^-1, B = V diag(gamma) V^-1 with distinct real
    lambda in [1, 20], real mu = gamma / lambda in [-0.9, 0.9] and a
    moderately conditioned non-orthogonal V."""
    g = _rng(seed, 3)
    lam = np.sort(1.0 + 19.0 * (np.arange(n) + g.uniform(0.2, 0.8, n)) / n)
    gamma = lam * g.uniform(-0.9, 0.9, n)
    q, _ = np.linalg.qr(g.standard_normal((n, n)))
    v = q @ (np.eye(n) + np.triu(g.uniform(-0.3, 0.3, (n, n)), 1))
    v_inv = np.linalg.inv(v)
    return (v * lam) @ v_inv, (v * gamma) @ v_inv, lam, gamma


def write_matrix(path, matrix) -> None:
    """Matrix JSON as ``ddestab`` reads it: rows, cols, [re, im] entries."""
    a = np.asarray(matrix, dtype=complex)
    doc = {"rows": a.shape[0], "cols": a.shape[1],
           "entries": [[float(v.real), float(v.imag)] for v in a.ravel()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# operations and verification
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One call of ``ddestab.cli.main(argv)`` with its output check."""

    name: str
    argv: list
    sizes: dict
    verify: object          # callable() -> None or a failure reason
    outputs: tuple          # files the call writes, removed before each call


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _finite_numbers(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return False


def judge_check(report: dict, ref_rho: float, dim_w: int, expect=None):
    """Failure reason for a ``check`` report against the reference rho(W), or None.

    ``expect`` is "stable" or "unstable" where the paper fixes the verdict.
    """
    if not _finite_numbers(report):
        return "report holds a non-finite number"
    verdict = report.get("verdict")
    if verdict not in VERDICTS:
        return f"unknown verdict {verdict!r}"
    if verdict in STABLE_CLASS and ref_rho >= 1.0 + RHO_TOL:
        return f"verdict {verdict} but reference rho(W) = {ref_rho:.12g}"
    if verdict == CERTIFIED_UNSTABLE and ref_rho < 1.0 - RHO_TOL:
        return f"verdict {verdict} but reference rho(W) = {ref_rho:.12g}"
    if expect == "stable" and verdict not in STABLE_CLASS:
        return f"paper verdict is stable, got {verdict}"
    if expect == "unstable" and verdict != CERTIFIED_UNSTABLE:
        return f"paper verdict is unstable, got {verdict}"
    radii = [1.0 - e["margin"] for e in report.get("evidence", ())
             if str(e.get("check", "")).startswith("oracle") and e.get("margin") is not None]
    if not radii and dim_w <= ORACLE_CAP:
        return f"no oracle radius reported at dim {dim_w}"
    for rho in radii:
        if abs(rho - ref_rho) > RADIUS_RTOL * ref_rho:
            return f"oracle rho(W) = {rho:.15g}, reference {ref_rho:.15g}"
    return None


def _check_op(name, a, b, s: Scheme, ref_rho, workdir, expect=None) -> Op:
    pa = os.path.join(workdir, f"{name}_a.json")
    pb = os.path.join(workdir, f"{name}_b.json")
    out = os.path.join(workdir, f"{name}.out.json")
    write_matrix(pa, a)
    write_matrix(pb, b)
    n = np.shape(a)[0]
    dim_w = (s.m + 1) * n
    argv = ["check", "--matrix-a", pa, "--matrix-b", pb, "--tau", repr(s.tau),
            "--m", str(s.m), "--theta", repr(s.theta), "--u", repr(s.u), "-o", out]

    def verify():
        return judge_check(_load_json(out), ref_rho, dim_w, expect)

    sizes = {"N": n, "m": s.m, "n_angles": DEFAULT_ANGLES, "dim_w": dim_w,
             "theta": s.theta, "u": s.u, "ref_rho": ref_rho}
    return Op(name, argv, sizes, verify, (out,))


def ex1_errors_reason(got, m: int, ref: Ex1Reference):
    """Failure reason for example1 errors (v1, v2), or None.  They must match
    the benchmark's own discrete solution; for m <= 100 they must also be
    within 5% of Table 1, and for larger m below the m = 100 errors."""
    for comp, (g, want) in enumerate(zip(got, ref.errors)):
        if not abs(g - want) <= ERRORS_RTOL * want:
            return f"v{comp + 1} error {g:.12g}, reference {want:.12g}"
    for comp, (g, paper) in enumerate(zip(got, TABLE1[min(m, 100)])):
        if m <= 100 and abs(g - paper) > TABLE1_RTOL * paper:
            return f"v{comp + 1} error {g:.6g} is more than 5% from Table 1 ({paper:g})"
        if m > 100 and not g < paper:
            return f"v{comp + 1} error {g:.6g} is not below the m=100 error {paper:g}"
    return None


def judge_solve(summary: dict, m: int = 0, ref: Ex1Reference = None):
    """Failure reason for a ``solve`` summary, or None.  With ``ref`` the run
    is example1 and its reported errors are judged; without, it is example2
    and its max-norm must be at most 1."""
    if not _finite_numbers(summary):
        return "summary holds a non-finite number"
    if summary.get("diverged"):
        return "run diverged"
    if ref is None:
        max_abs = summary.get("max_abs")
        if max_abs is None:
            return "no max-norm reported"
        return None if max_abs <= 1.0 else f"max-norm {max_abs:.6g} exceeds 1"
    errors = summary.get("errors")
    if not errors:
        return "no errors reported"
    return ex1_errors_reason((errors["v1"], errors["v2"]), m, ref)


def _csv_rows(path):
    """Header and data rows of a CSV file, each row as floats."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        return header, [np.array(line.split(","), dtype=float) for line in fh]


def judge_norm_csv(path, ref: Ex1Reference):
    """Check a ``--norm-only`` trajectory of example1: one row (t, 2-norm)
    per step, each matching the benchmark's own discrete solution."""
    _, rows = _csv_rows(path)
    if len(rows) != ref.times.size or any(r.size != 2 for r in rows):
        return f"{len(rows)} norm rows, expected {ref.times.size} rows of (t, norm)"
    got = np.array(rows)
    if not np.allclose(got[:, 0], ref.times, rtol=1e-12, atol=1e-12):
        return "trajectory times are off the grid"
    worst = int(np.argmax(np.abs(got[:, 1] - ref.norms) / ref.norms))
    if not abs(got[worst, 1] - ref.norms[worst]) <= NORM_RTOL * ref.norms[worst]:
        return f"norm {got[worst, 1]:.15g} at step {worst}, reference {ref.norms[worst]:.15g}"
    return None


def judge_trajectory_csv(path, m: int, ref: Ex1Reference):
    """Check the full written trajectory of example1 (grid M = 100): one row
    per step from t = 0 to 10 pi, and a final row whose errors against the
    exact solution match the reference and Table 1."""
    n = 99  # interior nodes of grid M = 100, per component
    header, rows = _csv_rows(path)
    if not header or len(rows) != ref.times.size:
        return f"{len(rows)} trajectory rows, expected {ref.times.size}"
    values = rows[-1]
    if values.size != 1 + 2 * n or not np.all(np.isfinite(values)):
        return f"final row is not {1 + 2 * n} finite numbers"
    if abs(values[0] - T_END_EX1) > 1e-9 * T_END_EX1:
        return f"final time {values[0]!r} is not 10 pi"
    x = 0.02 * np.arange(1, n + 1)
    shape = math.exp(-0.1 * T_END_EX1) * np.sin(np.pi * x / 2.0)
    exact = (math.sin(T_END_EX1) * shape, math.cos(T_END_EX1) * shape)
    errors = [float(np.linalg.norm(values[1 + n * c:1 + n * (c + 1)] - exact[c]))
              for c in (0, 1)]
    return ex1_errors_reason(errors, m, ref)


def _solve_op(name, problem, m, workdir, ref=None, n=198, csv=None) -> Op:
    """``csv`` is None, "norm" (``--norm-only``) or "full"."""
    out = os.path.join(workdir, f"{name}.out.json")
    argv = ["solve", *problem, "--m", str(m), "-o", out]
    outputs = (out,)
    csv_path = None
    if csv:
        csv_path = os.path.join(workdir, f"{name}.csv")
        argv += ["--out-csv", csv_path]
        argv += ["--norm-only"] if csv == "norm" else ["--keep-trajectory"]
        outputs += (csv_path,)

    def verify():
        reason = judge_solve(_load_json(out), m, ref)
        if reason is None and csv == "norm":
            reason = judge_norm_csv(csv_path, ref)
        elif reason is None and csv == "full":
            reason = judge_trajectory_csv(csv_path, m, ref)
        return reason

    sizes = {"N": n, "m": m, "n_angles": None, "dim_w": None, "csv": csv}
    return Op(name, argv, sizes, verify, outputs)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# workload -> (grid M, l) of the example1 pairs the program builds during
# set-up; why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "check": ((100, -0.1), (100, 0.1)),
    "oracle": ((30, -0.1),),
    "solve": (),
}


def build_ops(workload: str, seed: int, workdir: str, ex1_pairs: dict) -> list:
    """The operations of one workload, with their references computed now.

    ``ex1_pairs`` maps (grid M, l) to the example1 pair built by the program
    during set-up; the references for example1 come from its closed-form
    modes, never from those matrices.
    """
    if workload == "check":
        s_ex1 = Scheme(1.0, 0.0, 2, math.pi / 2.0)
        s_rand = Scheme(0.75, 0.0, 4, 1.0)
        s_m2 = Scheme(1.0, 0.0, 2, 1.0)
        s_m50 = Scheme(1.0, 0.0, 50, 1.0)
        a_u, b_u = ex1_pairs[(100, -0.1)]
        a_s, b_s = ex1_pairs[(100, 0.1)]
        b_s = b_s + perturbation(seed, b_s)
        a_r, b_r = random_pair(seed)
        return [
            _check_op("ex1_uncond", a_u, b_u, s_ex1,
                      mode_rho(*example1_modes(100, -0.1), s_ex1), workdir),
            _check_op("ex1_step", a_s, b_s, s_ex1, dense_rho(a_s, b_s, s_ex1), workdir),
            _check_op("random_pair", a_r, b_r, s_rand, dense_rho(a_r, b_r, s_rand), workdir),
            _check_op("ex31_m2", EX31_A, EX31_B, s_m2,
                      mode_rho(EX31_LAMBDA, EX31_GAMMA, s_m2), workdir, expect="stable"),
            _check_op("ex31_m50", EX31_A, EX31_B, s_m50,
                      mode_rho(EX31_LAMBDA, EX31_GAMMA, s_m50), workdir, expect="unstable"),
        ]
    if workload == "oracle":
        s_ex1 = Scheme(1.0, 0.0, 25, math.pi / 2.0)
        s_sd = Scheme(0.5, 0.5, 50, 1.0)
        a_sd, b_sd, lam_sd, gam_sd = simdiag_pair(seed)
        return [
            _check_op("ex1_oracle", *ex1_pairs[(30, -0.1)], s_ex1,
                      mode_rho(*example1_modes(30, -0.1), s_ex1), workdir),
            _check_op("simdiag_oracle", a_sd, b_sd, s_sd,
                      mode_rho(lam_sd, gam_sd, s_sd), workdir),
        ]
    if workload == "solve":
        ex1 = ["--problem", "example1", "--grid-m", "100", "--l", "-0.1", "--theta", "1",
               "--t-end", repr(T_END_EX1)]
        ex2 = ["--problem", "example2", "--grid-m", "200", "--t-end", "10",
               "--keep-trajectory"]
        refs = {m: example1_reference(m) for m in (5, 25, 50, 100, 1000)}
        return [
            _solve_op("ex1_m5", ex1, 5, workdir, refs[5], csv="norm"),
            _solve_op("ex1_m25", ex1, 25, workdir, refs[25], csv="norm"),
            _solve_op("ex1_m50", ex1, 50, workdir, refs[50], csv="norm"),
            _solve_op("ex1_m100", ex1, 100, workdir, refs[100]),
            _solve_op("ex1_m1000", ex1, 1000, workdir, refs[1000]),
            _solve_op("ex1_csv", ex1, 100, workdir, refs[100], csv="full"),
            _solve_op("ex2_be", ex2 + ["--theta", "1"], 20, workdir, n=199 ** 2),
            _solve_op("ex2_cn", ex2 + ["--theta", "0.5"], 10, workdir, n=199 ** 2),
        ]
    raise ValueError(f"unknown workload {workload!r}")
