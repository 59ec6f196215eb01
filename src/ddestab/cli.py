"""Command-line front end: it parses arguments, calls the library and
prints the result; every analysis lives in the library.

Subcommands::

    ddestab check      stability report for a matrix pair (JSON)
    ddestab region     CSV samples of the region boundary Gamma_y
    ddestab fov        CSV samples of a field-of-values boundary
    ddestab solve      integrate a built-in or user-supplied problem
    ddestab reproduce  rerun a golden target and compare stored values

Exit codes: 0 success, 1 reproduction mismatch, 2 usage or parse error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fov, mol, reproduce, solver, stability
from .errors import DdeStabError


# ---------------------------------------------------------------------------
# matrix file I/O: {"rows": n, "cols": n, "entries": [[re, im], ...]}
# ---------------------------------------------------------------------------

class MatrixFileError(Exception):
    pass


def read_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    try:
        rows, cols = int(doc["rows"]), int(doc["cols"])
        entries = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFileError(f"{path}: need rows, cols and entries fields") from exc
    k = None
    try:
        if rows < 1 or cols < 1 or len(entries) != rows * cols:
            raise MatrixFileError(
                f"{path}: entry count {len(entries)} does not match {rows}x{cols}")
        values = np.empty(rows * cols, dtype=complex)
        for k, entry in enumerate(entries):
            if isinstance(entry, (int, float)):
                re, im = float(entry), 0.0
            elif isinstance(entry, (list, tuple)) and 1 <= len(entry) <= 2:
                re = float(entry[0])
                im = float(entry[1]) if len(entry) == 2 else 0.0
            else:
                raise MatrixFileError(f"{path}: entry {k} must be re or [re, im]")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise MatrixFileError(f"{path}: entry {k} is not finite")
            values[k] = complex(re, im)
    except (TypeError, ValueError, OverflowError) as exc:
        # a non-list entries field, or a re / im that is not a number
        where = ("entries must be a list" if k is None
                 else f"entry {k} must be re or [re, im]")
        raise MatrixFileError(f"{path}: {where}") from exc
    matrix = values.reshape(rows, cols)
    if np.all(matrix.imag == 0.0):
        return matrix.real.copy()
    return matrix


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# The verdict merge lives in the library; the benchmark's layer trace hooks
# it under this name, so the alias stays and ``_cmd_check`` calls through it.
consolidated_check = stability.certify


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _parse_p_grid(text: str):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise MatrixFileError(f"bad p grid {text!r}") from exc


def _cmd_check(args) -> int:
    a = read_matrix(args.matrix_a)
    b = read_matrix(args.matrix_b)
    scheme = stability.ThetaScheme(theta=args.theta, u=args.u, m=args.m, tau=args.tau)
    report = consolidated_check(a, b, scheme, _parse_p_grid(args.p_grid),
                                args.n_angles, args.oracle_cap)
    _write_text(args.output, report.to_json() + "\n")
    return 0


def _cmd_region(args) -> int:
    # Gamma_y depends on theta, m and y only; the tau here just completes the scheme
    scheme = stability.ThetaScheme(theta=args.theta, u=0.0, m=args.m, tau=1.0)
    stability.gamma_y(scheme, args.y, args.n).to_csv(args.output)
    return 0


def _cmd_fov(args) -> int:
    a = read_matrix(args.matrix)
    if args.matrix_b is not None:
        a = fov.transformed_matrix(a, read_matrix(args.matrix_b), args.p or 0.0)
    elif args.p is not None:
        raise MatrixFileError("--p needs --matrix-b")
    fov.fov_boundary(a, args.n).to_csv(args.output)
    return 0


def _build_problem(args):
    if args.problem == "example1":
        tau = args.tau if args.tau is not None else math.pi / 2.0
        problem = mol.build_example1(args.grid_m, args.lambda1, args.lambda2,
                                     args.l, tau)
        t_end = args.t_end if args.t_end is not None else 10.0 * math.pi
        return problem.dde, problem, t_end
    if args.problem == "example2":
        tau = args.tau if args.tau is not None else 1.0
        problem = mol.build_example2(args.grid_m, args.lam, args.mu, tau)
        t_end = args.t_end if args.t_end is not None else 10.0
        return problem.dde, problem, t_end
    # generic linear problem from matrix files
    if args.matrix_a is None or args.matrix_b is None or args.tau is None:
        raise MatrixFileError("--problem linear needs --matrix-a, --matrix-b, --tau")
    a = read_matrix(args.matrix_a)
    b = read_matrix(args.matrix_b)
    if args.history_const is not None:
        try:
            hist0 = np.array([float(t) for t in args.history_const.split(",")])
        except ValueError as exc:
            raise MatrixFileError(f"bad history vector {args.history_const!r}") from exc
    else:
        hist0 = np.ones(a.shape[0])
    if hist0.shape != (a.shape[0],):
        raise MatrixFileError("history vector length does not match the matrices")
    dde = solver.LinearDDE(a=a, b=b, tau=args.tau, history=lambda t: hist0)
    t_end = args.t_end if args.t_end is not None else 10.0 * args.tau
    return dde, None, t_end


def _norm(state):
    """2-norm of a state (hypot does not overflow where the squares do), or
    None, written as JSON null, when it is not finite."""
    with np.errstate(over="ignore"):
        value = float(np.linalg.norm(state))
    if not math.isfinite(value):
        value = float(np.hypot.reduce(np.abs(state)))
    return value if math.isfinite(value) else None


def _cmd_solve(args) -> int:
    dde, problem, t_end = _build_problem(args)
    scheme = stability.ThetaScheme(theta=args.theta, u=args.u, m=args.m, tau=dde.tau)
    # a CSV holds every state, so --out-csv implies full retention
    keep = args.keep_trajectory or bool(args.out_csv)

    if isinstance(dde, solver.LinearDDE):
        traj = solver.solve_linear(dde, scheme, t_end, keep_trajectory=keep)
    else:
        traj = solver.solve_semilinear(dde, scheme, t_end, keep_trajectory=keep)

    summary = {
        "problem": args.problem,
        "dim": dde.dim,
        "scheme": scheme.to_dict(),
        "t_end": traj.final_time,
        "steps": round(traj.final_time / scheme.h),
        "initial_norm": _norm(dde.history(0.0)),
        "final_norm": _norm(traj.final_state),
        "diverged": bool(traj.diverged),
        "max_abs": traj.peak_max_norm if math.isfinite(traj.peak_max_norm) else None,
        "max_norm_le_1": bool(traj.peak_max_norm <= 1.0 + 1e-12),
    }
    if problem is not None and problem.exact is not None and not traj.diverged:
        summary["errors"] = {
            f"v{c + 1}": problem.discrete_error(traj, traj.final_time, c)
            for c in range(problem.n_components)
        }
    if args.out_csv:
        traj.to_csv(args.out_csv, norm_only=args.norm_only)
        summary["trajectory_csv"] = args.out_csv
    _write_text(args.summary, json.dumps(summary, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_reproduce(args) -> int:
    result = reproduce.run_target(args.target, full=args.full, outdir=args.outdir)
    print(result.report())
    n_fail = sum(not r.passed for r in result.rows)
    print(f"{result.name}: {len(result.rows) - n_fail}/{len(result.rows)} checks passed")
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddestab",
        description="Theta-method stability certification and integration "
                    "for y' = -A y + B y(t - tau).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="stability report for a matrix pair")
    p_check.add_argument("--matrix-a", required=True)
    p_check.add_argument("--matrix-b", required=True)
    p_check.add_argument("--tau", type=float, required=True)
    p_check.add_argument("--m", type=int, required=True)
    p_check.add_argument("--theta", type=float, default=1.0)
    p_check.add_argument("--u", type=float, default=0.0)
    p_check.add_argument("--p-grid", default="0,1,2")
    p_check.add_argument("--n-angles", type=int, default=fov.DEFAULT_ANGLES)
    p_check.add_argument("--oracle-cap", type=int, default=stability.ORACLE_CAP)
    p_check.add_argument("-o", "--output", default=None)
    p_check.set_defaults(func=_cmd_check)

    p_region = sub.add_parser("region", help="CSV samples of Gamma_y (u = 0)")
    p_region.add_argument("--y", type=float, required=True)
    p_region.add_argument("--m", type=int, required=True)
    p_region.add_argument("--theta", type=float, default=1.0)
    p_region.add_argument("--n", type=int, default=512)
    p_region.add_argument("-o", "--output", default=None)
    p_region.set_defaults(func=_cmd_region)

    p_fov = sub.add_parser("fov", help="CSV samples of a field-of-values boundary")
    p_fov.add_argument("--matrix", required=True)
    p_fov.add_argument("--matrix-b", default=None,
                       help="with B: boundary of F(A^{p/2-1} B A^{-p/2})")
    p_fov.add_argument("--p", type=float, default=None)
    p_fov.add_argument("--n", type=int, default=fov.DEFAULT_ANGLES)
    p_fov.add_argument("-o", "--output", default=None)
    p_fov.set_defaults(func=_cmd_fov)

    p_solve = sub.add_parser("solve", help="integrate a delay problem")
    p_solve.add_argument("--problem", choices=("example1", "example2", "linear"),
                         required=True)
    p_solve.add_argument("--m", type=int, required=True,
                         help="delay resolution: h = tau / (m - u)")
    p_solve.add_argument("--theta", type=float, default=1.0)
    p_solve.add_argument("--u", type=float, default=0.0)
    p_solve.add_argument("--tau", type=float, default=None)
    p_solve.add_argument("--t-end", type=float, default=None)
    p_solve.add_argument("--grid-m", type=int, default=100)
    p_solve.add_argument("--l", type=float, default=-0.1)
    p_solve.add_argument("--lambda1", type=float, default=1.0)
    p_solve.add_argument("--lambda2", type=float, default=1.0)
    p_solve.add_argument("--lam", type=float, default=0.5)
    p_solve.add_argument("--mu", type=float, default=3.0)
    p_solve.add_argument("--matrix-a", default=None)
    p_solve.add_argument("--matrix-b", default=None)
    p_solve.add_argument("--history-const", default=None,
                         help="comma-separated constant history vector")
    p_solve.add_argument("--keep-trajectory", action="store_true",
                         help="hold every state in memory (changes no output)")
    p_solve.add_argument("--norm-only", action="store_true")
    p_solve.add_argument("--out-csv", default=None,
                         help="write every state (implies --keep-trajectory)")
    p_solve.add_argument("-o", "--summary", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_rep = sub.add_parser("reproduce", help="rerun a golden target")
    p_rep.add_argument("--target", choices=reproduce.TARGETS, required=True)
    p_rep.add_argument("--full", action="store_true",
                       help="include the m=1000 column of the error table")
    p_rep.add_argument("--outdir", default=".")
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DdeStabError as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
