"""Command-line front end: it parses arguments, calls the library and
prints the result; every analysis lives in the library.

Subcommands::

    ddestab check      stability report for a matrix pair (JSON)
    ddestab region     CSV samples of the region boundary Gamma_y
    ddestab fov        CSV samples of a field-of-values boundary
    ddestab solve      integrate a built-in or user-supplied problem
    ddestab reproduce  rerun a golden target and compare stored values

Exit codes: 0 success, 1 reproduction mismatch, 2 usage, parse or file
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import re
import sys
from contextlib import nullcontext

import numpy as np

from . import fov, mol, reproduce, solver, stability
from .errors import DdeStabError


# ---------------------------------------------------------------------------
# matrix file I/O: {"rows": n, "cols": n, "entries": [x, ...] or [[re, im], ...]}
# ---------------------------------------------------------------------------

class MatrixFileError(Exception):
    pass


def read_matrix(path) -> np.ndarray:
    """Entries, row-major: all finite JSON numbers or all finite ``[re, im]`` pairs.

    The cyclic garbage collector is paused from the decode until the
    decoded document is released: a 198 x 198 file of pairs makes 39,204
    lists, and with numpy and scipy loaded, their allocations alone set off
    collector passes that made up about a third of the read.  The lists
    hold no cycles, so those passes free nothing.  Re-enabling only after
    the lists are freed keeps the next allocation from walking them.  The
    collector's state is restored on every return and error: enabled only
    if it was before.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _decode_matrix(path)  # the document dies with this call's frame
    finally:
        if enabled:
            gc.enable()


def _decode_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    try:
        rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    except (KeyError, TypeError) as exc:
        raise MatrixFileError(f"{path}: need rows, cols and entries fields") from exc
    if not all(type(n) is int for n in (rows, cols)):  # not 2.5, "2" or true
        raise MatrixFileError(f"{path}: rows and cols must be integers")
    if not isinstance(entries, list):
        raise MatrixFileError(f"{path}: entries must be a list")
    if rows < 1 or cols < 1 or len(entries) != rows * cols:
        raise MatrixFileError(
            f"{path}: entry count {len(entries)} does not match {rows}x{cols}")
    values, fault = _parse_entries(entries)
    if fault:  # some entry breaks the rule beside entry 0: name the first
        k, fault = next((k, f) for k, entry in enumerate(entries)
                        if (f := _parse_entries([entries[0], entry])[1]))
        raise MatrixFileError(f"{path}: entry {k} {fault}")
    # pairs become a complex view of the floats: no copy, every bit kept
    matrix = (values if values.ndim == 1 else values.view(complex)).reshape(rows, cols)
    return matrix.real.copy() if values.ndim == 2 and not matrix.imag.any() else matrix


def _parse_entries(entries):
    """(k,) or (k, 2) floats and None, or None and the fault; ints fit int64 or uint64."""
    try:
        pairs = {*map(len, entries)} == {2}
    except TypeError:  # some entry is a number, true, false or null
        pairs = False
    try:
        if pairs:  # one flat list spares numpy the nested-list shape discovery
            flat = np.array(list(itertools.chain.from_iterable(entries)))
            # not 1-D: some pair holds lists, e.g. [[1], [2]]
            values = flat.reshape(-1, 2) if flat.ndim == 1 else np.array(None)
        else:
            values = np.array(entries)
    except ValueError:  # ragged: numbers mixed with lists, or lists of unequal length
        values = np.array(None)
    if values.dtype.kind not in "biuf" or values.shape[1:] not in ((), (2,)):
        return None, "must be re or [re, im]"
    if not np.all(np.isfinite(values)):
        return None, "is not finite"
    return values.astype(float, copy=False), None


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
        grid = tuple(float(tok) for tok in text.split(","))  # "" and "0,,1" fail here
    except ValueError as exc:
        raise MatrixFileError(f"bad p grid {text!r}") from exc
    if not all(map(math.isfinite, grid)):
        raise MatrixFileError(f"bad p grid {text!r}: every p must be finite")
    return grid


def _cmd_check(args) -> int:
    a, b = read_matrix(args.matrix_a), read_matrix(args.matrix_b)
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
    if args.p is not None and not math.isfinite(args.p):
        raise MatrixFileError(f"bad p {args.p!r}: p must be finite")
    a = read_matrix(args.matrix)
    if args.matrix_b is not None:
        a = fov.transformed_matrix(a, read_matrix(args.matrix_b), args.p or 0.0)
    elif args.p is not None:
        raise MatrixFileError("--p needs --matrix-b")
    fov.fov_boundary(a, args.n).to_csv(args.output)
    return 0


# The solve options that only some problems read.  These, and --tau and
# --t-end, whose defaults depend on the problem, are in ``args`` only when given.
_READ_BY = {"example1": ("grid_m", "lambda1", "lambda2", "l"),
            "example2": ("grid_m", "lam", "mu"),
            "linear": ("matrix_a", "matrix_b", "history_const")}


def _build_problem(args):
    unread = [name for names in _READ_BY.values() for name in names
              if hasattr(args, name) and name not in _READ_BY[args.problem]]
    if unread:
        raise MatrixFileError(f"--problem {args.problem} does not read "
                              f"--{unread[0].replace('_', '-')}")
    opt = vars(args).get
    if args.problem == "example1":
        problem = mol.build_example1(opt("grid_m", 100), opt("lambda1", 1.0),
                                     opt("lambda2", 1.0), opt("l", -0.1),
                                     opt("tau", math.pi / 2.0))
        return problem.dde, problem, opt("t_end", 10.0 * math.pi)
    if args.problem == "example2":
        problem = mol.build_example2(opt("grid_m", 100), opt("lam", 0.5), opt("mu", 3.0),
                                     opt("tau", 1.0))
        return problem.dde, problem, opt("t_end", 10.0)
    # generic linear problem from matrix files
    if opt("matrix_a") is None or opt("matrix_b") is None or opt("tau") is None:
        raise MatrixFileError("--problem linear needs --matrix-a, --matrix-b, --tau")
    a, b = read_matrix(args.matrix_a), read_matrix(args.matrix_b)
    if opt("history_const") is not None:
        try:
            hist0 = np.array([float(t) for t in args.history_const.split(",")])
        except ValueError as exc:
            raise MatrixFileError(f"bad history vector {args.history_const!r}") from exc
    else:
        hist0 = np.ones(a.shape[0])
    if hist0.shape != (a.shape[0],):
        raise MatrixFileError("history vector length does not match the matrices")
    dde = solver.LinearDDE(a=a, b=b, tau=args.tau, history=lambda t: hist0)
    return dde, None, opt("t_end", 10.0 * args.tau)


def _norm(state):
    """``solver.state_norm`` of a state, or None (JSON null) when it is
    not finite."""
    value = solver.state_norm(state)
    return value if math.isfinite(value) else None


def _cmd_solve(args) -> int:
    if args.norm_only and not args.out_csv:
        raise MatrixFileError("--norm-only needs --out-csv")
    dde, problem, t_end = _build_problem(args)
    scheme = stability.ThetaScheme(theta=args.theta, u=args.u, m=args.m, tau=dde.tau)
    run = solver.solve_linear if isinstance(dde, solver.LinearDDE) else solver.solve_semilinear
    sink = solver.csv_sink(args.out_csv, args.norm_only) if args.out_csv else nullcontext()
    with sink as on_block:
        traj = run(dde, scheme, t_end, on_block=on_block)

    summary = {
        "problem": args.problem,
        "dim": dde.dim,
        "scheme": scheme.to_dict(),
        "t_end": traj.final_time,
        "steps": traj.stats.steps,
        "initial_norm": _norm(dde.history(0.0)),
        "final_norm": _norm(traj.final_state),
        "diverged": bool(traj.diverged),
        "max_abs": traj.peak_max_norm if math.isfinite(traj.peak_max_norm) else None,
        "max_norm_le_1": bool(traj.peak_max_norm <= 1.0 + 1e-12),
    }
    if problem is not None and problem.exact is not None and not traj.diverged:
        summary["errors"] = {
            f"v{c + 1}": problem.discrete_error(traj.final_state, traj.final_time, c)
            for c in range(problem.n_components)
        }
    if args.out_csv:
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

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads an argument starting with "-" and a
    digit, or "-." and a digit, as a value, as argparse does from Python
    3.13 on: ``--y -1e-3``, ``--p-grid -1,0``.  Older versions took only
    plain forms such as -2 and -0.5 for values and the rest for unknown
    options.  "-inf" and every option ddestab does not know stay options.
    Its subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ddestab parser, built once per process: ``parse_args`` keeps no
    state between calls, so every call of ``main`` can share it."""
    parser = _Parser(
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
    p_check.add_argument("--n-angles", type=int, default=fov.DEFAULT_ANGLES,
                         help="finest grid of field-of-values directions: the "
                              "unconditional stage refines its sweeps up to it, the "
                              "step stage, like the fov command, uses every direction")
    p_check.add_argument("--oracle-cap", type=int, default=stability.ORACLE_CAP,
                         help="largest dim W = (m+1)N whose dense rho(W) is computed; "
                              "a pair with modes gets rho(W) per mode at any dim")
    p_check.add_argument("-o", "--output", default=None)
    p_check.set_defaults(func=_cmd_check)

    p_region = sub.add_parser("region", help="CSV samples of Gamma_y (u = 0)")
    p_region.add_argument("--y", type=float, required=True,
                          help="y = -h*lambda < 0, for a step h and an eigenvalue lambda of A")
    p_region.add_argument("--m", type=int, required=True,
                          help="delay steps: h = tau / m")
    p_region.add_argument("--theta", type=float, default=1.0,
                          help="weight of the implicit stage of the theta method")
    p_region.add_argument("--n", type=int, default=512,
                          help="sets the grid of Gamma_y: 2 (n // 2) + 1 samples, "
                               "symmetric about alpha = 0")
    p_region.add_argument("-o", "--output", default=None,
                          help="CSV file to write (default: standard output)")
    p_region.set_defaults(func=_cmd_region)

    p_fov = sub.add_parser("fov", help="CSV samples of a field-of-values boundary")
    p_fov.add_argument("--matrix", required=True,
                       help="matrix file of M, or of A with --matrix-b")
    p_fov.add_argument("--matrix-b", default=None,
                       help="with B: boundary of F(A^{p/2-1} B A^{-p/2})")
    p_fov.add_argument("--p", type=float, default=None,
                       help="the p of the transform (default 0); needs --matrix-b")
    p_fov.add_argument("--n", type=int, default=fov.DEFAULT_ANGLES,
                       help="number of equispaced directions sampled")
    p_fov.add_argument("-o", "--output", default=None,
                       help="CSV file to write (default: standard output)")
    p_fov.set_defaults(func=_cmd_fov)

    p_solve = sub.add_parser("solve", help="integrate a delay problem")
    p_solve.add_argument("--problem", choices=("example1", "example2", "linear"),
                         required=True)
    p_solve.add_argument("--m", type=int, required=True,
                         help="delay resolution: h = tau / (m - u)")
    p_solve.add_argument("--theta", type=float, default=1.0)
    p_solve.add_argument("--u", type=float, default=0.0)
    p_solve.add_argument("--tau", type=float, default=argparse.SUPPRESS)
    p_solve.add_argument("--t-end", type=float, default=argparse.SUPPRESS)
    p_solve.add_argument("--grid-m", type=int, default=argparse.SUPPRESS)
    p_solve.add_argument("--l", type=float, default=argparse.SUPPRESS)
    p_solve.add_argument("--lambda1", type=float, default=argparse.SUPPRESS)
    p_solve.add_argument("--lambda2", type=float, default=argparse.SUPPRESS)
    p_solve.add_argument("--lam", type=float, default=argparse.SUPPRESS)
    p_solve.add_argument("--mu", type=float, default=argparse.SUPPRESS)
    p_solve.add_argument("--matrix-a", default=argparse.SUPPRESS)
    p_solve.add_argument("--matrix-b", default=argparse.SUPPRESS)
    p_solve.add_argument("--history-const", default=argparse.SUPPRESS,
                         help="comma-separated constant history vector")
    p_solve.add_argument("--keep-trajectory", action="store_true",
                         help="ignored: a run holds its last m + 2 states only")
    p_solve.add_argument("--norm-only", action="store_true")
    p_solve.add_argument("--out-csv", default=None,
                         help="write every state to this CSV file as it is stepped")
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
    except (MatrixFileError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DdeStabError as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
