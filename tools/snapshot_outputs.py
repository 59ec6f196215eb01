"""Write every user-visible output of one ddestab source tree into a directory.

    python3 tools/snapshot_outputs.py --tree PATH --out DIR [--seed N]

The snapshot holds what the command line prints and writes for:

* the seeded ``check``, ``oracle`` and ``solve`` operations of the
  benchmark (``bench/workloads.build_ops``), with their input files;
* the four ``reproduce`` targets, ``table1`` with ``--full``;
* ``region`` (also at ``--y -1e-3``, a negative value in exponent form),
  ``fov`` with and without ``--matrix-b``, trajectory CSVs of
  example1 at theta = 1/2, of example2 (M = 16) at theta = 1 and 1/2 and
  of a decaying ``--problem linear`` run at theta = 1/2, u = 1/2, so that
  every stepping path shows its states; and a few inputs at the edges
  (``fov --p`` without ``--matrix-b``, a diverging ``solve`` with and
  without a norm-only CSV and with ``--norm-only`` but no CSV,
  ``solve-kept-too-long``: an example1 ``solve --out-csv`` at
  ``--t-end 1e17``, whose 3.2e17 steps pass the solver's step bound,
  ``solve-halt-at-last-step`` and ``solve-halt-before-last-step``: a
  ``--problem linear`` run with a CSV whose overflow guard trips at step
  33, its last step at ``--t-end 8.25`` and not at ``--t-end 12``,
  ``check --p-grid nan``, matrix files whose
  ``rows`` is 2.5 or whose entries are ``[re]`` lists, mixed or hold a
  string, and ``check`` of example 3.1 with ``--n-angles 4`` and with an
  empty ``--p-grid``);
* ``check`` of example1 (M = 100, l = +0.1) at m = 30, a pair with modes
  whose dim W, 6138, is above the default ``--oracle-cap``;
* ``check`` of two non-commuting pairs at theta = 1: an SPD A whose
  unconditional sweep fails at every p, so that the step certificate
  sweeps every p again, and a non-Hermitian A, which both field-of-values
  certificates refuse;
* ``check-non-normal-a``: a non-Hermitian A whose Hermitian part is
  positive definite, with F(A^{-1} B) inside the unit disk, stable at
  tau = 1 but not at tau = 0.01; and ``check-singular-a``: A = diag(1, 0),
  for which the dense rho(W) decides;
* ``check`` of two pairs that the unconditional certificate decides at
  p = 0 on a refined sweep: a real pair on a grid of ``--n-angles 100``
  (not a power of two), and a complex B, whose directions are all solved
  and none mirrored, with w(A^{-1} B) = 0.95, so that arcs are bisected;
* ``check-norm-overflow``: ``check`` of a pair with finite entries near
  1e308 whose scaled norm overflows, and ``check-transform-overflow``: a
  pair in range whose A^{-1} B has an overflowing scaled norm, so each p
  is skipped and the dense rho(W) decides;
* ``check`` at theta = 1, m = 2, tau = 1 of two 1 x 1 pairs:
  ``check-mode-root-overflow``: A = [[1]], B = [[-1e206]], whose mode row
  has roots of modulus 5.8e102, so (1 + |z|)^3 overflows; and
  ``check-mode-ratio-overflow``: A = [[1e-10]], B = [[1e300]], whose mode
  ratio gamma / lambda overflows, so the pair has no modes and the dense
  rho(W) decides;
* ``check`` at theta = 1, m = 1, tau = 1e10 of two more 1 x 1 pairs with
  modes: ``check-mode-product-overflow``: A = [[1]], B = [[1e300]], whose
  y mu = -1e310 overflows, though its largest root, near 1e300, does not;
  and ``check-mode-y-overflow``: A = [[1e300]], B = [[1e299]], whose y =
  -h lambda = -1e310 overflows, with |mu| = 0.1;
* ``check`` at theta = 1, m = 1, tau = 1e10 of two 2 x 2 pairs without
  modes: ``check-dense-w-overflow``: A = diag(1e300, 1), B = [[0, 1e-3],
  [2e-3, 0]], whose h A overflows, so the dense W is skipped, and A fails
  the positive definite test; and ``check-step-y-overflow``: A =
  diag(2e300, 1e300), B = [[0, 3e300], [3e300, 0]], whose y = -h
  lambda_max(A) overflows in the step stage;
* ``check-w-row-overflow``: ``check`` at theta = 1, m = 1, tau = 1 of A =
  diag(-1 + 1e-13, 1), B = [[0, 1e300], [1e300, 0]], whose blocks T_k are
  finite but whose first block row of W overflows, so the dense W is
  skipped;
* ``solve`` given options that the chosen problem does not read;
* ``check-pair-NAME``: ``check`` with an A file of ``[re, im]`` pairs
  whose entry 2 is not a pair of finite numbers: a pair holding a list
  (``pair-list``), a pair of one-element lists (``pair-of-lists``), the
  string ``"ab"`` (``string``), a two-key object (``object``), a pair
  holding null (``null``), an integer past uint64 (``int-past-uint64``),
  ``NaN`` (``nan``) or ``Infinity`` (``infinity``); and ``check-pair-bools``,
  whose entry 2 is ``[true, false]``, which reads as 1;
* sizes that need at least 2^63 bytes, which numpy refuses before it
  allocates: ``solve`` of example1 at ``--grid-m 10000000000`` and of
  example2 at ``--grid-m 2000000000000000000``, ``region --n``,
  ``fov --n`` and ``check --n-angles`` (of a non-commuting pair) at
  100000000000000000000, and ``check --m 2000000000000000000`` of A =
  [[1]], B = [[0.5]] (``check-m-too-large``);
* the ``--help`` of ``ddestab`` and of every subcommand;
* ``imports.out``: the ``scipy.<subpackage>`` names (sorted) that each of
  five calls loads when it runs alone in a fresh interpreter (with
  ``PYTHONPATH=PATH/src`` and ``PYTHONDONTWRITEBYTECODE=1``): ``solve`` of
  example1 and of example2, ``check`` of example1 (M = 20, l = -0.1),
  ``region`` and ``check`` of a non-commuting pair.  A change that makes a
  path import more or less of scipy shows there.

Each call leaves ``NAME.out`` (exit code, standard output, standard error)
next to the files it wrote; an exception that escapes ``main`` is written
in place of the exit code.  Two snapshots taken with the same ``--seed``
show every changed byte with ``diff -r DIR1 DIR2``, so a change meant to
keep outputs byte-identical can be checked against its parent tree: unpack
the parent into a directory (``git archive``) and snapshot both.

``ddestab`` is imported from ``PATH/src`` only; the operations and their
inputs come from the ``bench/`` next to this script, which is only read,
so both snapshots run the same calls.  BLAS is pinned to one thread
before numpy loads, because some outputs (the ``figures`` CSVs) change
in their last digits with the thread count.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width

sys.dont_write_bytecode = True  # leave bench/ and the tree untouched

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SUBCOMMANDS = ("check", "region", "fov", "solve", "reproduce")


def import_program(tree: Path):
    """Import ddestab from ``tree/src``, and nowhere else."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import ddestab.cli

    if not Path(ddestab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ddestab imported from {ddestab.__file__}, not from {src}")
    return ddestab


def run(main, name: str, argv: list) -> None:
    """Call ``main(argv)`` and write its exit code and output to NAME.out."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
        except Exception as exc:  # a traceback on the command line
            code = f"uncaught {type(exc).__name__}: {exc}"
    text = (f"$ ddestab {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    Path(f"{name}.out").write_text(text, encoding="utf-8")


# Run one CLI call, print the scipy subpackages it loaded and exit with its code.
IMPORT_PROBE = """\
import contextlib, io, sys
from ddestab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(*sorted(name for name, module in sys.modules.items()
              if name.startswith("scipy.") and not name.startswith("scipy._")
              and name.count(".") == 1 and hasattr(module, "__path__")))
sys.exit(code)
"""


def import_footprints(src: Path, calls: dict) -> None:
    """Run each call in a fresh interpreter that imports ddestab from
    ``src`` and write ``imports.out``: its name, exit code and the scipy
    subpackages it loaded."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    lines = []
    for name, argv in calls.items():
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        lines.append(f"{name}: exit {done.returncode}: {done.stdout.strip() or '-'}\n")
    Path("imports.out").write_text("".join(lines), encoding="utf-8")


def snapshot(ddestab, seed: int) -> None:
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    main = ddestab.cli.main
    for workload, pairs in workloads.WORKLOADS.items():
        Path(workload).mkdir()
        problems = {(grid_m, l): ddestab.mol.build_example1(grid_m, l=l).stability_matrices()
                    for grid_m, l in pairs}
        for op in workloads.build_ops(workload, seed, workload, problems):
            run(main, os.path.join(workload, op.name), op.argv)

    targets = {"table1": ["--full"], "example31": [], "example2-condition": [],
               "figures": ["--outdir", "figures"]}
    for target, extra in targets.items():
        run(main, f"reproduce-{target}", ["reproduce", "--target", target, *extra])

    run(main, "region", ["region", "--y", "-2", "--m", "5", "-o", "region.csv"])
    run(main, "region-theta", ["region", "--y", "-0.5", "--m", "3", "--theta", "0.75",
                               "--n", "64"])
    run(main, "region-y-exponent", ["region", "--y", "-1e-3", "--m", "3", "--n", "64"])
    workloads.write_matrix("m.json", [[2.0, 1.0], [0.0, 3.0]])
    workloads.write_matrix("b.json", [[0.3, -0.2], [0.4, 0.1]])
    run(main, "fov", ["fov", "--matrix", "m.json", "--n", "32"])
    run(main, "fov-p1-without-b", ["fov", "--matrix", "m.json", "--n", "32", "--p", "1"])
    with_b = ["fov", "--matrix", "m.json", "--matrix-b", "b.json", "--n", "32"]
    run(main, "fov-b", with_b)
    for p in ("0", "1", "2"):
        run(main, f"fov-b-p{p}", with_b + ["--p", p])

    # a run that overflows: the halted state is finite, its square is not
    workloads.write_matrix("one.json", [[1.0]])
    workloads.write_matrix("huge.json", [[1e306]])
    linear = ["solve", "--problem", "linear", "--matrix-a", "one.json",
              "--matrix-b", "huge.json", "--tau", "1", "--m", "1", "--t-end", "50"]
    run(main, "solve-diverged", linear)
    run(main, "solve-diverged-kept", linear + ["--keep-trajectory"])
    run(main, "solve-diverged-norm-csv",
        linear + ["--out-csv", "diverged-norm.csv", "--norm-only"])
    run(main, "solve-norm-only-without-csv", linear + ["--norm-only"])
    # the guard trips at step 33 (t = 8.25): at the run's last step, and before it
    workloads.write_matrix("tera.json", [[1e12]])
    halting = ["solve", "--problem", "linear", "--matrix-a", "one.json", "--matrix-b",
               "tera.json", "--tau", "1", "--m", "4"]
    for name, t_end in (("at-last-step", "8.25"), ("before-last-step", "12")):
        run(main, f"solve-halt-{name}", halting + ["--t-end", t_end,
                                                   "--out-csv", f"halt-{name}.csv"])
    run(main, "solve-kept-too-long", ["solve", "--problem", "example1", "--grid-m", "10",
                                      "--m", "5", "--t-end", "1e17",
                                      "--out-csv", "too-long.csv"])
    run(main, "solve-ex1-cn-csv", ["solve", "--problem", "example1", "--grid-m", "20",
                                   "--m", "5", "--theta", "0.5", "--t-end", "5",
                                   "--out-csv", "ex1-cn.csv"])
    for name, theta in (("be", "1"), ("cn", "0.5")):
        run(main, f"solve-ex2-{name}-csv", ["solve", "--problem", "example2", "--grid-m", "16",
                                           "--m", "10", "--theta", theta, "--t-end", "3",
                                           "--out-csv", f"ex2-{name}.csv"])
    workloads.write_matrix("spd.json", [[2.0, 0.5], [0.5, 3.0]])
    run(main, "solve-linear-cn-csv", ["solve", "--problem", "linear", "--matrix-a", "spd.json",
                                      "--matrix-b", "b.json", "--tau", "1", "--m", "4",
                                      "--theta", "0.5", "--u", "0.5", "--t-end", "10",
                                      "--out-csv", "linear-cn.csv"])

    run(main, "check-p-grid-nan", ["check", "--matrix-a", "spd.json", "--matrix-b",
                                   "b.json", "--tau", "1", "--m", "2", "--p-grid", "nan"])
    Path("rows-float.json").write_text(
        '{"rows": 2.5, "cols": 2, "entries": [1, 0, 0, 1]}', encoding="utf-8")
    run(main, "fov-rows-float", ["fov", "--matrix", "rows-float.json", "--n", "8"])
    # entry forms outside "all numbers or all [re, im] pairs"
    for name, entries in {"re-only": "[[2], [0], [0], [3]]",
                          "mixed": "[[2, 0], 0, 0, [3, 0]]",
                          "string-part": '[[2, 0], [0, 0], [0, "0"], [3, 0]]'}.items():
        Path(f"{name}.json").write_text(
            f'{{"rows": 2, "cols": 2, "entries": {entries}}}', encoding="utf-8")
        run(main, f"fov-{name}", ["fov", "--matrix", f"{name}.json", "--n", "8"])

    workloads.write_matrix("ex31-a.json", ddestab.reproduce.EXAMPLE31_A)
    workloads.write_matrix("ex31-b.json", ddestab.reproduce.EXAMPLE31_B)
    ex31 = ["check", "--matrix-a", "ex31-a.json", "--matrix-b", "ex31-b.json",
            "--tau", "1", "--m", "2"]
    run(main, "check-ex31-n-angles-4", ex31 + ["--n-angles", "4"])
    run(main, "check-ex31-p-grid-empty", ex31 + ["--p-grid", ""])

    a, b = ddestab.mol.build_example1(100, l=0.1).stability_matrices()
    workloads.write_matrix("ex1-a.json", a)
    workloads.write_matrix("ex1-b.json", b)
    run(main, "check-ex1-above-cap", ["check", "--matrix-a", "ex1-a.json", "--matrix-b",
                                      "ex1-b.json", "--tau", repr(np.pi / 2.0), "--m", "30"])

    # rho(A^{-1} B) = 0.9, so no spectrum test rules the sweeps out
    gen = np.random.default_rng(0)
    q, _ = np.linalg.qr(gen.standard_normal((6, 6)))
    pairs = {"double-swept": ((q * np.linspace(1.0, 3.0, 6)) @ q.T, gen.standard_normal((6, 6))),
             "non-hermitian": (np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [0.0, 0.0, 4.0]]),
                               np.random.default_rng(3).standard_normal((3, 3)))}
    for name, (a, b) in pairs.items():
        b = b * (0.9 / np.max(np.abs(np.linalg.eigvals(np.linalg.solve(a, b)))))
        workloads.write_matrix(f"{name}-a.json", a)
        workloads.write_matrix(f"{name}-b.json", b)
        run(main, f"check-{name}", ["check", "--matrix-a", f"{name}-a.json", "--matrix-b",
                                    f"{name}-b.json", "--tau", "1", "--m", "2"])

    for name, (a, b) in {"non-normal-a": ([[1.6, -3.3], [3.9, 0.8]], [[0.8, -0.4], [0.6, 2.1]]),
                         "singular-a": ([[1.0, 0.0], [0.0, 0.0]], [[0.1, 0.2], [0.3, 0.1]])
                         }.items():
        workloads.write_matrix(f"{name}.json", a)
        workloads.write_matrix(f"{name}-b.json", b)
        run(main, f"check-{name}", ["check", "--matrix-a", f"{name}.json", "--matrix-b",
                                    f"{name}-b.json", "--tau", "1", "--m", "2", "--theta", "1"])

    # SPD A, and B scaled so that M_0 = A^{-1} B has numerical radius w,
    # taken as the largest lambda_max of its Hermitian part over 512 directions
    a = (q * np.linspace(1.0, 3.0, 6)) @ q.T
    pairs = {"refined-n-angles-100": (gen.standard_normal((6, 6)), 0.5, ["--n-angles", "100"]),
             "refined-complex-b": (gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6)),
                                   0.95, [])}
    for name, (b, w, extra) in pairs.items():
        m0 = np.linalg.solve(a, b)
        b = b * (w / max(np.linalg.eigvalsh(0.5 * (z * m0 + np.conj(z * m0).T))[-1]
                         for z in np.exp(2j * np.pi * np.arange(512) / 512)))
        workloads.write_matrix(f"{name}-a.json", a)
        workloads.write_matrix(f"{name}-b.json", b)
        run(main, f"check-{name}", ["check", "--matrix-a", f"{name}-a.json", "--matrix-b",
                                    f"{name}-b.json", "--tau", "1", "--m", "4",
                                    "--theta", "0.75", *extra])

    workloads.write_matrix("overflow-a.json", 1e308 * np.diag([1.0, 1.0001]))
    workloads.write_matrix("overflow-b.json", 1e308 * np.array([[0.5, 0.9], [0.9, 0.5]]))
    run(main, "check-norm-overflow", ["check", "--matrix-a", "overflow-a.json", "--matrix-b",
                                      "overflow-b.json", "--tau", "1", "--m", "2",
                                      "--theta", "1"])

    workloads.write_matrix("transform-overflow-a.json", 1e-300 * np.array([[2.0, 1.0],
                                                                         [1.0, 3.0]]))
    workloads.write_matrix("transform-overflow-b.json", 4e8 * np.array([[0.5, 0.3],
                                                                       [0.2, 0.4]]))
    run(main, "check-transform-overflow", ["check", "--matrix-a", "transform-overflow-a.json",
                                           "--matrix-b", "transform-overflow-b.json",
                                           "--tau", "1", "--m", "2", "--theta", "1"])

    for name, (a, b, tau, m) in {"root": ([[1.0]], [[-1e206]], "1", "2"),
                                 "ratio": ([[1e-10]], [[1e300]], "1", "2"),
                                 "product": ([[1.0]], [[1e300]], "1e10", "1"),
                                 "y": ([[1e300]], [[1e299]], "1e10", "1")}.items():
        workloads.write_matrix(f"mode-{name}-overflow-a.json", a)
        workloads.write_matrix(f"mode-{name}-overflow-b.json", b)
        run(main, f"check-mode-{name}-overflow",
            ["check", "--matrix-a", f"mode-{name}-overflow-a.json", "--matrix-b",
             f"mode-{name}-overflow-b.json", "--tau", tau, "--m", m, "--theta", "1"])

    for name, (a, b) in {"dense-w": (np.diag([1e300, 1.0]), [[0.0, 1e-3], [2e-3, 0.0]]),
                         "step-y": (np.diag([2e300, 1e300]), [[0.0, 3e300], [3e300, 0.0]])
                         }.items():
        workloads.write_matrix(f"{name}-overflow-a.json", a)
        workloads.write_matrix(f"{name}-overflow-b.json", b)
        run(main, f"check-{name}-overflow",
            ["check", "--matrix-a", f"{name}-overflow-a.json", "--matrix-b",
             f"{name}-overflow-b.json", "--tau", "1e10", "--m", "1", "--theta", "1"])

    workloads.write_matrix("w-row-overflow-a.json", np.diag([-1.0 + 1e-13, 1.0]))
    workloads.write_matrix("w-row-overflow-b.json", [[0.0, 1e300], [1e300, 0.0]])
    run(main, "check-w-row-overflow", ["check", "--matrix-a", "w-row-overflow-a.json",
                                       "--matrix-b", "w-row-overflow-b.json", "--tau", "1",
                                       "--m", "1", "--theta", "1"])

    run(main, "solve-example1-unread-options",
        ["solve", "--problem", "example1", "--grid-m", "10", "--m", "4", "--t-end", "1",
         "--history-const", "1,2", "--matrix-a", "nonexistent.json"])
    run(main, "solve-example2-unread-l", ["solve", "--problem", "example2", "--grid-m", "16",
                                          "--m", "4", "--t-end", "1", "--l", "0.1"])
    run(main, "solve-linear-unread-options", linear + ["--grid-m", "7", "--lam", "9"])

    for name, entry in {"pair-list": "[2, [0]]", "pair-of-lists": "[[0], [0]]",
                        "string": '"ab"', "object": '{"re": 1, "im": 0}',
                        "null": "[null, 0]", "int-past-uint64": "[18446744073709551616, 0]",
                        "nan": "[NaN, 0]", "infinity": "[Infinity, 0]",
                        "bools": "[true, false]"}.items():
        Path(f"pair-{name}.json").write_text(
            f'{{"rows": 2, "cols": 2, "entries": [[2, 0], [0.5, 0], {entry}, [3, 0]]}}',
            encoding="utf-8")
        run(main, f"check-pair-{name}", ["check", "--matrix-a", f"pair-{name}.json",
                                         "--matrix-b", "b.json", "--tau", "1", "--m", "2"])

    workloads.write_matrix("non-commuting-b.json", [[0.1, 2.0], [0.0, 0.1]])
    workloads.write_matrix("half.json", [[0.5]])
    huge = "100000000000000000000"
    for name, argv in {
            "solve-example1-grid-too-large": ["solve", "--problem", "example1", "--grid-m",
                                              "10000000000", "--m", "2"],
            "solve-example2-grid-too-large": ["solve", "--problem", "example2", "--grid-m",
                                              "2000000000000000000", "--m", "2"],
            "region-n-too-large": ["region", "--y", "-1", "--m", "2", "--n", huge],
            "fov-n-too-large": ["fov", "--matrix", "m.json", "--n", huge],
            "check-n-angles-too-large": ["check", "--matrix-a", "spd.json", "--matrix-b",
                                         "non-commuting-b.json", "--tau", "1", "--m", "2",
                                         "--n-angles", huge],
            "check-m-too-large": ["check", "--matrix-a", "one.json", "--matrix-b", "half.json",
                                  "--tau", "1", "--m", "2000000000000000000"]}.items():
        run(main, name, argv)

    run(main, "help", ["--help"])
    for command in SUBCOMMANDS:
        run(main, f"help-{command}", [command, "--help"])

    a, b = ddestab.mol.build_example1(20, l=-0.1).stability_matrices()
    workloads.write_matrix("ex1-m20-a.json", a)
    workloads.write_matrix("ex1-m20-b.json", b)
    import_footprints(Path(ddestab.__file__).resolve().parents[1], {
        "solve-example1": ["solve", "--problem", "example1", "--grid-m", "20", "--m", "5"],
        "solve-example2": ["solve", "--problem", "example2", "--grid-m", "16", "--m", "5"],
        "check-example1": ["check", "--matrix-a", "ex1-m20-a.json", "--matrix-b",
                           "ex1-m20-b.json", "--tau", repr(np.pi / 2.0), "--m", "5"],
        "region": ["region", "--y", "-2", "--m", "5"],
        "check-non-commuting": ["check", "--matrix-a", "double-swept-a.json", "--matrix-b",
                                "double-swept-b.json", "--tau", "1", "--m", "2"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", required=True, type=Path,
                        help="source tree whose src/ddestab is run")
    parser.add_argument("--out", required=True, type=Path,
                        help="new or empty directory for the snapshot")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    ddestab = import_program(args.tree)
    os.chdir(args.out)
    warnings.simplefilter("always")  # every call shows its own warnings
    snapshot(ddestab, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
