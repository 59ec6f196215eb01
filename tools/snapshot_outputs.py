"""Write every user-visible output of one ddestab source tree into a directory.

    python3 tools/snapshot_outputs.py --tree PATH --out DIR [--seed N]

The snapshot holds what the command line prints and writes for:

* the seeded ``check``, ``oracle`` and ``solve`` operations of the
  benchmark (``bench/workloads.build_ops``), with their input files;
* the four ``reproduce`` targets, ``table1`` with ``--full``;
* ``region``, ``fov`` with and without ``--matrix-b``, and a few inputs
  at the edges (``fov --p`` without ``--matrix-b``, a diverging ``solve``);
* the ``--help`` of ``ddestab`` and of every subcommand.

Each call leaves ``NAME.out`` (exit code, standard output, standard error)
next to the files it wrote.  Two snapshots taken with the same ``--seed``
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
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

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
    text = (f"$ ddestab {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    Path(f"{name}.out").write_text(text, encoding="utf-8")


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

    run(main, "help", ["--help"])
    for command in SUBCOMMANDS:
        run(main, f"help-{command}", [command, "--help"])


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
