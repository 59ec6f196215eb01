"""Benchmark of the ddestab program on fixed, seeded workloads.

Run from the root of the repository:

    python3 bench/run.py --workload check --seed 1 --seconds 30 --trace 0

Each run is one fresh process with BLAS pinned to one thread.  It measures
the set-up (a fresh interpreter importing ddestab and building the
workload's example problems, repeated), writes the seeded input matrices,
computes its own references, then runs the workload's operations one after
another (a closed loop with one caller) through ``ddestab.cli.main`` until
``--seconds`` are used up.  Every output is verified.

Times are scaled to a reference host speed.  The speed of a shared host
drifts by tens of percent over minutes, for every kind of code alike, so the
run also times a fixed numpy/scipy kernel (``SpeedProbe``) after each set-up
repeat and each operation, and multiplies each time by ``PROBE_REF_S`` / the
kernel's typical time while that time was measured.  ``setup_s`` is the
scaled median set-up; ``wall_s`` is the scaled mean time of one pass over the
workload's operations.  The raw times are printed too.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced passes so that it can report the tracing
overhead.  Lines before it describe the environment, the sizes of every
operation and each failure.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process
# (and in the set-up probes, which inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 10
MIN_PASSES = 2
PROBE_TIMEOUT_S = 60
# The speed probe runs after every operation for at least this share of the
# operation's time, and at least SPEED_SAMPLES_MIN times, so that its samples
# spread over the run as the operations' time does.
SPEED_SHARE = 0.05
SPEED_SAMPLES_MIN = 3
# A typical time of one SpeedProbe call on the host the benchmark was
# defined on (2 vCPUs of a shared x86-64 host, OpenBLAS, one thread), where
# it ranged from 0.030 to 0.058 s as the host's speed drifted.  Scaled times
# read as seconds on that host when the probe takes this long.
PROBE_REF_S = 0.040

sys.path.insert(0, str(BENCH_DIR))
import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.sparse  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

from workloads import WORKLOADS, build_ops  # noqa: E402
import layers  # noqa: E402


class SpeedProbe:
    """A fixed kernel of the primitives the workloads spend their time in:
    a Hermitian eigensolve (FOV sweeps), a general eigensolve (the oracle),
    dense LU solves and a sparse LU (the stepping drivers) and a pure-Python
    loop (the interpreter).  It uses numpy and scipy on fixed data and never
    ddestab, so a change to the program cannot change its time; only the
    host's speed does."""

    def __init__(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self._herm = h + h.conj().T
        self._general = rng.standard_normal((160, 160))
        self._dense = rng.standard_normal((198, 198)) + 198.0 * np.eye(198)
        t = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(64, 64))
        self._sparse = (scipy.sparse.kronsum(t, t) + scipy.sparse.eye(64 * 64)).tocsc()
        self._rhs = np.ones(64 * 64)

    def __call__(self) -> float:
        """Run the kernel once; return its seconds."""
        start = time.perf_counter()
        np.linalg.eigh(self._herm)
        np.linalg.eigvals(self._general)
        lu = scipy.linalg.lu_factor(self._dense)
        for _ in range(100):
            scipy.linalg.lu_solve(lu, self._rhs[:198])
        scipy.sparse.linalg.splu(self._sparse).solve(self._rhs)
        acc = 0
        for i in range(100_000):
            acc += i * i
        return time.perf_counter() - start

    def sample(self, samples: list, busy_s: float) -> None:
        """Append probe times to ``samples`` for at least SPEED_SHARE of
        ``busy_s`` and at least SPEED_SAMPLES_MIN calls."""
        spent, count = 0.0, 0
        while count < SPEED_SAMPLES_MIN or spent < SPEED_SHARE * busy_s:
            samples.append(self())
            spent += samples[-1]
            count += 1

    @staticmethod
    def typical(samples) -> float:
        """Mean probe time with the fastest and the slowest tenth left out.

        A mean, because an operation's time adds up the host's speed over
        its whole duration; trimmed, because single probe samples now and
        then take twice their usual time."""
        ordered = sorted(samples)
        cut = len(ordered) // 10
        return statistics.mean(ordered[cut:len(ordered) - cut])

    def scale(self, samples) -> float:
        """Factor that turns times measured alongside ``samples`` into
        seconds at the reference speed."""
        return PROBE_REF_S / self.typical(samples)


def import_program():
    """Import ddestab from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ddestab.cli  # noqa: F401  (the program's public entry)

    if not Path(ddestab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ddestab imported from {ddestab.__file__}, not from {SRC}")
    return ddestab


def build_problems(package, workload: str) -> dict:
    """The example1 pairs the workload feeds back through matrix files."""
    return {(grid_m, l): package.mol.build_example1(grid_m, l=l).stability_matrices()
            for grid_m, l in WORKLOADS[workload]}


def measure_setup(workload: str, probe: SpeedProbe, speed: list) -> list:
    """Seconds from starting a fresh interpreter until ddestab is imported
    and the workload's problems are built, once per repeat.  The speed
    probe runs after each repeat and appends to ``speed``."""
    builds = "".join(f"ddestab.mol.build_example1({grid_m}, l={l!r}).stability_matrices(); "
                     for grid_m, l in WORKLOADS[workload])
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            f"import ddestab.cli, ddestab.mol; {builds}print(repr(time.time()))")
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.time()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
        probe.sample(speed, samples[-1])
    return samples


def run_op(main, op, tracer):
    """Call the program once; return (seconds, failure reason or None).

    Under a tracer, the operation's root span records its verdict."""
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)
    with (tracer.op(op.name) if tracer else nullcontext()) as span:
        start = time.perf_counter()
        try:
            code = main(list(op.argv))
            reason = None if code == 0 else f"exit code {code}"
        except SystemExit as exc:
            reason = f"exit code {exc.code}"
        except Exception as exc:  # the benchmark must keep going and report it
            reason = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if reason is None:
        try:
            reason = op.verify()
            if span is not None and op.argv[0] == "check":
                with open(op.outputs[0], encoding="utf-8") as fh:
                    span[5] = json.load(fh)["verdict"]
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return elapsed, reason


def measure(main, ops, seconds: float, tracer=None, probe=None):
    """Run passes over ``ops`` until the next pass would overrun ``seconds``,
    but at least ``MIN_PASSES``.  With a probe, the speed probe runs after
    every operation.

    With a tracer, passes alternate untraced and traced, starting untraced.
    Returns (untraced passes, traced passes, failures, probe samples); a
    pass maps each operation name to its seconds.
    """
    plain, traced, failures, speed = [], [], [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.install()
        try:
            times = {}
            for op in ops:
                times[op.name], reason = run_op(main, op, tracer if use_trace else None)
                if reason is not None:
                    failures.append((op.name, reason))
                if probe is not None:
                    probe.sample(speed, times[op.name])
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(times)
        enough = len(plain) + len(traced) >= MIN_PASSES and (tracer is None or traced)
        now = time.perf_counter()
        if enough and (now - start) + (now - lap) > seconds:
            return plain, traced, failures, speed


def environment(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "src_loc": sum(len(p.read_text(encoding="utf-8").splitlines())
                       for p in sorted(SRC.rglob("*.py"))),
    }


def op_mean(passes, name):
    return statistics.mean(p[name] for p in passes)


def mean_pass(passes):
    """The mean time of one pass over all operations."""
    return statistics.mean(sum(p.values()) for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ddestab" / "__init__.py").is_file():
        print(f"error: no ddestab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    probe = SpeedProbe()
    probe.sample([], 0.0)  # warm-up: first calls load and allocate
    setup_speed = []
    setup_samples = measure_setup(args.workload, probe, setup_speed)
    package = import_program()
    tracer = layers.Tracer(package) if args.trace else None
    if tracer:
        tracer.install()
    try:
        problems = build_problems(package, args.workload)
    finally:
        if tracer:
            tracer.uninstall()

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        ops = build_ops(args.workload, args.seed, workdir, problems)
        plain, traced, failures, speed = measure(package.cli.main, ops, args.seconds,
                                                 tracer, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) * (len(plain) + len(traced))
    entry = environment(args.seed, args.workload)
    setup_scale, wall_scale = probe.scale(setup_speed), probe.scale(speed)
    entry.update({
        "pass_wall_s": [sum(p.values()) for p in plain],
        "traced_pass_wall_s": [sum(p.values()) for p in traced],
        "setup_samples_s": setup_samples,
        "setup_raw_s": statistics.median(setup_samples),
        "wall_raw_s": mean_pass(plain),
        "probe_ref_s": PROBE_REF_S,
        "setup_probe_s": probe.typical(setup_speed),
        "probe_s": probe.typical(speed),
        "probe_samples": len(speed),
        "fail_frac": len(failures) / attempted,
        "ops": {op.name: dict(op.sizes, mean_s=op_mean(plain, op.name)) for op in ops},
    })
    print("entry " + json.dumps(entry))
    for name, reason in failures:
        print(f"FAILED {name}: {reason}")

    if tracer:
        layer = layers.summarize(tracer.spans, len(traced), tracer.absent,
                                 mean_pass(traced) / mean_pass(plain) - 1.0, tracer.lost)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
        traced_mean = mean_pass(traced)
        shares = {name: layer.get(name, 0.0) / traced_mean for name in (
            "fov.sweep.incl_s", "stability.oracle.incl_s",
            "solver.linear.incl_s", "solver.semilinear.incl_s", "solver.csv.incl_s")}
        print("traced_pass_mean_s " + repr(traced_mean) + " shares " + json.dumps(shares))
        print("absent " + json.dumps(tracer.absent) + " lost " + json.dumps(sorted(tracer.lost)))
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "setup_s": setup_scale * entry["setup_raw_s"],
            "wall_s": wall_scale * entry["wall_raw_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'setup_raw_s':36s} {entry['setup_raw_s']:.6g} s")
    print(f"{'wall_raw_s':36s} {entry['wall_raw_s']:.6g} s")
    print(f"{'probe_s':36s} {entry['probe_s']:.6g} s (reference {PROBE_REF_S:g} s)")
    for name, sizes in entry["ops"].items():
        print(f"{name + '_s':36s} {sizes['mean_s']:.6g} s")
    print(f"{'fail_frac':36s} {entry['fail_frac']:.6g} ratio")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
