import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddestab import cli, fov, reproduce, stability
from ddestab.reproduce import EXAMPLE31_A, EXAMPLE31_B

from conftest import write_matrix


@pytest.fixture
def bench_files(tmp_path):
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    write_matrix(a_path, EXAMPLE31_A)
    write_matrix(b_path, EXAMPLE31_B)
    return str(a_path), str(b_path)


def scalar_linear_solve(tmp_path, b: float) -> list:
    """``solve`` argv for y' = -y + b y(t - 1) at h = 1 up to t = 50."""
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(a_path, np.array([[1.0]]))
    write_matrix(b_path, np.array([[b]]))
    return ["solve", "--problem", "linear", "--matrix-a", str(a_path),
            "--matrix-b", str(b_path), "--tau", "1", "--m", "1", "--t-end", "50"]


class TestMatrixFiles:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        m = rng.standard_normal((4, 4)) * np.exp(rng.uniform(-30, 30, (4, 4)))
        m = m + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "m.json"
        write_matrix(path, m)
        back = cli.read_matrix(path)
        assert np.array_equal(back, m)

    def test_real_matrices_come_back_real(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, np.eye(2))
        assert not np.iscomplexobj(cli.read_matrix(path))

    def test_plain_numbers_accepted(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]}')
        assert np.array_equal(cli.read_matrix(path), np.eye(2))

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [[NaN, 0]]}')
        with pytest.raises(cli.MatrixFileError):
            cli.read_matrix(path)

    @pytest.mark.parametrize("entries, where", [
        ("5", "entries must be a list"),
        ('[["a"]]', "entry 0 must be re or [re, im]"),
        ("[[null]]", "entry 0 must be re or [re, im]"),
        ("[[1" + "0" * 400 + "]]", "entry 0 must be re or [re, im]"),
    ], ids=["number", "string", "null", "float-overflow"])
    def test_malformed_entries_exit_2(self, tmp_path, capsys, entries, where):
        path = tmp_path / "m.json"
        path.write_text(f'{{"rows": 1, "cols": 1, "entries": {entries}}}')
        with pytest.raises(cli.MatrixFileError, match=re.escape(where)):
            cli.read_matrix(path)
        assert cli.main(["fov", "--matrix", str(path)]) == 2
        assert where in capsys.readouterr().err

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 2, "cols": 2, "entries": [[1, 0]]}')
        with pytest.raises(cli.MatrixFileError):
            cli.read_matrix(path)


class TestCheckCommand:
    def test_benchmark_m2_stable(self, bench_files, tmp_path, capsys):
        a, b = bench_files
        out = tmp_path / "report.json"
        code = cli.main(["check", "--matrix-a", a, "--matrix-b", b,
                         "--tau", "1", "--m", "2", "--theta", "1",
                         "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "StableForThisStep"
        assert doc["scheme"]["m"] == 2

    def test_benchmark_m50_unstable(self, bench_files, capsys):
        a, b = bench_files
        code = cli.main(["check", "--matrix-a", a, "--matrix-b", b,
                         "--tau", "1", "--m", "50", "--theta", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "CertifiedUnstable"

    def test_zero_b_unconditional(self, tmp_path, capsys):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a_path, np.diag([2.0, 3.0]))
        write_matrix(b_path, np.zeros((2, 2)))
        code = cli.main(["check", "--matrix-a", str(a_path), "--matrix-b",
                         str(b_path), "--tau", "1", "--m", "3", "--theta", "0.8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "UnconditionallyStable"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["check", "--matrix-a", str(bad), "--matrix-b", str(bad),
                         "--tau", "1", "--m", "2"])
        assert code == 2

    def test_defective_a_gets_an_oracle_verdict(self, tmp_path, capsys):
        # eig(A) has a singular eigenvector matrix: no modes, so the FOV
        # certificates and the dense oracle decide
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a_path, np.array([[1.0, 1.0], [0.0, 1.0]]))
        write_matrix(b_path, np.zeros((2, 2)))
        code = cli.main(["check", "--matrix-a", str(a_path), "--matrix-b",
                         str(b_path), "--tau", "1", "--m", "3", "--theta", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        oracle = [e for e in doc["evidence"] if e["check"] == "oracle-spectral-radius"]
        assert oracle and oracle[0]["margin"] > 0.0

    def test_infinite_tau_exit_3(self, bench_files, capsys):
        # rejected by the scheme, before W is built from an infinite step
        a, b = bench_files
        code = cli.main(["check", "--matrix-a", a, "--matrix-b", b,
                         "--tau", "inf", "--m", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert "tau must be finite" in captured.err
        assert captured.out == ""

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a_path, np.zeros((2, 2)))  # singular A
        write_matrix(b_path, np.eye(2))
        code = cli.main(["check", "--matrix-a", str(a_path), "--matrix-b",
                         str(b_path), "--tau", "1", "--m", "2"])
        assert code == 3
        assert "check" in capsys.readouterr().err


class TestRegionCommand:
    def test_m1_circle(self, tmp_path):
        out = tmp_path / "gamma.csv"
        code = cli.main(["region", "--y", "-1", "--m", "1", "--theta", "1",
                         "-o", str(out)])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        mu = rows[:, 1] + 1j * rows[:, 2]
        # circle centered at 1/y = -1 with radius 1 - 1/y = 2
        assert np.max(np.abs(np.abs(mu + 1.0) - 2.0)) <= 1e-12

    def test_closed_symmetric_through_one(self, tmp_path):
        out = tmp_path / "gamma.csv"
        assert cli.main(["region", "--y", "-2", "--m", "2", "--theta", "1",
                         "-o", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        mu = rows[:, 1] + 1j * rows[:, 2]
        assert np.max(np.abs(mu[::-1] - np.conj(mu))) == 0.0
        mid = len(mu) // 2
        assert mu[mid] == 1.0 + 0.0j
        assert abs(mu[0] - mu[-1]) <= 1e-12  # closed at alpha = +-pi

    @pytest.mark.parametrize("y", ["--y=-inf", "--y=-1e400", "--y=nan"])
    def test_non_finite_y_exit_3(self, capsys, y):
        assert cli.main(["region", y, "--m", "3"]) == 3
        captured = capsys.readouterr()
        assert "y must be finite and negative" in captured.err
        assert captured.out == ""

    def test_stdout_determinism(self, capsys):
        assert cli.main(["region", "--y", "-2", "--m", "3"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["region", "--y", "-2", "--m", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("alpha,re,im\n")

    def test_stdout_matches_to_csv(self, tmp_path, capsys):
        assert cli.main(["region", "--y", "-2", "--m", "3", "--theta", "0.75",
                         "--n", "64"]) == 0
        path = tmp_path / "gamma.csv"
        scheme = stability.ThetaScheme(theta=0.75, u=0.0, m=3, tau=1.0)
        stability.gamma_y(scheme, -2.0, 64).to_csv(path)
        assert capsys.readouterr().out.encode() == path.read_bytes()


class TestFovCommand:
    def test_identity_single_point(self, tmp_path, capsys):
        import io

        m_path = tmp_path / "m.json"
        write_matrix(m_path, np.eye(3))
        assert cli.main(["fov", "--matrix", str(m_path), "--n", "16"]) == 0
        rows = np.loadtxt(io.StringIO(capsys.readouterr().out),
                          delimiter=",", skiprows=1)
        pts = rows[:, 1] + 1j * rows[:, 2]
        assert np.max(np.abs(pts - 1.0)) <= 1e-12

    def test_transformed_pair(self, tmp_path, capsys):
        import io

        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a_path, np.diag([1.0, 4.0]))
        write_matrix(b_path, np.diag([2.0, 2.0]))
        assert cli.main(["fov", "--matrix", str(a_path), "--matrix-b",
                         str(b_path), "--p", "0", "--n", "32"]) == 0
        rows = np.loadtxt(io.StringIO(capsys.readouterr().out),
                          delimiter=",", skiprows=1)
        res = rows[:, 1]
        assert abs(res.max() - 2.0) <= 1e-9
        assert abs(res.min() - 0.5) <= 1e-9

    def test_p_without_matrix_b_exit_2(self, tmp_path, capsys):
        m_path = tmp_path / "m.json"
        write_matrix(m_path, np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert cli.main(["fov", "--matrix", str(m_path), "--p", "1"]) == 2
        captured = capsys.readouterr()
        assert "--matrix-b" in captured.err and captured.out == ""

    def test_p_defaults_to_zero_with_matrix_b(self, tmp_path, capsys):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a_path, np.array([[2.0, 0.5], [0.5, 1.0]]))
        write_matrix(b_path, np.array([[0.3, -0.2], [0.4, 0.1]]))
        argv = ["fov", "--matrix", str(a_path), "--matrix-b", str(b_path), "--n", "16"]
        assert cli.main(argv) == 0
        default = capsys.readouterr().out
        assert cli.main(argv + ["--p", "0"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("with_b", [False, True])
    def test_stdout_matches_to_csv(self, tmp_path, capsys, with_b):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = np.array([[0.3, -0.2], [0.4, 0.1]])
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a_path, a)
        write_matrix(b_path, b)
        argv = ["fov", "--matrix", str(a_path), "--n", "32"]
        if with_b:
            argv += ["--matrix-b", str(b_path), "--p", "1"]
            a = fov.transformed_matrix(a, b, 1.0)
        assert cli.main(argv) == 0
        path = tmp_path / "fov.csv"
        fov.fov_boundary(a, 32).to_csv(path)
        assert capsys.readouterr().out.encode() == path.read_bytes()


class TestSolveCommand:
    def test_example1_summary_matches_reference_errors(self, tmp_path):
        out = tmp_path / "summary.json"
        code = cli.main(["solve", "--problem", "example1", "--l", "-0.1",
                         "--m", "5", "--t-end", str(10 * math.pi),
                         "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["errors"]["v1"] - 0.018354) / 0.018354 <= 0.05
        assert abs(doc["errors"]["v2"] - 0.196042) / 0.196042 <= 0.05
        assert doc["diverged"] is False

    def test_example2_reduced_max_norm_flag(self, tmp_path):
        out = tmp_path / "summary.json"
        code = cli.main(["solve", "--problem", "example2", "--grid-m", "20",
                         "--m", "10", "--t-end", "5", "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["max_norm_le_1"] is True

    @pytest.mark.parametrize("t_end", ["inf", "nan"])
    def test_non_finite_t_end_exit_3(self, tmp_path, capsys, t_end):
        out = tmp_path / "summary.json"
        code = cli.main(["solve", "--problem", "example1", "--grid-m", "10",
                         "--m", "5", "--t-end", t_end, "-o", str(out)])
        assert code == 3
        assert "t_end" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_tau_exit_3(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = cli.main(["solve", "--problem", "example1", "--grid-m", "10",
                         "--m", "5", "--tau", "inf", "-o", str(out)])
        assert code == 3
        assert "tau must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_history_zero_trajectory(self, tmp_path):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a_path, np.diag([1.0, 2.0]))
        write_matrix(b_path, 0.5 * np.eye(2))
        out = tmp_path / "summary.json"
        csv = tmp_path / "traj.csv"
        code = cli.main(["solve", "--problem", "linear", "--matrix-a", str(a_path),
                         "--matrix-b", str(b_path), "--tau", "1", "--m", "4",
                         "--history-const", "0,0", "--t-end", "3",
                         "--out-csv", str(csv), "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["final_norm"] == 0.0
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 1:])) == 0.0

    @pytest.mark.parametrize("history, code", [("abc,1", 2), ("nan,1", 3)])
    def test_bad_history_exit_codes(self, tmp_path, capsys, history, code):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a_path, np.eye(2))
        write_matrix(b_path, np.zeros((2, 2)))
        out = tmp_path / "summary.json"
        assert cli.main(["solve", "--problem", "linear", "--matrix-a", str(a_path),
                         "--matrix-b", str(b_path), "--tau", "1", "--m", "2",
                         "--history-const", history, "-o", str(out)]) == code
        assert "history" in capsys.readouterr().err
        assert not out.exists()

    def test_window_mode_counts_steps_actually_taken(self, tmp_path):
        # A = 1, B = 1e3 diverges long before t_end; window mode (the default)
        # must report the steps taken up to the halt, not the planned count
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a_path, np.array([[1.0]]))
        write_matrix(b_path, np.array([[1e3]]))
        out = tmp_path / "summary.json"
        assert cli.main(["solve", "--problem", "linear", "--matrix-a", str(a_path),
                         "--matrix-b", str(b_path), "--tau", "1", "--m", "1",
                         "--t-end", "500", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["diverged"] is True
        assert doc["max_abs"] > 1e100  # tracked in window mode too
        assert doc["t_end"] < 500.0
        assert doc["steps"] == round(doc["t_end"])  # h = 1

    def test_trajectory_csv_written(self, tmp_path):
        csv = tmp_path / "traj.csv"
        out = tmp_path / "s.json"
        code = cli.main(["solve", "--problem", "example1", "--grid-m", "10",
                         "--m", "4", "--t-end", str(2 * math.pi),
                         "--norm-only", "--out-csv", str(csv), "-o", str(out)])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,norm2"

    @pytest.mark.parametrize("norm_only", [False, True])
    def test_out_csv_keeps_every_state_in_window_mode(self, tmp_path, norm_only):
        # without --keep-trajectory a run still writes all steps + 1 states
        csv, out = tmp_path / "traj.csv", tmp_path / "s.json"
        argv = ["solve", "--problem", "example1", "--grid-m", "20", "--m", "5",
                "--out-csv", str(csv), "-o", str(out)]
        assert cli.main(argv + (["--norm-only"] if norm_only else [])) == 0
        doc = json.loads(out.read_text())
        assert doc["steps"] == 100 and doc["trajectory_csv"] == str(csv)
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert data.shape == (doc["steps"] + 1, 2 if norm_only else 1 + 2 * 19)
        assert data[0, 0] == 0.0 and abs(data[-1, 0] - doc["t_end"]) <= 1e-12


    @pytest.mark.parametrize("linear", [False, True], ids=["example1", "diverged-linear"])
    def test_keep_trajectory_changes_no_output(self, tmp_path, linear):
        argv = ["solve", "--problem", "example1", "--grid-m", "20", "--m", "5"]
        if linear:
            argv = scalar_linear_solve(tmp_path, 1e3)
        window, kept = tmp_path / "window.json", tmp_path / "kept.json"
        assert cli.main(argv + ["-o", str(window)]) == 0
        assert cli.main(argv + ["--keep-trajectory", "-o", str(kept)]) == 0
        assert window.read_bytes() == kept.read_bytes()
        assert "max_abs" in json.loads(window.read_text())

    @pytest.mark.parametrize("b, history, key, value", [
        (1e306, "1", "final_norm", 5e305),  # the state is finite, its square is not
        (0.0, "1e200", "initial_norm", 1e200),
    ], ids=["final-state", "history"])
    def test_huge_norms_are_finite_json(self, tmp_path, b, history, key, value):
        out = tmp_path / "summary.json"
        assert cli.main(scalar_linear_solve(tmp_path, b) + [
            "--history-const", history, "-o", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert doc["diverged"] is True and doc[key] == value

    # the solver's own overflow warning is not what this test is about
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_non_finite_state_is_null(self, tmp_path):
        out = tmp_path / "summary.json"
        assert cli.main(scalar_linear_solve(tmp_path, 1e306) + [
            "--history-const", "1000", "-o", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert doc["final_norm"] is None and doc["max_abs"] is None
        assert doc["initial_norm"] == 1000.0 and doc["max_norm_le_1"] is False


class TestReproduceCommand:
    def test_example31_target(self, capsys):
        assert cli.main(["reproduce", "--target", "example31"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_example2_condition_target(self, capsys):
        assert cli.main(["reproduce", "--target", "example2-condition"]) == 0

    def test_figures_target(self, tmp_path, capsys):
        assert cli.main(["reproduce", "--target", "figures",
                         "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "gamma_y-2_m2.csv").exists()
        assert (tmp_path / "gamma_y-2_m5.csv").exists()

    def test_table1_target(self):
        # the example1 error table at m = 5..100 against the stored references
        result = reproduce.run_target("table1")
        assert [r.label for r in result.rows] == [
            f"table1 m={m} v{c}" for m in (5, 25, 50, 100) for c in (1, 2)]
        assert all(r.passed for r in result.rows), result.report()

    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "--target", "nonsense"])
        assert exc.value.code == 2


def test_import_leaves_scipy_fft_unloaded():
    # scipy.fft is imported where a DST-I shifted solve is built; importing
    # it with the package would add about 0.1 s to every CLI start
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import ddestab, ddestab.cli, sys; assert 'scipy.fft' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
