import gc
import json
import math
import os
import re
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from ddestab import cli, fov, mol, reproduce, stability
from ddestab.reproduce import EXAMPLE31_A, EXAMPLE31_B

from conftest import random_complex, random_spd, write_matrix


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
        # all numbers or all [re, im] pairs: no [re], no mix, no strings
        ("[[1.5], [2.0]]", "entry 0 must be re or [re, im]"),
        ("[[1, 0], [2]]", "entry 1 must be re or [re, im]"),
        ("[1, [2, 0]]", "entry 1 must be re or [re, im]"),
        ("[[1, 0], 2]", "entry 1 must be re or [re, im]"),
        ('[["1.5", 0]]', "entry 0 must be re or [re, im]"),
        ('[[1, 0], [2, "0"]]', "entry 1 must be re or [re, im]"),
        ("[[1, 0], [2, 0, 0]]", "entry 1 must be re or [re, im]"),
        ("[1, 18446744073709551616]", "entry 1 must be re or [re, im]"),
        ("[1, NaN]", "entry 1 is not finite"),
        ("[[1, 0], [2, -Infinity]]", "entry 1 is not finite"),
        ("[NaN, null]", "entry 0 is not finite"),
        # entries of length 2 that are not two numbers
        ("[[1, [2]]]", "entry 0 must be re or [re, im]"),
        ("[[[1], [2]], [[3], [4]]]", "entry 0 must be re or [re, im]"),
        ("[[1, 0], [2, [0]]]", "entry 1 must be re or [re, im]"),
        ('["ab", "cd"]', "entry 0 must be re or [re, im]"),
        ('[[1, 0], "ab"]', "entry 1 must be re or [re, im]"),
        ('[{"a": 1, "b": 2}]', "entry 0 must be re or [re, im]"),
        ('[[1, 0], {"a": 1, "b": 2}]', "entry 1 must be re or [re, im]"),
        ("[[1, 0], [null, 0]]", "entry 1 must be re or [re, im]"),
        ("[[1, 0], [18446744073709551616, 0]]", "entry 1 must be re or [re, im]"),
        ("[[1, 0], [NaN, 0]]", "entry 1 is not finite"),
        ("[Infinity, 1]", "entry 0 is not finite"),
    ], ids=["number", "string", "null", "float-overflow", "re-only", "re-only-at-1",
            "mixed-list-at-1", "mixed-number-at-1", "string-re", "string-im-at-1",
            "triple-at-1", "int-past-uint64", "nan-at-1", "pair-inf-at-1",
            "first-fault-wins", "pair-holds-list", "pairs-of-lists", "pair-holds-list-at-1",
            "two-char-strings", "two-char-string-at-1", "two-key-object",
            "two-key-object-at-1", "pair-null-at-1", "pair-int-past-uint64-at-1",
            "pair-nan-at-1", "infinity"])
    def test_malformed_entries_exit_2(self, tmp_path, capsys, entries, where):
        cols = len(json.loads(entries)) if entries.startswith("[") else 1
        path = tmp_path / "m.json"
        path.write_text(f'{{"rows": 1, "cols": {cols}, "entries": {entries}}}')
        with pytest.raises(cli.MatrixFileError, match=re.escape(where)):
            cli.read_matrix(path)
        assert cli.main(["fov", "--matrix", str(path)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("entries", [
        "[1, -2.5, 0, 3]",
        "[[1, 0], [2, -0.0], [0, 3], [4, 1e-300]]",
        "[[1, 0], [-0.0, 0], [0, 0.0], [3, 0]]",
        "[[5, 0]]",
        "[7]",
        "[true, false, 1, 0]",
        "[[true, false], [1, true], [false, 0], [2.5, 0]]",
        "[[18446744073709551615, 0], [-9223372036854775808, 0]]",
        "[[9007199254740993, 1], [5e-324, -5e-324]]",
    ], ids=["numbers", "pairs", "real-pairs", "1x1-pair", "1x1-number", "bools",
            "bool-pairs", "pair-int-edges", "pair-bits"])
    def test_accepted_entries_equal_one_array_parse(self, tmp_path, entries):
        # the reference: one np.array of the nested entries, pairs viewed as complex
        values = np.array(json.loads(entries)).astype(float)
        cols = 2 if len(values) == 4 else len(values)
        want = (values if values.ndim == 1 else values.view(complex)).reshape(-1, cols)
        if values.ndim == 2 and not want.imag.any():
            want = want.real.copy()
        path = tmp_path / "m.json"
        path.write_text(f'{{"rows": {len(values) // cols}, "cols": {cols}, '
                        f'"entries": {entries}}}')
        back = cli.read_matrix(path)
        assert back.dtype == want.dtype and back.shape == want.shape
        assert back.tobytes() == want.tobytes()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("text, error", [
        ('{"rows": 1, "cols": 2, "entries": [[1, 0], [2, 0]]}', None),
        (None, "No such file"),
        ('{"rows": 1', "Expecting"),
        ('{"rows": 1, "cols": 2, "entries": [[1, 0], [2, "0"]]}', "entry 1"),
    ], ids=["good", "missing", "invalid-json", "bad-entry"])
    def test_collector_state_is_left_as_found(self, tmp_path, enabled, text, error):
        path = tmp_path / "m.json"
        if text is not None:
            path.write_text(text)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with (nullcontext() if error is None
                  else pytest.raises(cli.MatrixFileError, match=error)):
                cli.read_matrix(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("rows", ["2.5", '"2"'], ids=["float", "string"])
    def test_rows_must_be_a_json_integer(self, tmp_path, capsys, rows):
        path = tmp_path / "m.json"
        path.write_text(f'{{"rows": {rows}, "cols": 2, "entries": [1, 0, 0, 1]}}')
        with pytest.raises(cli.MatrixFileError, match="rows and cols must be integers"):
            cli.read_matrix(path)
        assert cli.main(["fov", "--matrix", str(path)]) == 2
        assert "rows and cols must be integers" in capsys.readouterr().err

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 2, "cols": 2, "entries": [[1, 0]]}')
        with pytest.raises(cli.MatrixFileError):
            cli.read_matrix(path)

    def test_numbers_keep_every_bit(self, tmp_path):
        # JSON integers within int64/uint64 and true/false read as float(x)
        numbers = [-0.0, 5e-324, 1.7976931348623157e308, 9007199254740993,
                   -9223372036854775808, 18446744073709551615, True, False, -3]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 3, "cols": 3, "entries": numbers}))
        back = cli.read_matrix(path)
        assert back.dtype == np.float64 and back.flags.c_contiguous
        want = np.array([float(x) for x in numbers]).reshape(3, 3)
        assert back.tobytes() == want.tobytes()

    @pytest.mark.parametrize("complex_part", [False, True], ids=["real", "complex"])
    def test_large_matrix_round_trip_keeps_every_bit(self, tmp_path, rng, complex_part):
        m = rng.standard_normal((60, 60)) * np.exp(rng.uniform(-600, 600, (60, 60)))
        m[0, :3] = [-0.0, 5e-324, -5e-324]
        if complex_part:
            m = m + 1j * rng.standard_normal((60, 60))
            m[1, 0] = complex(-0.0, -0.0)
        path = tmp_path / "m.json"
        write_matrix(path, m)
        back = cli.read_matrix(path)
        assert back.dtype == m.dtype and back.flags.c_contiguous
        assert back.tobytes() == m.tobytes()


class TestCheckCommand:
    @pytest.mark.parametrize("grid", ["nan", "inf", "0,-inf"])
    def test_non_finite_p_exits_2(self, bench_files, capsys, grid):
        a, b = bench_files
        code = cli.main(["check", "--matrix-a", a, "--matrix-b", b,
                         "--tau", "1", "--m", "2", "--p-grid", grid])
        assert code == 2
        assert "every p must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["", ",,", " , ", "0,,1", "0,1,"])
    def test_empty_p_exits_2(self, bench_files, capsys, grid):
        # every comma-separated field must be a p: a grid is never empty
        a, b = bench_files
        code = cli.main(["check", "--matrix-a", a, "--matrix-b", b,
                         "--tau", "1", "--m", "2", "--p-grid", grid])
        assert code == 2
        assert f"bad p grid {grid!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("commuting", [True, False])
    def test_few_angles_exit_3_on_every_path(self, bench_files, tmp_path, capsys, commuting):
        # example 3.1 takes the mode path, where no FOV sweep reads n_angles
        a, b = bench_files
        if not commuting:
            a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
            write_matrix(a, np.diag([2.0, 3.0]))
            write_matrix(b, np.array([[0.1, 0.3], [0.0, 0.2]]))
        code = cli.main(["check", "--matrix-a", a, "--matrix-b", b,
                         "--tau", "1", "--m", "2", "--n-angles", "4"])
        assert code == 3
        captured = capsys.readouterr()
        assert f"n_angles must be at least {fov.MIN_ANGLES}" in captured.err
        assert captured.out == ""

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

    def test_example1_above_the_oracle_cap_unstable(self, tmp_path, capsys):
        # dim W = 31 * 198 = 6138 exceeds ORACLE_CAP; the modes give rho(W)
        a, b = mol.build_example1(100, l=0.1).stability_matrices()
        write_matrix(tmp_path / "a.json", a)
        write_matrix(tmp_path / "b.json", b)
        code = cli.main(["check", "--matrix-a", str(tmp_path / "a.json"), "--matrix-b",
                         str(tmp_path / "b.json"), "--tau", repr(math.pi / 2.0), "--m", "30"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "CertifiedUnstable"
        oracle = doc["evidence"][-1]
        assert oracle["check"] == "oracle-spectral-radius"
        assert oracle["note"].endswith("dim 6138, per-mode over 198 modes")
        assert 6138 > stability.ORACLE_CAP
        assert 1.0 - oracle["margin"] == pytest.approx(1.00502, abs=5e-6)

    def test_oracle_cap_decides_whether_the_dense_w_votes(self, tmp_path, capsys):
        # a non-commuting SPD pair that no field-of-values stage certifies at
        # m = 2, so the dense W of dim 3 * 6 = 18 decides
        gen = np.random.default_rng(0)
        q, _ = np.linalg.qr(gen.standard_normal((6, 6)))
        a = (q * np.linspace(1.0, 3.0, 6)) @ q.T
        b = gen.standard_normal((6, 6))
        b *= 0.9 / np.max(np.abs(np.linalg.eigvals(np.linalg.solve(a, b))))
        write_matrix(tmp_path / "a.json", a)
        write_matrix(tmp_path / "b.json", b)
        argv = ["check", "--matrix-a", str(tmp_path / "a.json"), "--matrix-b",
                str(tmp_path / "b.json"), "--tau", "1", "--m", "2", "--theta", "1"]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "StableForThisStep"
        assert doc["evidence"][-1]["note"] == "rho(W) = 0.964602969979, dim 18, dense W"
        assert cli.main(argv + ["--oracle-cap", "0"]) == 0
        capped = json.loads(capsys.readouterr().out)
        assert capped["verdict"] == "Uncertified"
        assert capped["evidence"][-1]["note"] == "skipped: dim 18 exceeds 0"
        scheme = stability.ThetaScheme(1.0, 0.0, 2, 1.0)
        assert capped == stability.certify(a, b, scheme, oracle_cap=0).to_dict()

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

    def test_zero_a_is_decided_by_the_oracle(self, tmp_path, capsys):
        # A = 0 is not positive definite: both field-of-values stages refuse,
        # and the dense rho(W) = (1 + sqrt(3)) / 2 decides
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a_path, np.zeros((2, 2)))
        write_matrix(b_path, np.eye(2))
        code = cli.main(["check", "--matrix-a", str(a_path), "--matrix-b",
                         str(b_path), "--tau", "1", "--m", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "CertifiedUnstable"
        assert [e["check"] for e in report["evidence"][1:3]] == [
            "unconditional-certificate", "step-certificate"]
        assert 1.0 - report["evidence"][-1]["margin"] == pytest.approx(1.36603, abs=1e-5)


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

    @pytest.mark.parametrize("n, rows", [("512", 513), ("17", 17)])
    def test_n_gives_an_odd_row_count(self, capsys, n, rows):
        # alpha = 0 and its mirrored half grid: 2 (n // 2) + 1 samples
        assert cli.main(["region", "--y", "-2", "--m", "3", "--n", n]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,re,im" and len(lines) == rows + 1

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

    @pytest.mark.parametrize("a, reason", [
        ([[2.0, 1.0], [0.0, 3.0]], "relative symmetry violation"),
        ([[1.0, 0.0], [0.0, -1.0]], "smallest eigenvalue"),
    ])
    def test_fractional_p_names_the_hypothesis_exit_3(self, tmp_path, capsys, a, reason):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a_path, np.array(a))
        write_matrix(b_path, np.array([[0.3, -0.2], [0.4, 0.1]]))
        assert cli.main(["fov", "--matrix", str(a_path), "--matrix-b", str(b_path),
                         "--p", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "numerical failure in fov: p = 1 needs a Hermitian positive definite A: " + reason)

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

    @pytest.mark.parametrize("out_csv", [False, True], ids=["summary-only", "out-csv"])
    @pytest.mark.parametrize("t_end", ["1e17", "1e300"])
    def test_run_past_the_step_bound_exit_3(self, tmp_path, capsys, t_end, out_csv):
        # 3e17 and 3e300 steps: rejected before anything is stepped or written
        out, csv = tmp_path / "summary.json", tmp_path / "z.csv"
        code = cli.main(["solve", "--problem", "example1", "--grid-m", "10", "--m", "5",
                         "--t-end", t_end, "-o", str(out)]
                        + (["--out-csv", str(csv)] if out_csv else []))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure in solve: t_end = {float(t_end)} takes")
        assert "more than the 1e+09 a run may take" in err
        assert not out.exists() and not csv.exists()

    def test_ring_too_large_to_allocate_exit_3(self, tmp_path, capsys):
        # m + 2 = 1e17 states of dimension 18 take 2^63 bytes or more, which
        # numpy refuses before it allocates; the run itself is one step
        out, csv = tmp_path / "summary.json", tmp_path / "z.csv"
        m = 10 ** 17
        code = cli.main(["solve", "--problem", "example1", "--grid-m", "10", "--m", str(m),
                         "--t-end", repr(math.pi / 2.0 / m), "--out-csv", str(csv),
                         "-o", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure in solve: cannot allocate 1e+17 states")
        assert "states of dimension 18" in err
        assert not out.exists() and not csv.exists()

    def test_infinite_tau_exit_3(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = cli.main(["solve", "--problem", "example1", "--grid-m", "10",
                         "--m", "5", "--tau", "inf", "-o", str(out)])
        assert code == 3
        assert "tau must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem, flag, value", [
        ("example1", "--lambda1", "inf"), ("example1", "--lambda1", "nan"),
        ("example1", "--lambda2", "inf"), ("example1", "--l", "inf"),
        ("example1", "--l", "nan"), ("example1", "--tau", "nan"),
        ("example2", "--mu", "nan"), ("example2", "--mu", "inf"),
        ("example2", "--lam", "nan"), ("example2", "--lam", "inf"),
    ])
    def test_non_finite_problem_parameter_exit_3(self, tmp_path, capsys, problem, flag,
                                                 value):
        out = tmp_path / "summary.json"
        code = cli.main(["solve", "--problem", problem, "--grid-m", "10", "--m", "5",
                         f"{flag}={value}", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("numerical failure in solve")
        assert "Warning" not in err and not out.exists()

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
        # the run holds m + 2 states and streams all steps + 1 to the CSV
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

    def test_non_finite_state_is_null(self, tmp_path):
        out = tmp_path / "summary.json"
        assert cli.main(scalar_linear_solve(tmp_path, 1e306) + [
            "--history-const", "1000", "-o", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert doc["final_norm"] is None and doc["max_abs"] is None
        assert doc["initial_norm"] == 1000.0 and doc["max_norm_le_1"] is False


    def test_diverging_run_raises_no_numpy_warning(self, tmp_path):
        # the step overflows straight to inf; the overflow guard reports it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        argv = scalar_linear_solve(tmp_path, 1e306) + ["--history-const", "1000"]
        done = subprocess.run([sys.executable, "-W", "error", "-m", "ddestab.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == ""
        assert json.loads(done.stdout)["diverged"] is True

    def test_norm_only_without_out_csv_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert cli.main(["solve", "--problem", "example1", "--grid-m", "10",
                         "--m", "4", "--norm-only", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert "--out-csv" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("problem, flag, value", [
        ("example1", "--matrix-a", "a.json"), ("example2", "--matrix-b", "b.json"),
        ("example2", "--history-const", "1,2"), ("linear", "--grid-m", "7"),
        ("example2", "--l", "0.1"), ("linear", "--lambda1", "2"),
        ("example2", "--lambda2", "2"), ("example1", "--lam", "9"), ("linear", "--mu", "1"),
    ])
    def test_option_the_problem_does_not_read_exit_2(self, tmp_path, capsys, problem, flag,
                                                     value):
        out = tmp_path / "s.json"
        argv = (scalar_linear_solve(tmp_path, 0.5) if problem == "linear"
                else ["solve", "--problem", problem, "--grid-m", "10", "--m", "4"])
        assert cli.main(argv + [flag, value, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --problem {problem} does not read {flag}\n"
        assert captured.out == "" and not out.exists()

    def test_norm_only_csv_ends_at_final_norm(self, tmp_path):
        # the last state is finite (5e305) but its square is not
        csv, out = tmp_path / "n.csv", tmp_path / "s.json"
        assert cli.main(scalar_linear_solve(tmp_path, 1e306) + [
            "--out-csv", str(csv), "--norm-only", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        last = csv.read_text().splitlines()[-1].split(",")
        assert doc["diverged"] is True and float(last[1]) == doc["final_norm"] == 5e305


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "example1", "--grid-m", "10000000000", "--m", "2"],
    ["solve", "--problem", "example2", "--grid-m", "2000000000000000000", "--m", "2"],
    ["region", "--y", "-1", "--m", "2", "--n", "100000000000000000000"],
    ["fov", "--matrix", "a.json", "--n", "100000000000000000000"],
    ["check", "--matrix-a", "a.json", "--matrix-b", "b.json", "--tau", "1", "--m", "2",
     "--n-angles", "100000000000000000000"],
    ["check", "--matrix-a", "one.json", "--matrix-b", "half.json", "--tau", "1",
     "--m", "2000000000000000000"],
], ids=["example1-grid", "example2-grid", "region-n", "fov-n", "check-n-angles", "check-m"])
def test_oversized_sizes_exit_3(tmp_path, monkeypatch, capsys, argv):
    # every size here needs at least 2^63 bytes, which numpy refuses before allocating
    monkeypatch.chdir(tmp_path)
    write_matrix("a.json", np.array([[2.0, 0.5], [0.5, 3.0]]))
    write_matrix("b.json", np.array([[0.1, 2.0], [0.0, 0.1]]))  # does not commute with A
    # a 1 x 1 pair has a mode, so its D_y row is always built
    write_matrix("one.json", np.array([[1.0]]))
    write_matrix("half.json", np.array([[0.5]]))
    assert cli.main(argv) == 3
    assert "cannot allocate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["region", "solve", "reproduce"])
def test_unwritable_output_exit_2(tmp_path, capsys, command):
    missing = tmp_path / "missing" / "x.csv"
    out = tmp_path / "s.json"
    argv = {"region": ["region", "--y", "-2", "--m", "5", "-o", str(missing)],
            "solve": ["solve", "--problem", "example1", "--grid-m", "10", "--m", "4",
                      "--out-csv", str(missing), "-o", str(out)],
            "reproduce": ["reproduce", "--target", "figures", "--outdir", str(out)],
            }[command]
    if command == "reproduce":  # the output directory is a file
        out.write_text("")
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno")
    assert str(out if command == "reproduce" else missing) in captured.err
    assert command == "reproduce" or not out.exists()
    assert not missing.parent.exists()


class TestNegativeValues:
    # an argument that starts with "-" and a digit, or "-." and a digit, is
    # a value, as in argparse from Python 3.13 on: each call must give what
    # its "--flag=value" form gives
    @pytest.mark.parametrize("case", ["region-y", "solve-l", "check-p-grid",
                                      "solve-history-const"])
    def test_exponent_form_reads_as_value(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        write_matrix("a.json", EXAMPLE31_A)
        write_matrix("b.json", EXAMPLE31_B)
        write_matrix("one.json", np.array([[1.0]]))
        argv, flag, value = {
            "region-y": (["region", "--m", "3", "--n", "16"], "--y", "-1e-3"),
            "solve-l": (["solve", "--problem", "example1", "--grid-m", "10", "--m", "4",
                         "--t-end", "1"], "--l", "-1e-1"),
            "check-p-grid": (["check", "--matrix-a", "a.json", "--matrix-b", "b.json",
                              "--tau", "1", "--m", "2"], "--p-grid", "-1,0"),
            "solve-history-const": (["solve", "--problem", "linear", "--matrix-a", "one.json",
                                     "--matrix-b", "one.json", "--tau", "1", "--m", "2",
                                     "--t-end", "3"], "--history-const", "-1e-3"),
        }[case]
        outputs = []
        for args in ([flag, value], [f"{flag}={value}"]):
            assert cli.main(argv + args) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out

    @pytest.mark.parametrize("argv", [
        ["region", "--y", "-1", "--m", "3", "--bogus", "1"],
        ["region", "--y", "-1", "--m", "3", "-x"],
        ["region", "--y", "-inf", "--m", "3"],  # not a number by that rule either
    ], ids=["long", "short", "minus-inf"])
    def test_unknown_options_still_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


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


def example1_dense_pair(m_grid, lambda1, lambda2, l):
    """Example1's (A, B) as it was assembled densely before its linear part
    became a sine operator: A = -blockdiag(lambda1 L, lambda2 L)."""
    n, dx = m_grid - 1, 2.0 / m_grid
    l_mat = np.zeros((n, n))
    np.fill_diagonal(l_mat, -2.0)
    idx = np.arange(n - 1)
    l_mat[idx, idx + 1] = 1.0
    l_mat[idx + 1, idx] = 1.0
    l_mat = l_mat / dx ** 2
    a_mol = np.zeros((2 * n, 2 * n))
    a_mol[:n, :n] = lambda1 * l_mat
    a_mol[n:, n:] = lambda2 * l_mat
    c = l + np.pi ** 2 / 4.0
    eye = np.eye(n)
    b_mol = math.exp(l * math.pi / 2.0) * np.block([[-eye, c * eye], [-c * eye, -eye]])
    return -a_mol, b_mol


def test_import_and_example1_build_load_no_scipy():
    # scipy.linalg is imported where a matrix is factored or a field of
    # values is swept, and scipy.fft where a 2-D DST-I is built; importing
    # either with the package, or building example1 and its matrices (the
    # set-up of check and oracle runs), would add 0.1-0.2 s to every CLI start.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import ddestab, ddestab.cli, sys; "
            "ddestab.mol.build_example1(100, l=0.1).stability_matrices(); "
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    for args in ((100, 1.0, 1.0, -0.1), (100, 1.0, 1.0, 0.1), (7, 2.0, 0.5, -0.1)):
        got = mol.build_example1(*args).stability_matrices()
        for matrix, want in zip(got, example1_dense_pair(*args)):
            assert matrix.dtype == want.dtype and matrix.tobytes() == want.tobytes()


def _footprint_call(tmp_path, name):
    """The argv of one CLI call whose scipy imports are checked."""
    if name == "solve-example1":
        return ["solve", "--problem", "example1", "--grid-m", "20", "--m", "5", "--t-end", "1"]
    if name == "solve-example2":
        return ["solve", "--problem", "example2", "--grid-m", "16", "--m", "4", "--t-end", "1"]
    if name == "region":
        return ["region", "--y", "-2", "--m", "5"]
    if name == "check-example1":
        a, b = mol.build_example1(20, l=-0.1).stability_matrices()
    else:  # a non-commuting pair: transforms, field-of-values sweeps and the dense W
        gen = np.random.default_rng(7)
        a, b = random_spd(gen, 6), 0.1 * random_complex(gen, 6)
    write_matrix(tmp_path / "a.json", a)
    write_matrix(tmp_path / "b.json", b)
    return ["check", "--matrix-a", str(tmp_path / "a.json"), "--matrix-b",
            str(tmp_path / "b.json"), "--tau", repr(math.pi / 2.0), "--m", "5"]


@pytest.mark.parametrize("name, loaded, unloaded", [
    ("solve-example1", (), ("scipy",)),
    ("check-example1", (), ("scipy",)),
    ("region", (), ("scipy",)),
    ("solve-example2", ("scipy.fft",), ("scipy.linalg",)),
    ("check-non-commuting", ("scipy.linalg",), ()),
])
def test_cli_call_loads_scipy_only_where_it_is_used(tmp_path, capsys, name, loaded, unloaded):
    argv = _footprint_call(tmp_path, name)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    code = ("import sys; from ddestab import cli; code = cli.main(sys.argv[1:]); "
            "sys.stderr.write(' '.join(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))); sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = set(done.stderr.split())
    assert modules >= set(loaded) and not modules & set(unloaded)
    if name == "check-non-commuting":
        assert cli.main(argv) == 0
        assert json.loads(done.stdout) == json.loads(capsys.readouterr().out)
