"""The one CSV writer formats a chunk of rows per ``%`` call; its bytes
must equal those of formatting one row at a time."""

import numpy as np
import pytest

from ddestab._csv import CHUNK_ROWS, write_csv


def per_row_csv(header, columns) -> bytes:
    """The writer's output, formatted one row per ``%`` call."""
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    text = header + "\n" + "".join(row_format % row for row in zip(*columns))
    return text.encode()


@pytest.mark.parametrize("n_rows", [1, CHUNK_ROWS, 2 * CHUNK_ROWS + 37])
@pytest.mark.parametrize("kind", ["real", "complex", "norm-only"])
def test_bytes_match_per_row_formatting(tmp_path, rng, n_rows, kind):
    times = 0.1 * np.arange(n_rows)
    states = rng.standard_normal((n_rows, 4)) * 10.0 ** rng.integers(-300, 300, (n_rows, 4))
    states[0, :3] = -0.0, np.inf, np.nan
    if kind == "real":
        columns = [times] + list(states.T)
    elif kind == "complex":
        states = states + 1j * rng.standard_normal((n_rows, 4))
        columns = [times] + [part[:, j] for j in range(4) for part in (states.real, states.imag)]
    path = tmp_path / "out.csv"
    if kind == "norm-only":  # a generator column, read once
        write_csv(path, "t,norm2", (times, (np.abs(row).max() for row in states)))
        expected = per_row_csv("t,norm2", (times, (np.abs(row).max() for row in states)))
    else:
        write_csv(path, "header", columns)
        expected = per_row_csv("header", columns)
    assert path.read_bytes() == expected
    assert len(expected.splitlines()) == n_rows + 1
