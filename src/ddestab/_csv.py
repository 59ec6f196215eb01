"""The package's one CSV writer."""

from __future__ import annotations

import sys
from contextlib import nullcontext


def write_csv(path, header: str, columns) -> None:
    """Write the ``header`` line, then row k of the ``columns`` per line.

    Values are printed with ``%.17g``: 17 significant digits round-trip
    every IEEE double, so reading a file back gives the computed numbers
    bit for bit.  Rows are formatted one at a time, so no copy of the
    table is built in memory.  ``path=None`` writes to stdout.
    """
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    target = nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")
    with target as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(row_format % row)
