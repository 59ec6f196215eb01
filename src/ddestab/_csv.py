"""The package's one CSV writer."""

from __future__ import annotations

import itertools
import sys
from contextlib import nullcontext

CHUNK_ROWS = 64


def write_csv(path, header: str, columns) -> None:
    """Write the ``header`` line, then row k of the ``columns`` per line.

    Values are printed with ``%.17g``: 17 significant digits round-trip
    every IEEE double, so reading a file back gives the computed numbers
    bit for bit.  One ``%`` call formats ``CHUNK_ROWS`` rows, so memory is
    bounded by a chunk, and a column may be a generator.  ``path=None``
    writes to stdout.
    """
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*columns)
    target = nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")
    with target as fh:
        fh.write(header + "\n")
        while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
            fh.write(row_format * len(chunk) % tuple(itertools.chain.from_iterable(chunk)))
