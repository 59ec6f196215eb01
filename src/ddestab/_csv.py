"""The package's one CSV writer."""

from __future__ import annotations

import itertools
import sys
from contextlib import contextmanager, nullcontext

CHUNK_ROWS = 64


@contextmanager
def csv_writer(path, header: str):
    """Open ``path`` (``None``: stdout), write the ``header`` line and yield
    a function that writes each of its ``rows``, a sequence of numbers, as
    one line.

    Values are printed with ``%.17g``: 17 significant digits round-trip
    every IEEE double, so reading a file back gives the computed numbers
    bit for bit.  One ``%`` call formats ``CHUNK_ROWS`` rows, so the
    writer's memory is bounded by a chunk, and ``rows`` may be a generator.
    """
    target = nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")
    with target as fh:
        fh.write(header + "\n")

        def write(rows) -> None:
            rows = iter(rows)
            while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
                row_format = ",".join(["%.17g"] * len(chunk[0])) + "\n"
                fh.write(row_format * len(chunk) % tuple(itertools.chain.from_iterable(chunk)))

        yield write


def write_csv(path, header: str, columns) -> None:
    """Write the ``header`` line, then row k of the ``columns`` per line
    (see :func:`csv_writer`); a column may be a generator."""
    with csv_writer(path, header) as write:
        write(zip(*columns))
