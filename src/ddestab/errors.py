"""Exception hierarchy shared by all ddestab modules.

A flat family of small classes so callers can distinguish failed input
validation from numerical breakdown without string-matching messages.
``allocating`` reports an array too large to allocate as ``InvalidParams``.
"""

from contextlib import contextmanager


class DdeStabError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(DdeStabError):
    """Matrix fails the Hermitian symmetry check.

    Raised instead of silently symmetrizing: an asymmetric input usually
    means the caller assembled the wrong matrix.
    """


class NotPositiveDefinite(DdeStabError):
    """Hermitian matrix has an eigenvalue at or below the PD tolerance."""


class NoConvergence(DdeStabError):
    """An eigenvalue or root iteration failed or violated its residual bound."""


class Singular(DdeStabError):
    """A linear system is singular to working precision."""


class DegenerateLeading(DdeStabError):
    """A leading polynomial coefficient vanishes."""


class NotSimultaneouslyDiagonalizable(DdeStabError):
    """Eigenvectors of the first matrix do not diagonalize the second."""


class ComplexSpectrum(DdeStabError):
    """Eigenvalues expected to be real and positive are not."""


class UnsupportedScheme(DdeStabError):
    """The requested operation is undefined for these scheme parameters."""


class InvalidParams(DdeStabError):
    """Arguments violate a documented precondition."""


@contextmanager
def allocating(what: str):
    """Raise ``InvalidParams("cannot allocate " + what)`` in place of the
    ``ValueError`` (past numpy's size limit) or ``MemoryError`` of an array
    whose size comes from the caller."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise InvalidParams(f"cannot allocate {what}") from exc
