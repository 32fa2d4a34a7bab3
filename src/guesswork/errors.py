"""Shared exception types."""


class FactorialCapError(ValueError):
    """Raised when M is above the enumeration cap (default M <= 10).

    The general sweeps enumerate all M! numberings; the exact qubit solver
    keeps the same limit.  Above the cap, use the benevolent fast path of
    :func:`guesswork.qap.benevolent_solve`.
    """


class NumericalCheckError(RuntimeError):
    """An internal cross-check between two equivalent computations failed.

    This signals a numerical-consistency failure, not bad user input.
    """
