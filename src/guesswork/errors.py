"""Shared exception types."""


class FactorialCapError(ValueError):
    """Raised when an exhaustive sweep is asked for above the enumeration cap
    (default M <= 10): ``tracenorm_argmax``, ``condition_check`` and the
    fallback sweep of ``arrangement_solve``.  ``solve``,
    ``min_guesswork_qubit`` and ``min_guesswork_general`` never raise it."""


class NumericalCheckError(RuntimeError):
    """An internal cross-check between two equivalent computations failed.

    This signals a numerical-consistency failure, not bad user input.
    """
