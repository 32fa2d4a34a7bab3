"""The exception type of internal numerical failures (the CLI's exit code 4)."""


class NumericalCheckError(RuntimeError):
    """An internal cross-check between two equivalent computations failed.

    This signals a numerical-consistency failure, not bad user input.
    """
