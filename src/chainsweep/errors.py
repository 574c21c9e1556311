"""Shared exception types. The CLI maps these onto exit codes."""


class InputError(ValueError):
    """Rejected input: bad dimensions, broken invariants, unparseable values."""


class ConvergenceError(RuntimeError):
    """A decomposition failed its own check: a singular unit-space left/right
    pairing (`transfer.spectral`), a singular resolvent 1 - E + P
    (`transfer._resolvent_pair`) or no completion
    (`densemat.orthonormal_complete`)."""


class ToleranceError(RuntimeError):
    """A computed quantity violated a numerical-consistency bound (e.g. a
    physical expectation value with a non-negligible imaginary part)."""
