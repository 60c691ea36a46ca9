"""Exception types shared across the package.

Every error derives from `InputError` or `NumericalError`; the base sets
the CLI exit code. The four named numerical outcomes below are the ones a
caller can act on.
"""


class LsdError(Exception):
    """Base class for every error raised by this package."""


class InputError(LsdError, ValueError):
    """The input is malformed, out of range or not supported (exit 2)."""


class NumericalError(LsdError):
    """A numerical computation failed or could not be certified (exit 3)."""


class DecompositionUnavailable(NumericalError):
    """No implemented closed form produces a valid decomposition for the input."""


class NoConvergence(NumericalError):
    """An iterative solver stopped without reaching its tolerance."""


class InfeasiblePoint(NumericalError):
    """A point offered for certification violates its constraints."""


class NoDualCertificate(NumericalError):
    """No dual matrix certifies the offered point as optimal."""
