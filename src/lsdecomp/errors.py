"""Exception types shared across the package.

Every error derives from `InputError` or `NumericalError`; the base sets
the CLI exit code.
"""


class LsdError(Exception):
    """Base class for every error raised by this package."""


class InputError(LsdError):
    """The input is malformed, out of range or not supported (exit 2)."""


class NumericalError(LsdError):
    """A numerical computation failed or could not be certified (exit 3)."""


class NotHermitian(InputError):
    pass


class NotSymmetric(InputError):
    pass


class NotPSD(NumericalError):
    pass


class NoConvergence(NumericalError):
    pass


class DimensionMismatch(InputError):
    pass


class NotBipartite(InputError):
    pass


class InvalidProbabilities(InputError):
    pass


class ThetaOutOfRange(InputError):
    pass


class ParamOutOfRange(InputError):
    pass


class DimensionTooLarge(InputError):
    pass


class RawValidationFailed(InputError):
    pass


class RawSpecUnsupported(InputError):
    pass


class WrongDims(InputError):
    pass


class DegenerateBasis(NumericalError):
    pass


class DecompositionUnavailable(NumericalError):
    """No implemented closed form produces a valid decomposition for the input."""


class UnsupportedRawDims(InputError):
    pass


class EmptyFamily(NumericalError):
    pass


class InfeasiblePoint(NumericalError):
    pass


class NoDualCertificate(NumericalError):
    pass


class InvariantViolation(NumericalError):
    """A computed result failed its own consistency checks."""


class ParseError(InputError):
    pass


class UnsupportedSpec(InputError):
    pass
