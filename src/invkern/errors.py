"""Exception types shared across the package."""


class InvkernError(Exception):
    """Base class for all invkern errors.

    ``exit_code`` is the CLI exit status: 3, a numerical failure, unless
    a parse or usage error class overrides it with 2.
    """

    exit_code = 3


class DimensionError(InvkernError):
    """Operands have incompatible vector dimensions."""


class FieldError(InvkernError):
    """Real-valued data combined with a genuinely complex transform."""


class ZeroVectorError(InvkernError):
    """Zero-norm input where a scale or projective quotient is undefined."""


class NegativeDistanceError(InvkernError):
    """Derived squared distance is negative beyond tolerance.

    Such a triple cannot have come from a genuine inner product, so
    distance-based kernels refuse it instead of feeding exp() garbage.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class OracleSizeError(InvkernError):
    """Explicit-feature oracle would exceed its size limits."""


class NumericalError(InvkernError):
    """A numerical routine failed to converge or met non-finite values."""


class DegenerateEmbeddingError(InvkernError):
    """Every entropy contribution vanished; no informative axes exist."""


class DegenerateClusterError(InvkernError):
    """A cluster is too small for the requested estimate."""


class ValidationError(InvkernError, ValueError):
    """A parameter outside its valid range, e.g. sigma <= 0 or k > N."""

    exit_code = 2


class FormatError(InvkernError):
    """Structurally malformed input file."""

    exit_code = 2

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ParseError(InvkernError):
    """Unparseable cell, token, or flag value."""

    exit_code = 2

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
